#include "apps/kmeans.hpp"

#include <cmath>

#include "common/error.hpp"

namespace gravel::apps {

namespace {
/// Bounds of the kernel's per-lane scratch: one point, and every centroid.
constexpr std::uint32_t kMaxDims = 16;
constexpr std::size_t kMaxCentroidWords = 128;

/// Initial centroid c, dimension d — identical for distributed and serial.
/// Seeded near the anchor layout of kmeansCoord (the usual sampled-point
/// initialization) so every cluster captures its anchor group; a degenerate
/// initialization would empty most clusters and concentrate all
/// accumulation traffic on a few owner nodes.
double initialCentroid(const KmeansConfig& cfg, std::uint32_t c,
                       std::uint32_t d) {
  const double jitter =
      double(mix64(cfg.seed ^ 0x5eedULL ^ (std::uint64_t(c) << 8 | d)) % 256) /
      256.0;
  return double((c * 29 + d * 13) % 64) + jitter;
}

/// Nearest centroid of a point; ties to the lower index.
std::uint32_t nearest(const KmeansConfig& cfg, const double* centroids,
                      const double* coords) {
  std::uint32_t best = 0;
  double bestDist = 0;
  for (std::uint32_t c = 0; c < cfg.clusters; ++c) {
    double dist = 0;
    for (std::uint32_t d = 0; d < cfg.dims; ++d) {
      const double diff = coords[d] - centroids[std::size_t{c} * cfg.dims + d];
      dist += diff * diff;
    }
    if (c == 0 || dist < bestDist) {
      bestDist = dist;
      best = c;
    }
  }
  return best;
}
}  // namespace

double kmeansCoord(const KmeansConfig& cfg, std::uint32_t node,
                   std::uint64_t p, std::uint32_t d) {
  // Anchor each point to one of `clusters` centers plus deterministic noise.
  const std::uint64_t key =
      mix64(cfg.seed ^ (std::uint64_t(node) << 44) ^ (p << 8) ^ d);
  const std::uint32_t anchor =
      std::uint32_t(mix64(cfg.seed ^ (std::uint64_t(node) << 44) ^ p) %
                    cfg.clusters);
  const double center = double((anchor * 29 + d * 13) % 64);
  const double noise = double(key % 1024) / 512.0 - 1.0;  // [-1, 1)
  return center + noise;
}

std::vector<double> serialKmeans(const KmeansConfig& cfg,
                                 std::uint32_t nodes) {
  std::vector<double> centroids(std::size_t{cfg.clusters} * cfg.dims);
  for (std::uint32_t c = 0; c < cfg.clusters; ++c)
    for (std::uint32_t d = 0; d < cfg.dims; ++d)
      centroids[std::size_t{c} * cfg.dims + d] = initialCentroid(cfg, c, d);

  std::vector<double> sums(centroids.size());
  std::vector<std::uint64_t> counts(cfg.clusters);
  std::vector<double> coords(cfg.dims);
  for (std::uint64_t it = 0; it < cfg.iterations; ++it) {
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (std::uint32_t n = 0; n < nodes; ++n) {
      for (std::uint64_t p = 0; p < cfg.points_per_node; ++p) {
        for (std::uint32_t d = 0; d < cfg.dims; ++d)
          coords[d] = kmeansCoord(cfg, n, p, d);
        const std::uint32_t c = nearest(cfg, centroids.data(), coords.data());
        ++counts[c];
        for (std::uint32_t d = 0; d < cfg.dims; ++d)
          sums[std::size_t{c} * cfg.dims + d] += coords[d];
      }
    }
    for (std::uint32_t c = 0; c < cfg.clusters; ++c)
      if (counts[c])
        for (std::uint32_t d = 0; d < cfg.dims; ++d)
          centroids[std::size_t{c} * cfg.dims + d] =
              sums[std::size_t{c} * cfg.dims + d] / double(counts[c]);
  }
  return centroids;
}

KmeansResult runKmeans(rt::Cluster& cluster, const KmeansConfig& cfg) {
  const std::uint32_t nodes = cluster.nodes();
  const std::size_t kd = std::size_t{cfg.clusters} * cfg.dims;
  GRAVEL_CHECK_MSG(cfg.dims <= kMaxDims, "kmeans: dims must be at most 16");
  GRAVEL_CHECK_MSG(kd <= kMaxCentroidWords,
                   "kmeans: clusters x dims must be at most 128");

  // Symmetric layout: replicated centroids; partial sums/counts live at the
  // owner node of each cluster (c % nodes).
  auto centroids = cluster.alloc<std::uint64_t>(kd);
  auto sums = cluster.alloc<std::uint64_t>(kd);
  auto counts = cluster.alloc<std::uint64_t>(cfg.clusters);

  // Accumulation handler: float add at the owner (serialized by the network
  // thread, which is why a plain read-modify-write is safe — §6).
  const std::uint32_t addDouble = cluster.registerHandler(
      [](rt::AmContext& ctx, std::uint64_t offset, std::uint64_t bits) {
        ctx.heap().storeU64(offset,
                            doubleBits(bitsDouble(ctx.heap().loadU64(offset)) +
                                       bitsDouble(bits)));
      });

  for (std::uint32_t nd = 0; nd < nodes; ++nd) {
    auto& heap = cluster.node(nd).heap();
    for (std::uint32_t c = 0; c < cfg.clusters; ++c)
      for (std::uint32_t d = 0; d < cfg.dims; ++d)
        heap.storeU64(centroids.at(std::size_t{c} * cfg.dims + d),
                      doubleBits(initialCentroid(cfg, c, d)));
  }

  const std::uint32_t wg =
      cfg.wg_size ? cfg.wg_size : cluster.config().device.max_wg_size;

  cluster.resetStats();
  for (std::uint64_t it = 0; it < cfg.iterations; ++it) {
    // Zero the accumulators (host side, like the paper's host glue).
    for (std::uint32_t nd = 0; nd < nodes; ++nd) {
      auto& heap = cluster.node(nd).heap();
      for (std::size_t i = 0; i < kd; ++i)
        heap.storeU64(sums.at(i), doubleBits(0.0));
      for (std::uint32_t c = 0; c < cfg.clusters; ++c)
        heap.storeU64(counts.at(c), 0);
    }

    // Assignment + accumulation kernel: one work-item per point. The
    // per-dimension sends share one enqueue group each (uniform control
    // flow: every lane sends the same number of messages).
    cluster.launchAll(cfg.points_per_node, wg,
                      [&](std::uint32_t nodeId, simt::WorkItem& wi) {
      auto& self = cluster.node(nodeId);
      double coords[kMaxDims] = {};
      double cent[kMaxCentroidWords] = {};
      for (std::uint32_t d = 0; d < cfg.dims; ++d)
        coords[d] = kmeansCoord(cfg, nodeId, wi.globalId(), d);
      for (std::size_t i = 0; i < kd; ++i)
        cent[i] = bitsDouble(self.heap().loadU64(centroids.at(i)));
      const std::uint32_t c = nearest(cfg, cent, coords);
      const std::uint32_t owner = c % nodes;
      for (std::uint32_t d = 0; d < cfg.dims; ++d)
        self.shmemAm(wi, owner, addDouble,
                     sums.at(std::size_t{c} * cfg.dims + d),
                     doubleBits(coords[d]));
      self.shmemInc(wi, owner, counts.at(c));
    });

    // Host: owners recompute their centroids and broadcast (direct heap
    // writes — the paper's host-side phase between kernels).
    std::vector<double> newCentroids(kd);
    for (std::uint32_t c = 0; c < cfg.clusters; ++c) {
      auto& heap = cluster.node(c % nodes).heap();
      const std::uint64_t cnt = heap.loadU64(counts.at(c));
      for (std::uint32_t d = 0; d < cfg.dims; ++d) {
        const std::size_t i = std::size_t{c} * cfg.dims + d;
        newCentroids[i] =
            cnt ? bitsDouble(heap.loadU64(sums.at(i))) / double(cnt)
                : bitsDouble(
                      cluster.node(0).heap().loadU64(centroids.at(i)));
      }
    }
    for (std::uint32_t nd = 0; nd < nodes; ++nd)
      for (std::size_t i = 0; i < kd; ++i)
        cluster.node(nd).heap().storeU64(centroids.at(i),
                                         doubleBits(newCentroids[i]));
  }

  KmeansResult result;
  result.report.name = "kmeans";
  result.report.stats = cluster.runStats();
  result.report.work_units =
      double(cfg.points_per_node) * nodes * cfg.iterations;
  result.report.iterations = cfg.iterations;

  result.centroids.resize(kd);
  for (std::size_t i = 0; i < kd; ++i)
    result.centroids[i] =
        bitsDouble(cluster.node(0).heap().loadU64(centroids.at(i)));

  // Serial comparison: assignment is exact (same doubles), accumulation
  // order differs, so compare with tolerance.
  const auto expected = serialKmeans(cfg, nodes);
  result.report.validated = true;
  for (std::size_t i = 0; i < kd; ++i) {
    if (std::abs(result.centroids[i] - expected[i]) > 1e-6) {
      result.report.validated = false;
      break;
    }
  }
  return result;
}

}  // namespace gravel::apps
