// Application-level integration tests: every paper workload (§6) runs at
// small scale on multi-node clusters and validates against its serial
// reference. These are the end-to-end proofs that the SIMT engine, queue,
// aggregator, fabric and network threads compose correctly.
#include <gtest/gtest.h>

#include "apps/color.hpp"
#include "apps/gups.hpp"
#include "apps/gups_mod.hpp"
#include "apps/kmeans.hpp"
#include "apps/mer.hpp"
#include "apps/mer_traverse.hpp"
#include "apps/pagerank.hpp"
#include "apps/sssp.hpp"
#include "graph/generators.hpp"

namespace gravel::apps {
namespace {

rt::ClusterConfig testCluster(std::uint32_t nodes, bool reconvergence = false) {
  rt::ClusterConfig c;
  c.nodes = nodes;
  c.heap_bytes = 8u << 20;
  c.gpu_queue_bytes = 1 << 14;
  c.pernode_queue_bytes = 1 << 10;
  c.device.wavefront_width = 8;
  c.device.max_wg_size = 32;
  c.device.wg_reconvergence = reconvergence;
  return c;
}

TEST(Gups, ValidatesOnFourNodes) {
  rt::Cluster cluster(testCluster(4));
  GupsConfig cfg;
  cfg.table_size = 1 << 10;
  cfg.updates_per_node = 1 << 10;
  const auto report = runGups(cluster, cfg);
  EXPECT_TRUE(report.validated);
  EXPECT_EQ(report.stats.opsTotal(), 4u << 10);
  // Uniform random destinations over 4 nodes: ~75% remote.
  EXPECT_NEAR(report.stats.remoteFraction(), 0.75, 0.05);
}

TEST(Gups, SingleNodeHasNoRemoteTraffic) {
  rt::Cluster cluster(testCluster(1));
  GupsConfig cfg;
  cfg.table_size = 256;
  cfg.updates_per_node = 512;
  const auto report = runGups(cluster, cfg);
  EXPECT_TRUE(report.validated);
  EXPECT_EQ(report.stats.remoteFraction(), 0.0);
  // Atomics still route through the NI (paper §6) even on one node.
  EXPECT_EQ(report.stats.net_messages, 512u);
}

TEST(PageRank, MatchesSerialOnMesh) {
  rt::Cluster cluster(testCluster(3));
  graph::DistGraph dg(graph::bubblesLike(400, 2), 3);
  PageRankConfig cfg;
  cfg.iterations = 4;
  const auto result = runPageRank(cluster, dg, cfg);
  EXPECT_TRUE(result.report.validated);
  // PUT-only workload.
  EXPECT_EQ(result.report.stats.inc_local + result.report.stats.inc_remote,
            0u);
  EXPECT_EQ(result.report.stats.am_local + result.report.stats.am_remote, 0u);
  EXPECT_EQ(
      result.report.stats.put_local + result.report.stats.put_remote,
      dg.graph().edgeCount() * cfg.iterations);
}

TEST(PageRank, MatchesSerialOnBandGraph) {
  rt::Cluster cluster(testCluster(2));
  graph::DistGraph dg(graph::cageLike(300, 8, 3), 2);
  const auto result = runPageRank(cluster, dg, {3});
  EXPECT_TRUE(result.report.validated);
  // Ranks form a probability-ish distribution (no mass lost in transit).
  double sum = 0;
  for (double r : result.ranks) sum += r;
  EXPECT_NEAR(sum, 1.0, 0.2);  // dangling-free graphs stay close to 1
}

TEST(Sssp, MatchesDijkstraOnMesh) {
  rt::Cluster cluster(testCluster(3));
  graph::DistGraph dg(graph::bubblesLike(144, 4), 3);
  const auto result = runSssp(cluster, dg, {});
  EXPECT_TRUE(result.report.validated);
  EXPECT_EQ(result.dist[0], 0u);
  EXPECT_GT(result.report.iterations, 2u);
}

TEST(Sssp, MatchesDijkstraOnBandGraph) {
  rt::Cluster cluster(testCluster(4));
  graph::DistGraph dg(graph::cageLike(200, 10, 6), 4);
  SsspConfig cfg;
  cfg.source = 17;
  const auto result = runSssp(cluster, dg, cfg);
  EXPECT_TRUE(result.report.validated);
}

TEST(Sssp, DisconnectedVerticesStayInfinite) {
  // Two disjoint components: vertices {0,1} and {2,3}.
  std::vector<graph::Edge> edges{{0, 1}, {1, 0}, {2, 3}, {3, 2}};
  graph::DistGraph dg(graph::Csr::fromEdges(4, edges), 2);
  rt::Cluster cluster(testCluster(2));
  const auto result = runSssp(cluster, dg, {});
  EXPECT_TRUE(result.report.validated);
  EXPECT_EQ(result.dist[2], kSsspInf);
  EXPECT_EQ(result.dist[3], kSsspInf);
}

TEST(Color, ProperColoringOnMesh) {
  rt::Cluster cluster(testCluster(3));
  graph::DistGraph dg(graph::bubblesLike(225, 5), 3);
  const auto result = runColor(cluster, dg, {});
  EXPECT_TRUE(result.report.validated);
  // Mesh degree <= ~4: greedy needs few colors.
  EXPECT_LE(result.palette, 6u);
  // PUT-only workload.
  EXPECT_EQ(result.report.stats.inc_local + result.report.stats.inc_remote +
                result.report.stats.am_local + result.report.stats.am_remote,
            0u);
}

TEST(Color, ProperColoringOnBandGraph) {
  rt::Cluster cluster(testCluster(2));
  graph::DistGraph dg(graph::cageLike(240, 10, 8), 2);
  const auto result = runColor(cluster, dg, {});
  EXPECT_TRUE(result.report.validated);
  EXPECT_LE(result.palette, dg.graph().maxDegree() + 1);
}

TEST(Kmeans, ConvergesToSerialCentroids) {
  rt::Cluster cluster(testCluster(4));
  KmeansConfig cfg;
  cfg.points_per_node = 512;
  cfg.iterations = 3;
  cfg.clusters = 4;
  cfg.dims = 3;
  const auto result = runKmeans(cluster, cfg);
  EXPECT_TRUE(result.report.validated);
  // Atomics-only workload (AM accumulation + count increments).
  EXPECT_EQ(result.report.stats.put_local + result.report.stats.put_remote,
            0u);
  const double msgsPerPoint = double(cfg.dims) + 1;
  EXPECT_EQ(double(result.report.stats.opsTotal()),
            msgsPerPoint * cfg.points_per_node * 4 * cfg.iterations);
}

TEST(Kmeans, RejectsConfigsThatOverflowTheKernelScratch) {
  // The kernel keeps one point (16 dims) and every centroid (128 words) on
  // each lane's stack; larger configs are refused before any launch.
  rt::Cluster cluster(testCluster(2));
  KmeansConfig wide;
  wide.points_per_node = 32;
  wide.iterations = 1;
  wide.clusters = 1;
  wide.dims = 17;
  EXPECT_THROW(runKmeans(cluster, wide), Error);
  KmeansConfig many;
  many.points_per_node = 32;
  many.iterations = 1;
  many.clusters = 33;
  many.dims = 4;  // 132 centroid words
  EXPECT_THROW(runKmeans(cluster, many), Error);
  EXPECT_EQ(cluster.runStats().opsTotal(), 0u);
}

TEST(Mer, BuildsExactDistributedHashTable) {
  rt::Cluster cluster(testCluster(4));
  MerConfig cfg;
  cfg.genome_length = 1 << 12;
  cfg.reads_per_node = 64;
  cfg.read_length = 60;
  cfg.k = 15;
  cfg.table_slots_per_node = 1 << 13;
  const auto result = runMer(cluster, cfg);
  EXPECT_TRUE(result.report.validated);
  EXPECT_GT(result.distinct_kmers, 0u);
  EXPECT_LE(result.distinct_kmers, result.total_occurrences);
  EXPECT_LT(result.max_load_factor, 0.9);
  // AM-only workload with hash-random destinations: ~3/4 remote at 4 nodes.
  EXPECT_NEAR(result.report.stats.remoteFraction(), 0.75, 0.08);
}

TEST(MerTraverse, ContigsMatchSerialTraversal) {
  // Phase 1 + phase 2 on the same cluster: the walk hops between nodes as a
  // chain of active messages and must find exactly the serial contig set.
  rt::Cluster cluster(testCluster(4));
  MerConfig cfg;
  cfg.genome_length = 1 << 12;
  cfg.reads_per_node = 96;
  cfg.read_length = 60;
  cfg.k = 15;
  cfg.table_slots_per_node = 1 << 13;
  const auto phase1 = runMer(cluster, cfg);
  ASSERT_TRUE(phase1.report.validated);

  const auto phase2 = runMerTraverse(cluster, cfg, phase1);
  EXPECT_TRUE(phase2.report.validated);
  EXPECT_GT(phase2.contigs, 0u);
  EXPECT_GE(phase2.contig_kmers, phase2.contigs);
  EXPECT_GE(phase2.longest_contig, 2u);
  // Chained hops crossed the fabric beyond the seed messages.
  EXPECT_GT(phase2.report.stats.net_messages,
            phase2.report.stats.am_local + phase2.report.stats.am_remote);
}

TEST(MerTraverse, SingleNodeChainsThroughLoopback) {
  rt::Cluster cluster(testCluster(1));
  MerConfig cfg;
  cfg.genome_length = 1 << 11;
  cfg.reads_per_node = 64;
  cfg.read_length = 50;
  cfg.k = 13;
  cfg.table_slots_per_node = 1 << 12;
  const auto phase1 = runMer(cluster, cfg);
  ASSERT_TRUE(phase1.report.validated);
  const auto phase2 = runMerTraverse(cluster, cfg, phase1);
  EXPECT_TRUE(phase2.report.validated);
}

class GupsModModes : public ::testing::TestWithParam<DivergedMode> {};

TEST_P(GupsModModes, AllVariantsValidate) {
  const DivergedMode mode = GetParam();
  rt::Cluster cluster(
      testCluster(2, mode == DivergedMode::kWgReconvergence));
  GupsModConfig cfg;
  cfg.table_size = 512;
  cfg.workitems_per_node = 1 << 10;
  const auto report = runGupsMod(cluster, cfg, mode);
  EXPECT_TRUE(report.validated);
  EXPECT_GT(report.work_units, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Modes, GupsModModes,
                         ::testing::Values(DivergedMode::kSoftwarePredication,
                                           DivergedMode::kWgReconvergence,
                                           DivergedMode::kFbar));

TEST(GupsMod, PredicationPaysOverheadFbarDoesNot) {
  GupsModConfig cfg;
  cfg.table_size = 512;
  cfg.workitems_per_node = 1 << 10;

  rt::Cluster swCluster(testCluster(2));
  const auto sw =
      runGupsMod(swCluster, cfg, DivergedMode::kSoftwarePredication);
  rt::Cluster fbCluster(testCluster(2));
  const auto fb = runGupsMod(fbCluster, cfg, DivergedMode::kFbar);

  ASSERT_TRUE(sw.validated);
  ASSERT_TRUE(fb.validated);
  // Same functional work...
  EXPECT_EQ(sw.work_units, fb.work_units);
  // ...but software predication drags idle lanes through every arrival and
  // pays instruction overhead; fbar synchronizes members only (§8.2).
  EXPECT_GT(sw.stats.predication_overhead_ops, 0u);
  EXPECT_EQ(fb.stats.predication_overhead_ops, 0u);
  EXPECT_GT(sw.stats.collective_arrivals, fb.stats.collective_arrivals);
}

TEST(GupsMod, ReconvergenceAvoidsPredicationOverhead) {
  GupsModConfig cfg;
  cfg.table_size = 256;
  cfg.workitems_per_node = 512;
  rt::Cluster cluster(testCluster(2, /*reconvergence=*/true));
  const auto report = runGupsMod(cluster, cfg, DivergedMode::kWgReconvergence);
  EXPECT_TRUE(report.validated);
  EXPECT_EQ(report.stats.predication_overhead_ops, 0u);
}

TEST(GupsMod, WrongClusterModeIsRejected) {
  rt::Cluster cluster(testCluster(2));
  GupsModConfig cfg;
  EXPECT_THROW(runGupsMod(cluster, cfg, DivergedMode::kWgReconvergence),
               Error);
}

}  // namespace
}  // namespace gravel::apps
