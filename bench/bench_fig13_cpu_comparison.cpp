// Figure 13: Gravel vs CPU-based distributed systems (Grappa for GUPS/PR,
// UPC for mer) — bars for 1 CPU node, 8 CPU nodes, 1 Gravel node, 8 Gravel
// nodes, normalized to 1 CPU node.
//
// CPU numbers come from real functional runs of the Grappa-like delegate
// runtime (src/baselines) timed by the CPU cost model; Gravel numbers from
// functional runs timed by the discrete-event model. Paper shape: Gravel is
// already far ahead at one node (GPU parallelism on data-parallel work) and
// keeps the lead at eight.
#include <cstdio>
#include <iostream>

#include "baselines/cpu_apps.hpp"
#include "common.hpp"

namespace {

struct CpuRun {
  gravel::baselines::CpuAppReport report;
};

CpuRun runCpuWorkload(const std::string& name, std::uint32_t nodes) {
  using namespace gravel;
  const double s = bench::benchScale();
  baselines::CpuClusterConfig cc;
  cc.nodes = nodes;
  cc.threads_per_node = 4;
  cc.heap_words = 1 << 21;
  if (name == "mer") cc.heap_words = 2 * ((1 << 20) / nodes);
  baselines::CpuCluster cluster(cc);
  CpuRun out;
  if (name == "GUPS") {
    apps::GupsConfig cfg;
    cfg.table_size = 1 << 18;
    cfg.updates_per_node = std::uint64_t(s * (2 << 20)) / nodes;
    out.report = baselines::runCpuGups(cluster, cfg);
  } else if (name == "PR-1" || name == "PR-2") {
    graph::Csr g = name == "PR-1"
                       ? graph::bubblesLike(graph::Vertex(s * 60000), 11)
                       : graph::cageLike(graph::Vertex(s * 24000), 19, 12);
    graph::DistGraph dg(std::move(g), nodes);
    apps::PageRankConfig cfg;
    cfg.iterations = name == "PR-1" ? 5 : 3;
    out.report = baselines::runCpuPageRank(cluster, dg, cfg);
  } else if (name == "mer") {
    apps::MerConfig cfg;
    cfg.genome_length = 1 << 18;
    cfg.reads_per_node = std::uint64_t(s * 12000) / nodes;
    cfg.read_length = 100;
    cfg.k = 21;
    cfg.table_slots_per_node = (1 << 20) / nodes;
    out.report = baselines::runCpuMer(cluster, cfg);
  }
  return out;
}

double cpuTime(const gravel::baselines::CpuAppReport& r, std::uint32_t nodes) {
  gravel::perf::MachineParams p;
  const double opsPerNode =
      double(r.stats.ops_local + r.stats.ops_remote) / nodes;
  return gravel::perf::cpuBaselineTime(p, opsPerNode,
                                       r.stats.remoteFraction(), 32, 65536,
                                       r.rounds);
}

}  // namespace

int main() {
  using namespace gravel;
  using namespace gravel::bench;

  printHeader(
      "Gravel vs CPU-based distributed systems (speedup vs 1 CPU node)",
      "Figure 13 (Grappa for GUPS/PR, UPC for mer)");

  TextTable table({"workload", "1 CPU node", "8 CPU nodes", "1 Gravel node",
                   "8 Gravel nodes", "validated"});
  for (const std::string name : {"GUPS", "PR-1", "PR-2", "mer"}) {
    const CpuRun cpu1 = runCpuWorkload(name, 1);
    const CpuRun cpu8 = runCpuWorkload(name, 8);
    const WorkloadRun g1 = runWorkload(name, 1);
    const WorkloadRun g8 = runWorkload(name, 8);

    const double tCpu1 = cpuTime(cpu1.report, 1);
    const double tCpu8 = cpuTime(cpu8.report, 8);
    const double tG1 = timeRun(g1, perf::Style::kGravel);
    const double tG8 = timeRun(g8, perf::Style::kGravel);
    const bool valid = cpu1.report.validated && cpu8.report.validated &&
                       g1.report.validated && g8.report.validated;
    table.addRow({name, TextTable::num(1.0), TextTable::num(tCpu1 / tCpu8),
                  TextTable::num(tCpu1 / tG1), TextTable::num(tCpu1 / tG8),
                  valid ? "yes" : "NO"});
    std::fflush(stdout);
  }
  table.print(std::cout);
  std::printf(
      "\npaper shape: Gravel leads even at one node (the GPU fits the "
      "data-parallel inner loops) and the lead persists at eight nodes.\n");
  return 0;
}
