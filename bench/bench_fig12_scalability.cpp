// Figure 12: Gravel's scalability — speedup of every Table-4 workload at
// 1/2/4/8 nodes (strong scaling), plus the geometric mean.
//
// Each cell is a real functional run (messages through the real queue,
// aggregator and fabric) timed by the Table-3 discrete-event model.
// Paper headline: 5.3x geomean at 8 nodes; GUPS/kmeans/mer approach the
// ideal 8x (all-atomic traffic), SSSP-1 scales worst (~1.6 kB average
// messages defeat the aggregator).
#include <cstdio>
#include <map>

#include "common.hpp"

int main() {
  using namespace gravel;
  using namespace gravel::bench;

  printHeader("Gravel scalability: speedup vs one node",
              "Figure 12 (geomean 5.3x at 8 nodes)");

  BenchJson json("fig12_scalability");
  json.meta("artifact", "Figure 12");
  json.meta("scale", benchScale());

  const std::vector<std::uint32_t> nodeCounts{1, 2, 4, 8};
  TextTable table({"workload", "1 node", "2 nodes", "4 nodes", "8 nodes",
                   "validated"});
  std::map<std::uint32_t, std::vector<double>> speedups;

  for (const auto& name : workloadNames()) {
    std::map<std::uint32_t, double> seconds;
    std::map<std::uint32_t, rt::ClusterRunStats> stats;
    bool allValid = true;
    for (auto n : nodeCounts) {
      const WorkloadRun run = runWorkload(name, n);
      allValid = allValid && run.report.validated;
      seconds[n] = timeRun(run, perf::Style::kGravel);
      stats[n] = run.report.stats;
    }
    std::vector<std::string> row{name};
    json.beginRow();
    json.cell("workload", name);
    for (auto n : nodeCounts) {
      const double sp = seconds[1] / seconds[n];
      speedups[n].push_back(sp);
      row.push_back(TextTable::num(sp));
      json.cell("seconds_" + std::to_string(n), seconds[n]);
      json.cell("speedup_" + std::to_string(n), sp);
      // Slot-batched routing invariant (DESIGN.md §9): the aggregator takes
      // one buffer lock per distinct destination per slot, so
      // locks/slot <= dests/slot always; run_benches.py asserts it.
      const double slots = double(std::max<std::uint64_t>(1, stats[n].agg_slots));
      json.cell("agg_locks_per_slot_" + std::to_string(n),
                double(stats[n].agg_lock_acquisitions) / slots);
      json.cell("agg_dests_per_slot_" + std::to_string(n),
                double(stats[n].agg_dests_touched) / slots);
    }
    json.cell("validated", allValid ? 1.0 : 0.0);
    row.push_back(allValid ? "yes" : "NO");
    table.addRow(row);
    std::fflush(stdout);
  }

  json.beginRow();
  json.cell("workload", "geomean");
  for (auto n : nodeCounts)
    json.cell("speedup_" + std::to_string(n), geomean(speedups[n]));

  std::vector<std::string> geo{"geo. mean"};
  for (auto n : nodeCounts) geo.push_back(TextTable::num(geomean(speedups[n])));
  geo.push_back("-");
  table.addRow(geo);

  table.print(std::cout);
  std::printf(
      "\npaper: geomean 5.3x at 8 nodes; GUPS/kmeans/mer near-ideal, "
      "SSSP-1 worst.\n");

  // --- large-N scale sweep (DESIGN.md §14) --------------------------------
  // The config admits nodes <= 65536; this sweep is the evidence the claim
  // is honest. Each point runs a real functional workload at a four-digit
  // node count (demand-paged buffers + sharded tree + timer wheel + two
  // executor threads), times it under the Table-3 DES model, and
  // publishes the per-node resident-buffer footprint — the number that must
  // stay flat in N. Rows carry a `scale_nodes` marker cell so
  // run_benches.py validates them with scale rules (no speedup_1 here:
  // the points are absolute, not self-relative).
  const auto scaleNodes = fig12ScaleNodes();
  if (!scaleNodes.empty()) {
    printHeader("Large-N scale sweep: per-node footprint flat in N",
                "Figure 12 extension (DESIGN.md §14)");
    TextTable st({"workload", "nodes", "DES seconds", "resident B/node",
                  "lazy buffers", "timeout scanned", "validated"});
    struct ScalePoint {
      std::string workload;
      std::uint32_t nodes;
      rt::ClusterRunStats stats;
      double seconds;
      bool validated;
    };
    std::vector<ScalePoint> points;

    for (auto n : scaleNodes) {
      {  // GUPS: uniform all-to-all fine-grain atomics, serially validated.
        rt::Cluster cluster(scaleBenchCluster(n));
        apps::GupsConfig cfg;
        cfg.table_size = std::uint64_t(n) * 16;
        cfg.updates_per_node = 32;
        const auto report = apps::runGups(cluster, cfg);
        WorkloadRun run;
        run.report = report;
        run.demand = perf::demandFromCluster(cluster);
        run.am_fraction = perf::amFraction(report.stats);
        run.rounds = 1;
        points.push_back({"GUPS-scale", n, report.stats,
                          timeRun(run, perf::Style::kGravel),
                          report.validated});
      }
      {  // Ring: each node talks to one neighbour — the cold-destination
         // case; N-2 destinations per node must cost zero bytes.
        rt::Cluster cluster(scaleBenchCluster(n));
        auto cell = cluster.alloc<std::uint64_t>(1);
        cluster.resetStats();
        cluster.launchAll(16, 8,
                          [&](std::uint32_t nodeId, simt::WorkItem& wi) {
                            cluster.node(nodeId).shmemInc(
                                wi, (nodeId + 1) % n, cell.at(0));
                          });
        apps::AppReport report;
        report.stats = cluster.runStats();
        WorkloadRun run;
        run.report = report;
        run.demand = perf::demandFromCluster(cluster);
        run.am_fraction = perf::amFraction(report.stats);
        run.rounds = 1;
        const bool conserved =
            report.stats.net_resolved == report.stats.net_messages;
        points.push_back({"ring-scale", n, report.stats,
                          timeRun(run, perf::Style::kGravel), conserved});
      }
    }

    for (const ScalePoint& p : points) {
      const double slots =
          double(std::max<std::uint64_t>(1, p.stats.agg_slots));
      const double perNode = double(p.stats.agg_resident_bytes) / p.nodes;
      json.beginRow();
      json.cell("workload", p.workload);
      json.cell("scale_nodes", double(p.nodes));
      json.cell("seconds", p.seconds);
      json.cell("agg_locks_per_slot",
                double(p.stats.agg_lock_acquisitions) / slots);
      json.cell("agg_dests_per_slot",
                double(p.stats.agg_dests_touched) / slots);
      json.cell("agg_timeout_scanned", double(p.stats.agg_timeout_scanned));
      json.cell("agg_lazy_buffers", double(p.stats.agg_lazy_buffers));
      json.cell("agg_resident_bytes", double(p.stats.agg_resident_bytes));
      json.cell("agg_resident_bytes_per_node", perNode);
      json.cell("agg_staging_bytes_peak",
                double(p.stats.agg_staging_bytes_peak));
      json.cell("net_messages", double(p.stats.net_messages));
      json.cell("validated", p.validated ? 1.0 : 0.0);
      st.addRow({p.workload, std::to_string(p.nodes),
                 TextTable::num(p.seconds), TextTable::num(perNode),
                 std::to_string(p.stats.agg_lazy_buffers),
                 std::to_string(p.stats.agg_timeout_scanned),
                 p.validated ? "yes" : "NO"});
    }
    st.print(std::cout);
    std::printf(
        "\nresident B/node must stay flat as nodes grow (lazy buffers); "
        "timeout scanned tracks traffic, not nodes x ticks.\n");
  }
  return 0;
}
