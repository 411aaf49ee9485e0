#!/usr/bin/env python3
"""Bench regression harness: runs the paper-artifact benches under pinned
configurations and emits schema-validated summary JSONs at the repo root.

For each selected bench (fig8 queue throughput, fig12 scalability, table5
network statistics) the driver runs the bench binary N times with
GRAVEL_BENCH_JSON enabled, collects the per-run BENCH_<source>.json files,
and aggregates every numeric cell into {median, min, max, repeats} summary
statistics. The result is written as BENCH_fig8.json / BENCH_fig12.json /
BENCH_table5.json (schema below), validated both structurally and against
bench-specific invariants — including the slot-batched aggregator's
lock-discipline guarantee (lock acquisitions per slot <= distinct
destinations per slot; see DESIGN.md section 9).

Summary schema (schema_version 3; version-1/2 files still validate):

  {
    "schema_version": 3,
    "bench": "fig8",                  # harness name
    "source": "fig8_queue_tput",      # BenchJson name / binary suffix
    "generated_by": "bench/run_benches.py",
    "mode": "smoke" | "full",
    "repeats": N,
    "machine": {"platform": ..., "machine": ..., "python": ...,
                "cpu_count": ...},
    "config": {"GRAVEL_BENCH_SCALE": ..., ...},   # pinned env knobs
    "meta": {...},                    # bench-reported metadata (last run)
    "rows": [ {"col": {"median": m, "min": lo, "max": hi,
                       "repeats": [v0, v1, ...]}    # numeric cells
               , "name_col": "string"}, ... ]       # string cells verbatim
  }

Schema v2 adds per-stage latency-attribution columns to table5 rows
(sourced from the obs latency engine, nanoseconds): lat_samples,
lat_e2e_p50_ns / lat_e2e_p99_ns, and a lat_p50_ns_<transition> /
lat_p99_ns_<transition> pair for each pipeline transition
(enqueue_to_aggregate ... deliver_to_resolve). Schema v3 adds the
serving-oriented time-series columns (windowed collector, src/obs/
timeseries.hpp): ts_windows, ts_msgs_per_s_p50, ts_msgs_per_s_peak.
Schema v4 adds the continuous-profiler columns (src/obs/profiler.hpp,
DESIGN.md section 15): fig8 rows carry gravel_gbs_prof (the same queue
measured with profiling enabled — the overhead evidence), and table5 rows
carry cpu_ns_per_msg (attributed busy ns per resolved network message)
and lock_wait_share (named-mutex wait time as a share of busy time). The
reader is backward-compatible: --check accepts v1..v3 files and skips the
newer-version requirements.

Modes:
  (default)       full-size run, 3 repeats
  --smoke         reduced-size pinned config (CI job), 1 repeat
  --check FILE..  no benches run; revalidate existing summary files and
                  exit nonzero on schema drift
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA_VERSION = 4
# Versions --check still accepts; new summaries are always SCHEMA_VERSION.
ACCEPTED_SCHEMA_VERSIONS = {1, 2, 3, 4}

# Pipeline transitions the latency-attribution engine reports, matching
# obs::transitionLabel (src/obs/latency.hpp).
LAT_TRANSITIONS = (
    "enqueue_to_aggregate",
    "aggregate_to_flush",
    "flush_to_wire-send",
    "wire-send_to_deliver",
    "deliver_to_resolve",
)

# Harness name -> BenchJson source name (binary is bench_<source>).
BENCHES = {
    "fig8": "fig8_queue_tput",
    "fig12": "fig12_scalability",
    "table5": "table5_netstats",
}

# Pinned per-mode environment. The smoke profile shrinks problem sizes and
# measurement windows but still runs the real queues/aggregator/fabric, so
# the structural invariants (schema, lock discipline, speedup_1 == 1) are
# exercised end to end in CI.
MODE_ENV = {
    "full": {
        "GRAVEL_BENCH_SCALE": "1.0",
        # fig12's large-N sweep (DESIGN.md 14): both four-digit points.
        "GRAVEL_FIG12_SCALE_NODES": "1024,4096",
    },
    "smoke": {
        "GRAVEL_BENCH_SCALE": "0.05",
        "GRAVEL_BENCH_RUN_SECONDS": "0.02",
        "GRAVEL_BENCH_WORKLOADS": "GUPS,kmeans",
        # Both four-digit points even in smoke: the per-node scale work is
        # fixed and tiny, and the resident-bytes flatness validator needs
        # two points per workload to have anything to compare.
        "GRAVEL_FIG12_SCALE_NODES": "1024,4096",
    },
}

FLOAT_TOL = 1e-9


class ValidationError(Exception):
    pass


def fail(msg):
    print(f"run_benches: ERROR: {msg}", file=sys.stderr)
    sys.exit(1)


def machine_info():
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 0,
    }


def run_bench_once(binary, source, env_overrides):
    """Runs one bench binary and returns its parsed BENCH_<source>.json."""
    with tempfile.TemporaryDirectory(prefix="gravel-bench-") as tmp:
        env = dict(os.environ)
        env.update(env_overrides)
        env["GRAVEL_BENCH_JSON"] = "1"
        env["GRAVEL_BENCH_JSON_DIR"] = tmp
        proc = subprocess.run(
            [binary], env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise ValidationError(
                f"{os.path.basename(binary)} exited {proc.returncode}")
        path = os.path.join(tmp, f"BENCH_{source}.json")
        if not os.path.exists(path):
            raise ValidationError(
                f"{os.path.basename(binary)} did not emit {path}")
        with open(path) as f:
            return json.load(f)


def aggregate_rows(runs):
    """Folds the per-run row lists into summary rows (median/min/max)."""
    row_counts = {len(r["rows"]) for r in runs}
    if len(row_counts) != 1:
        raise ValidationError(
            f"row count varies across repeats: {sorted(row_counts)} "
            "(bench output is not deterministic in shape)")
    rows = []
    for i in range(row_counts.pop()):
        per_run = [r["rows"][i] for r in runs]
        keys = {frozenset(row.keys()) for row in per_run}
        if len(keys) != 1:
            raise ValidationError(f"row {i} keys vary across repeats")
        out = {}
        for key in per_run[0]:
            values = [row[key] for row in per_run]
            if all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in values):
                out[key] = {
                    "median": statistics.median(values),
                    "min": min(values),
                    "max": max(values),
                    "repeats": values,
                }
            else:
                if len(set(map(str, values))) != 1:
                    raise ValidationError(
                        f"row {i} string cell '{key}' varies across repeats")
                out[key] = values[0]
        rows.append(out)
    return rows


def run_bench(name, build_dir, mode, repeats):
    source = BENCHES[name]
    binary = os.path.join(build_dir, "bench", f"bench_{source}")
    if not os.path.exists(binary):
        raise ValidationError(
            f"bench binary not found: {binary} (build the 'bench' targets "
            "first: cmake --build <build-dir>)")
    env_overrides = dict(MODE_ENV[mode])
    runs = []
    for r in range(repeats):
        print(f"run_benches: {name} repeat {r + 1}/{repeats}", flush=True)
        runs.append(run_bench_once(binary, source, env_overrides))
    for r in runs:
        if r.get("bench") != source:
            raise ValidationError(
                f"bench field mismatch: expected {source}, got {r.get('bench')}")
    return {
        "schema_version": SCHEMA_VERSION,
        "bench": name,
        "source": source,
        "generated_by": "bench/run_benches.py",
        "mode": mode,
        "repeats": repeats,
        "machine": machine_info(),
        "config": env_overrides,
        "meta": runs[-1].get("meta", {}),
        "rows": aggregate_rows(runs),
    }


# --- validation -------------------------------------------------------------

def cell_median(row, key):
    cell = row.get(key)
    if not isinstance(cell, dict) or "median" not in cell:
        raise ValidationError(f"missing/ill-formed numeric cell '{key}'")
    return cell["median"]


def require(cond, msg):
    if not cond:
        raise ValidationError(msg)


def validate_structure(doc):
    require(isinstance(doc, dict), "summary is not a JSON object")
    for key in ("schema_version", "bench", "source", "generated_by", "mode",
                "repeats", "machine", "config", "meta", "rows"):
        require(key in doc, f"missing top-level key '{key}'")
    require(doc["schema_version"] in ACCEPTED_SCHEMA_VERSIONS,
            f"schema_version {doc['schema_version']} not in "
            f"{sorted(ACCEPTED_SCHEMA_VERSIONS)}")
    require(doc["bench"] in BENCHES, f"unknown bench '{doc['bench']}'")
    require(doc["source"] == BENCHES[doc["bench"]],
            f"source '{doc['source']}' does not match bench '{doc['bench']}'")
    require(doc["mode"] in MODE_ENV, f"unknown mode '{doc['mode']}'")
    require(isinstance(doc["repeats"], int) and doc["repeats"] >= 1,
            "repeats must be a positive integer")
    for key in ("platform", "machine", "python", "cpu_count"):
        require(key in doc["machine"], f"machine info missing '{key}'")
    require(isinstance(doc["rows"], list) and doc["rows"],
            "rows must be a non-empty array")
    for i, row in enumerate(doc["rows"]):
        require(isinstance(row, dict) and row, f"row {i} is not an object")
        for key, cell in row.items():
            if isinstance(cell, dict):
                for stat in ("median", "min", "max", "repeats"):
                    require(stat in cell, f"row {i} cell '{key}' missing "
                            f"'{stat}'")
                require(len(cell["repeats"]) == doc["repeats"],
                        f"row {i} cell '{key}' has {len(cell['repeats'])} "
                        f"repeats, expected {doc['repeats']}")
                require(cell["min"] - FLOAT_TOL <= cell["median"]
                        <= cell["max"] + FLOAT_TOL,
                        f"row {i} cell '{key}' median outside [min, max]")
            else:
                require(isinstance(cell, str),
                        f"row {i} cell '{key}' is neither summary nor string")


def validate_fig8(doc):
    for i, row in enumerate(doc["rows"]):
        for key in ("msg_bytes", "gravel_gbs", "spsc_gbs", "mpmc_gbs",
                    "gravel_lines_per_msg", "padded_lines_per_msg"):
            require(key in row, f"fig8 row {i} missing '{key}'")
        require(cell_median(row, "msg_bytes") > 0,
                f"fig8 row {i}: msg_bytes must be positive")
        require(cell_median(row, "gravel_gbs") > 0,
                f"fig8 row {i}: gravel queue measured zero throughput")
        if doc["schema_version"] >= 4:
            # Profiler-overhead evidence: the profiled measurement ran and
            # is the same order of magnitude as the plain one. The tight
            # within-a-few-percent claim is made from full-length local runs
            # (DESIGN.md section 15); short smoke windows on loaded CI hosts
            # are too noisy for a 3% gate, so the structural check here only
            # rejects collapse (profiling costing more than half the
            # throughput would be a real regression at any window length).
            prof = cell_median(row, "gravel_gbs_prof")
            plain = cell_median(row, "gravel_gbs")
            require(prof > 0,
                    f"fig8 row {i}: profiled gravel queue measured zero "
                    "throughput")
            require(prof >= 0.5 * plain,
                    f"fig8 row {i}: profiling collapsed throughput "
                    f"({prof} vs {plain} GB/s — continuous profiler is no "
                    "longer cheap on the produce path)")


def validate_agg_lock_discipline(row, where, locks_key, dests_key):
    locks = cell_median(row, locks_key)
    dests = cell_median(row, dests_key)
    require(locks <= dests + FLOAT_TOL,
            f"{where}: aggregator lock discipline violated — "
            f"{locks_key} = {locks} > {dests_key} = {dests} "
            "(slot-batched routing must take at most one lock per distinct "
            "destination per slot)")


def validate_fig12_scale_row(row, i):
    """Large-N sweep rows (marker cell `scale_nodes`): absolute points, not
    self-relative speedups — validated for the DESIGN.md-14 honesty claims
    instead: lock discipline, conservation-validated runs, and sane
    footprint/timeout evidence (flatness across points is checked after all
    rows are seen)."""
    where = f"fig12 scale row {i} ({row.get('workload', '?')})"
    nodes = cell_median(row, "scale_nodes")
    require(nodes >= 2, f"{where}: scale_nodes = {nodes} is not a sweep point")
    require(cell_median(row, "validated") == 1.0,
            f"{where}: functional run failed validation/conservation")
    validate_agg_lock_discipline(
        row, where, "agg_locks_per_slot", "agg_dests_per_slot")
    per_node = cell_median(row, "agg_resident_bytes_per_node")
    require(per_node >= 0.0,
            f"{where}: agg_resident_bytes_per_node = {per_node} is negative")
    # Timer-wheel honesty: entries examined track traffic, never the old
    # nodes-x-ticks full scan. 8 messages + 4N constant mirrors
    # tests/test_scale.cpp's bound.
    scanned = cell_median(row, "agg_timeout_scanned")
    msgs = cell_median(row, "net_messages")
    require(scanned <= 8 * msgs + 4 * nodes,
            f"{where}: agg_timeout_scanned = {scanned} exceeds the "
            f"O(expired) bound for {msgs} messages at {nodes} nodes "
            "(timeout maintenance is scanning like O(N) again)")


def validate_fig12_scale_flatness(scale_rows):
    """The tentpole claim across points: per-node resident buffer bytes must
    not grow with the node count. Compare each workload's points pairwise
    with generous (4x + 256 B) slack for allocator rounding — the eager
    design differed by orders of magnitude."""
    by_workload = {}
    for i, row in scale_rows:
        by_workload.setdefault(row["workload"], []).append(
            (cell_median(row, "scale_nodes"),
             cell_median(row, "agg_resident_bytes_per_node")))
    for workload, points in by_workload.items():
        points.sort()
        base_nodes, base = points[0]
        for nodes, per_node in points[1:]:
            require(per_node <= 4.0 * base + 256.0,
                    f"fig12 scale ({workload}): resident bytes/node grew "
                    f"from {base} at {base_nodes:.0f} nodes to {per_node} "
                    f"at {nodes:.0f} nodes — per-destination buffers are "
                    "not demand-paged anymore")


def validate_fig12(doc):
    saw_workload = saw_geomean = False
    scale_rows = []
    for i, row in enumerate(doc["rows"]):
        require("workload" in row, f"fig12 row {i} missing 'workload'")
        if row["workload"] == "geomean":
            saw_geomean = True
            continue
        if "scale_nodes" in row:
            scale_rows.append((i, row))
            validate_fig12_scale_row(row, i)
            continue
        saw_workload = True
        sp1 = cell_median(row, "speedup_1")
        require(abs(sp1 - 1.0) < 1e-6,
                f"fig12 row {i} ({row['workload']}): speedup_1 = {sp1}, "
                "expected exactly 1 (self-relative)")
        for key in row:
            if not key.startswith("agg_locks_per_slot_"):
                continue
            n = key[len("agg_locks_per_slot_"):]
            validate_agg_lock_discipline(
                row, f"fig12 row {i} ({row['workload']}, {n} nodes)",
                key, f"agg_dests_per_slot_{n}")
        require(any(k.startswith("agg_locks_per_slot_") for k in row),
                f"fig12 row {i} ({row['workload']}) records no aggregator "
                "lock statistics")
    require(saw_workload, "fig12 has no workload rows")
    require(saw_geomean, "fig12 has no geomean row")
    if scale_rows:
        validate_fig12_scale_flatness(scale_rows)


def validate_table5(doc):
    for i, row in enumerate(doc["rows"]):
        require("workload" in row, f"table5 row {i} missing 'workload'")
        pct = cell_median(row, "remote_pct")
        require(0.0 <= pct <= 100.0,
                f"table5 row {i} ({row['workload']}): remote_pct = {pct} "
                "outside [0, 100]")
        validate_agg_lock_discipline(
            row, f"table5 row {i} ({row['workload']})",
            "agg_locks_per_slot", "agg_dests_per_slot")
        if doc["schema_version"] >= 2:
            validate_table5_latency(row, i)
        if doc["schema_version"] >= 3:
            validate_table5_timeseries(row, i)
        if doc["schema_version"] >= 4:
            validate_table5_profiler(row, i)


def validate_table5_latency(row, i):
    """Schema-v2 per-stage latency columns: present, ordered, sampled."""
    where = f"table5 row {i} ({row.get('workload', '?')})"
    require(cell_median(row, "lat_samples") > 0,
            f"{where}: traced bench run attributed no latency samples")
    pairs = [("lat_e2e_p50_ns", "lat_e2e_p99_ns")]
    pairs += [(f"lat_p50_ns_{t}", f"lat_p99_ns_{t}") for t in LAT_TRANSITIONS]
    for p50_key, p99_key in pairs:
        p50 = cell_median(row, p50_key)
        p99 = cell_median(row, p99_key)
        require(p50 >= 0.0, f"{where}: {p50_key} = {p50} is negative")
        require(p99 + FLOAT_TOL >= p50,
                f"{where}: {p99_key} = {p99} < {p50_key} = {p50} "
                "(quantiles out of order)")


def validate_table5_timeseries(row, i):
    """Schema-v3 serving columns: the windowed collector really collected,
    and the rate roll-up is internally consistent (peak >= sustained >= 0)."""
    where = f"table5 row {i} ({row.get('workload', '?')})"
    require(cell_median(row, "ts_windows") >= 1,
            f"{where}: time-series collector took no windows during a "
            "traced bench run")
    p50 = cell_median(row, "ts_msgs_per_s_p50")
    peak = cell_median(row, "ts_msgs_per_s_peak")
    require(p50 >= 0.0, f"{where}: ts_msgs_per_s_p50 = {p50} is negative")
    require(peak + FLOAT_TOL >= p50,
            f"{where}: ts_msgs_per_s_peak = {peak} < ts_msgs_per_s_p50 = "
            f"{p50} (peak window slower than the median window)")


def validate_table5_profiler(row, i):
    """Schema-v4 CPU-efficiency columns from the continuous profiler: the
    traced run attributed cycles, and the derived ratios are sane. Absolute
    values are host-dependent, so only structural invariants are gated."""
    where = f"table5 row {i} ({row.get('workload', '?')})"
    cpu = cell_median(row, "cpu_ns_per_msg")
    require(cpu > 0.0,
            f"{where}: cpu_ns_per_msg = {cpu} — the profiled bench run "
            "attributed no busy time (is the profiler wired into the "
            "traced bench config?)")
    share = cell_median(row, "lock_wait_share")
    # A ratio, not a fraction: the numerator is process-wide named-mutex
    # wait time, which includes threads outside the region-instrumented set
    # (e.g. simulated-device workers contending on the CPU heap mutex), so
    # values above 1 are legitimate on contended runs. Only sign is gated.
    require(share >= 0.0, f"{where}: lock_wait_share = {share} is negative")


VALIDATORS = {
    "fig8": validate_fig8,
    "fig12": validate_fig12,
    "table5": validate_table5,
}


def validate(doc):
    validate_structure(doc)
    VALIDATORS[doc["bench"]](doc)


# --- entry points -----------------------------------------------------------

def check_files(paths):
    ok = True
    for path in paths:
        try:
            with open(path) as f:
                doc = json.load(f)
            validate(doc)
            print(f"run_benches: {path}: OK "
                  f"(bench={doc['bench']}, mode={doc['mode']}, "
                  f"repeats={doc['repeats']}, rows={len(doc['rows'])})")
        except (OSError, json.JSONDecodeError, ValidationError) as e:
            print(f"run_benches: {path}: FAIL: {e}", file=sys.stderr)
            ok = False
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced-size pinned config (CI), 1 repeat default")
    ap.add_argument("--check", nargs="+", metavar="FILE",
                    help="revalidate existing summary files; run nothing")
    ap.add_argument("--repeats", type=int, default=None,
                    help="repeats per bench (default: 3 full, 1 smoke)")
    ap.add_argument("--build-dir", default=os.path.join(REPO_ROOT, "build"),
                    help="CMake build directory (default: <repo>/build)")
    ap.add_argument("--out-dir", default=REPO_ROOT,
                    help="where BENCH_<name>.json summaries are written "
                         "(default: repo root)")
    ap.add_argument("--benches", default=",".join(BENCHES),
                    help=f"comma-separated subset of: {','.join(BENCHES)}")
    args = ap.parse_args()

    if args.check:
        sys.exit(check_files(args.check))

    names = [n for n in args.benches.split(",") if n]
    for n in names:
        if n not in BENCHES:
            fail(f"unknown bench '{n}' (choose from {','.join(BENCHES)})")
    mode = "smoke" if args.smoke else "full"
    repeats = args.repeats if args.repeats else (1 if args.smoke else 3)
    if repeats < 1:
        fail("--repeats must be >= 1")

    os.makedirs(args.out_dir, exist_ok=True)
    written = []
    for name in names:
        try:
            doc = run_bench(name, args.build_dir, mode, repeats)
            validate(doc)
        except ValidationError as e:
            fail(f"{name}: {e}")
        out = os.path.join(args.out_dir, f"BENCH_{name}.json")
        with open(out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
        written.append(out)
        print(f"run_benches: wrote {out}")

    # Re-read and re-validate what landed on disk, so the emit and check
    # paths cannot drift apart.
    sys.exit(check_files(written))


if __name__ == "__main__":
    main()
