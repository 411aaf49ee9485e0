#!/usr/bin/env python3
"""Wall-clock benchmark of Gravel's functional pipeline.

    python3 perfbench/run.py --workload sssp --seed 7 --seconds 20 --trace 0

Run from the repository root. Builds perfbench/ (and the runtime sources it
compiles) into .bench_build on first use, runs one workload in a child
process, checks every run's output, and prints a report followed by one
JSON line: the end-to-end metrics with --trace 0, the per-layer split with
--trace 1. Raw records and observability dumps go to .bench_out/.
See perfbench/README.md for the workloads and how to read the numbers.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median

import analysis as an

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
BINARY = BUILD / "gravel_perfbench"
CHILD_TIMEOUT_S = 170

WORKLOADS = ["gups", "sssp", "color", "sssp_observed"]
# The obs-off twin each workload's shipped-observability cost is measured
# against; a workload that ships obs off is its own twin.
OBS_TWIN = {"sssp_observed": "sssp"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "runtime" / "cluster.hpp").is_file():
        raise SystemExit("perfbench: no runtime sources under %s/src; run "
                         "from a full checkout" % ROOT)
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j",
                    str(os.cpu_count() or 1)], stdout=sys.stderr, check=True)


def child_env():
    """The caller's environment minus every GRAVEL_* variable: the Cluster
    constructor honours several (profiling, trace sampling, fault
    injection, status port, time series), and the driver refuses to start
    with any of them set."""
    scrubbed = sorted(k for k in os.environ if k.startswith("GRAVEL_"))
    if scrubbed:
        log("perfbench: ignoring inherited %s" % ", ".join(scrubbed))
    return {k: v for k, v in os.environ.items() if not k.startswith("GRAVEL_")}


def drive(mode, workload, seed, seconds, out_dir):
    """Runs the driver once in its own process; returns its raw record."""
    out_dir.mkdir(parents=True, exist_ok=True)
    raw = out_dir / "raw.json"
    subprocess.run([str(BINARY), mode, "--workload", workload,
                    "--seed", str(seed), "--seconds", repr(seconds),
                    "--out", str(raw), "--artifact-dir", str(out_dir)],
                   env=child_env(), check=True, timeout=CHILD_TIMEOUT_S)
    with open(raw) as f:
        return json.load(f)


def check_runs(runs):
    """(attempted, failure messages) for a list of run records."""
    failures = ["run %d: %s" % (i, r["error"])
                for i, r in enumerate(runs) if not r["ok"]]
    return len(runs), failures


def describe_timing(name, values, unit):
    tail = an.tail_percentile(values)
    tail_text = ("p%d %.6g" % tail) if tail else "no tail percentile"
    return "%s: median %.6g %s over %d runs, %s" % (
        name, median(values), unit, len(values), tail_text)


def measure_end_to_end(workload, seed, seconds, out_dir):
    raw = drive("run", workload, seed, seconds, out_dir)
    runs = raw["runs"]
    attempted, failures = check_runs(runs)
    report = [
        "meta: %s" % json.dumps(raw["meta"], sort_keys=True),
        describe_timing("run_s", [r["run_s"] for r in runs], "s"),
        describe_timing("setup_s", [r["input_s"] + r["cluster_s"]
                                    for r in runs], "s"),
        describe_timing("cpu_s", [r["cpu_s"] for r in runs], "s"),
    ]
    good = [r for r in runs if r["ok"]]
    if good:
        values = an.end_to_end(runs, raw["peak_rss_mb"])
    else:
        values = {name: 0.0 for name, _ in an.END_TO_END}
    metrics = {name: (values[name], unit) for name, unit in an.END_TO_END}
    return attempted, failures, metrics, report


def paired_ratio(runs, baseline):
    """Median run_s ratio over the inputs both lists ran successfully
    (records carry their input index; see driver.cpp, inputSeed)."""
    base = {r["input"]: r["run_s"] for r in baseline if r["ok"]}
    ratios = [r["run_s"] / base[r["input"]] for r in runs
              if r["ok"] and r["input"] in base]
    return median(ratios) if ratios else 0.0


def measure_layers(workload, seed, seconds, out_dir):
    raw = drive("trace", workload, seed, seconds, out_dir)
    untraced, traced = raw["runs"], raw["traced"]
    good = [r for r in untraced if r["ok"]]
    attempted, failures = check_runs(untraced)
    attempted += len(traced)

    traced_good = []
    for i, r in enumerate(traced):
        twin = untraced[r["input"]]
        why = an.run_failure(r, twin if twin["ok"] else None) or \
            an.split_failure(r)
        if why is not None:
            failures.append("traced run %d: %s" % (i, why))
        else:
            traced_good.append(r)
    if not good or not traced_good:
        # Every run above is already counted failed; nothing to derive from.
        return attempted, failures, {n: (0.0, u) for n, u in an.PER_LAYER}, \
            ["meta: %s" % json.dumps(raw["meta"], sort_keys=True)]

    values = an.median_of_dicts([dict(an.layer_counts(r),
                                      **an.traced_layers(r))
                                 for r in traced_good])
    units = raw["units"]
    for key in ("simt.ns_per_lane", "simt.ns_per_collective",
                "queue.ns_per_slot", "net.ns_per_batch"):
        values[key] = units[key]
    values.update(an.busy_estimates(values, units,
                                     raw["meta"]["nodes"]))
    values["setup.input_s"] = median([r["input_s"] for r in good])
    values["setup.cluster_s"] = median([r["cluster_s"] for r in good])
    values["obs.bench_overhead"] = paired_ratio(traced_good, untraced)

    twin = OBS_TWIN.get(workload)
    if twin is None:
        values["obs.shipped_overhead"] = 1.0
        values["obs.rss_delta_mb"] = 0.0
    else:
        # Run time pairs each input with its obs-off run in the same
        # process; peak memory needs a process of the twin's own.
        twin_raw = drive("run", twin, seed, 0.1, out_dir / twin)
        for label, runs in (("obs-off", raw["obs_off"]),
                            (twin, twin_raw["runs"])):
            n, twin_failures = check_runs(runs)
            attempted += n
            failures += ["%s %s" % (label, f) for f in twin_failures]
        values["obs.shipped_overhead"] = paired_ratio(untraced,
                                                      raw["obs_off"])
        values["obs.rss_delta_mb"] = raw["peak_rss_mb"] - \
            twin_raw["peak_rss_mb"]

    report = [
        "meta: %s" % json.dumps(raw["meta"], sort_keys=True),
        describe_timing("untraced run_s", [r["run_s"] for r in untraced], "s"),
        describe_timing("traced run_s", [r["run_s"] for r in traced], "s"),
        "phase tolerance: |sum - run_s| <= %g * run_s + %g s" % (
            an.PHASE_TOLERANCE_REL, an.PHASE_TOLERANCE_ABS_S),
        "isolated shapes: %d msgs per queue slot, %d msgs per batch" % (
            units["queue.slot_msgs"], units["net.batch_msgs"]),
    ]
    metrics = {}
    for name, unit in an.PER_LAYER:
        v = values[name]
        if v == an.NO_TRAFFIC:
            report.append("%s: no traffic (reported as 0)" % name)
            v = 0.0
        metrics[name] = (float(v), unit)
    return attempted, failures, metrics, report


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    build()
    measure = measure_layers if args.trace else measure_end_to_end
    out_dir = OUT / ("%s-seed%d-trace%d" % (args.workload, args.seed,
                                             args.trace))
    attempted, failures, metrics, report = measure(
        args.workload, args.seed, args.seconds, out_dir)

    for line in report:
        print(line)
    for name, (value, unit) in metrics.items():
        print("%s = %.6g %s" % (name, value, unit))
    print("failed_frac = %.6g (%d of %d runs)" % (
        len(failures) / attempted, len(failures), attempted))
    for f in failures:
        print("FAILED %s" % f)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    detail = dict(result, report=report, failures=failures)
    (out_dir / "result.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
