"""Reductions from the driver's raw records to the benchmark's metrics.

Pure functions over plain lists and dicts, so test_analysis.py can check
them on hand-made series as well as on a real traced run.
"""

from statistics import median

# A probe sample, summed over nodes (driver.cpp, takeSample):
T, RESERVED, SLOTS, ROUTED, RESOLVED, INFLIGHT = range(6)

# Reported in place of a Little's-law wait when the probe saw no traffic in
# the layer: nothing passed through it, or no sample ever found it occupied.
NO_TRAFFIC = "no traffic"

# Phases must sum to the traced run's run_s within this much. The probe's
# first and last samples bracket the timed call, so the gap is the cost of
# two samples; anything larger means an interval was lost or counted twice.
PHASE_TOLERANCE_REL = 0.01
PHASE_TOLERANCE_ABS_S = 0.001

END_TO_END = [
    ("run_s", "s"),
    ("msgs_per_s", "msgs/s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]

# Exact counts from Cluster::runStats() (driver field, metric, unit).
COUNTS = [
    ("lanes", "simt.lanes", "count"),
    ("workgroups", "simt.workgroups", "count"),
    ("collective_ops", "simt.collective_ops", "count"),
    ("predication_ops", "simt.predication_ops", "count"),
    ("agg_slots", "queue.slots", "count"),
    ("rounds", "runtime.rounds", "count"),
    ("net_batches", "net.batches", "count"),
    ("net_msgs", "net.msgs", "count"),
    ("lat_samples", "obs.trace_samples", "count"),
]

# Counts the traced run must reproduce exactly: proof both did the same work.
SAME_WORK = ["lanes", "collective_ops", "net_msgs"]

PER_LAYER = [(metric, unit) for _, metric, unit in COUNTS] + [
    ("queue.msgs_per_slot", "msgs"),
    ("runtime.agg.locks_per_slot", "count"),
    ("runtime.agg.dests_per_slot", "count"),
    ("net.batch_bytes_mean", "B"),
    ("setup.input_s", "s"),
    ("setup.cluster_s", "s"),
    ("trace.run_s", "s"),
    ("runtime.phase.enqueue_s", "s"),
    ("runtime.phase.drain_s", "s"),
    ("runtime.phase.host_s", "s"),
    ("queue.backlog_slots_mean", "slots"),
    ("queue.wait_us", "us"),
    ("runtime.agg.buffered_msgs_mean", "msgs"),
    ("runtime.agg.wait_us", "us"),
    ("net.inflight_msgs_mean", "msgs"),
    ("net.wait_us", "us"),
    ("simt.ns_per_lane", "ns"),
    ("simt.ns_per_collective", "ns"),
    ("queue.ns_per_slot", "ns"),
    ("net.ns_per_batch", "ns"),
    ("simt.busy_est_s", "s"),
    ("queue.busy_est_s", "s"),
    ("net.busy_est_s", "s"),
    ("obs.bench_overhead", "ratio"),
    ("obs.shipped_overhead", "ratio"),
    ("obs.rss_delta_mb", "MB"),
]


def tail_percentile(values):
    """Highest of p50/p75/p90/p95/p99 with at least ten samples beyond it,
    as (p, value), or None when the run count supports no tail."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for p in (50, 75, 90, 95, 99):
        rank = int(p / 100 * n)  # samples at or below the percentile
        if n - rank - 1 >= 10:
            best = (p, ordered[rank])
    return best


def run_failure(run, reference=None):
    """Why a run counts as failed, or None. A run fails when it threw,
    failed the app's validation, or broke conservation (driver.cpp), and a
    traced run also when its exact counts differ from the untraced runs'."""
    if not run["ok"]:
        return run["error"]
    if reference is not None:
        for key in SAME_WORK:
            if run[key] != reference[key]:
                return "traced %s %d != untraced %d" % (key, run[key],
                                                         reference[key])
    return None


def end_to_end(runs, peak_rss_mb):
    """End-to-end metrics over the successful runs of one process."""
    good = [r for r in runs if r["ok"]]
    return {
        "run_s": median([r["run_s"] for r in good]),
        "msgs_per_s": median([r["net_msgs"] / r["run_s"] for r in good]),
        "setup_s": median([r["input_s"] + r["cluster_s"] for r in good]),
        "cpu_s": median([r["cpu_s"] for r in good]),
        "peak_rss_mb": peak_rss_mb,
    }


def _mean_over_time(samples, level):
    """Time-weighted mean of level(sample), trapezoid rule."""
    span = samples[-1][T] - samples[0][T]
    if span <= 0:
        return 0.0
    area = 0.0
    for a, b in zip(samples, samples[1:]):
        area += 0.5 * (level(a) + level(b)) * (b[T] - a[T])
    return area / span


def little_wait_us(samples, level, moved):
    """Little's law W = L / lambda over the traced span, in microseconds.
    L is the time-weighted occupancy level(sample), lambda the rate of
    `moved` (a sample field that counts items leaving the layer). Returns
    (mean occupancy, wait) with NO_TRAFFIC for the wait when there is
    nothing to divide."""
    span = samples[-1][T] - samples[0][T]
    throughput = samples[-1][moved] - samples[0][moved]
    occupancy = _mean_over_time(samples, level)
    seen = any(level(s) > 0 for s in samples)
    if span <= 0 or throughput <= 0 or not seen:
        return occupancy, NO_TRAFFIC
    return occupancy, occupancy / (throughput / span) * 1e6


def queue_backlog(s):
    return max(0.0, s[RESERVED] - s[SLOTS])


def agg_buffered(s):
    # Counters are read one after another, not as one snapshot; a message
    # resolved between two reads must not make the level negative.
    return max(0.0, s[ROUTED] - s[RESOLVED] - s[INFLIGHT])


def net_inflight(s):
    return max(0.0, s[INFLIGHT])


def pipeline_backlog(s):
    """Messages anywhere between the GPU queue and their resolution."""
    return queue_backlog(s) + max(0.0, s[ROUTED] - s[RESOLVED])


def phase_split(samples):
    """Splits the traced span into enqueue / drain / host seconds. Each
    probe interval goes to enqueue when reservations advanced over it, else
    to drain when the pipeline held a backlog at its start, else to host."""
    phases = {"enqueue": 0.0, "drain": 0.0, "host": 0.0}
    for a, b in zip(samples, samples[1:]):
        dt = b[T] - a[T]
        if b[RESERVED] > a[RESERVED]:
            phases["enqueue"] += dt
        elif pipeline_backlog(a) > 0:
            phases["drain"] += dt
        else:
            phases["host"] += dt
    return phases


def phase_sum_ok(phases, run_s):
    total = sum(phases.values())
    return abs(total - run_s) <= PHASE_TOLERANCE_REL * run_s + \
        PHASE_TOLERANCE_ABS_S


WAITS = ("queue.wait_us", "runtime.agg.wait_us", "net.wait_us")


def split_failure(run):
    """Why a traced run's layer split cannot be trusted, or None: its
    phases must cover the timed span and no Little's-law wait may be
    negative."""
    phases = phase_split(run["samples"])
    if not phase_sum_ok(phases, run["run_s"]):
        return "phases sum to %.6f s, run_s %.6f s" % (
            sum(phases.values()), run["run_s"])
    derived = traced_layers(run)
    for key in WAITS:
        if derived[key] != NO_TRAFFIC and derived[key] < 0:
            return "%s = %g < 0" % (key, derived[key])
    return None


def traced_layers(run):
    """Per-layer metrics derived from one traced run's probe series."""
    s = run["samples"]
    phases = phase_split(s)
    q_mean, q_wait = little_wait_us(s, queue_backlog, SLOTS)
    a_mean, a_wait = little_wait_us(s, agg_buffered, ROUTED)
    n_mean, n_wait = little_wait_us(s, net_inflight, RESOLVED)
    return {
        "trace.run_s": run["run_s"],
        "runtime.phase.enqueue_s": phases["enqueue"],
        "runtime.phase.drain_s": phases["drain"],
        "runtime.phase.host_s": phases["host"],
        "queue.backlog_slots_mean": q_mean,
        "queue.wait_us": q_wait,
        "runtime.agg.buffered_msgs_mean": a_mean,
        "runtime.agg.wait_us": a_wait,
        "net.inflight_msgs_mean": n_mean,
        "net.wait_us": n_wait,
    }


def _ratio(num, den):
    return num / den if den else 0.0


def layer_counts(run):
    """Exact counts and the ratios between them, from one run's stats."""
    out = {metric: run[field] for field, metric, _ in COUNTS}
    slots = run["agg_slots"]
    out["queue.msgs_per_slot"] = _ratio(run["net_msgs"], slots)
    out["runtime.agg.locks_per_slot"] = _ratio(run["agg_locks"], slots)
    out["runtime.agg.dests_per_slot"] = _ratio(run["agg_dests"], slots)
    out["net.batch_bytes_mean"] = run["batch_bytes_mean"]
    return out


def busy_estimates(counts, units, nodes):
    """count x isolated unit cost / nodes: the least time each layer needs
    when its nodes run in parallel and nothing waits."""
    simt_ns = counts["simt.lanes"] * units["simt.ns_per_lane"] + \
        counts["simt.collective_ops"] * units["simt.ns_per_collective"]
    return {
        "simt.busy_est_s": simt_ns / nodes * 1e-9,
        "queue.busy_est_s":
            counts["queue.slots"] * units["queue.ns_per_slot"] / nodes * 1e-9,
        "net.busy_est_s":
            counts["net.batches"] * units["net.ns_per_batch"] / nodes * 1e-9,
    }


def median_of_dicts(dicts):
    """Key-wise median over the runs that measured the key; NO_TRAFFIC
    only when no run did."""
    out = {}
    for key in dicts[0]:
        values = [d[key] for d in dicts if d[key] != NO_TRAFFIC]
        out[key] = median(values) if values else NO_TRAFFIC
    return out
