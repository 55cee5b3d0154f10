"""Statistics and bookkeeping of the benchmark, kept free of I/O so the
self-tests in perfbench/tests can exercise them directly.

The runner binary writes raw samples; everything reported is derived here:
percentiles (only where enough samples support them), set-up medians,
attempted/failed accounting and the exact-count determinism guard.
"""

import hashlib
import os
import re
import statistics

# Metric names: a letter or digit, then letters, digits, '_', '.', '-'.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# A percentile is reported only when at least this many samples lie
# beyond it.
MIN_SAMPLES_BEYOND = 10

# Candidate tail percentiles, highest first. No p99: on a shared host a
# few vCPU stalls of 5-20 ms per run land above the p99 of a serve-mmap
# run, so that p99 counts the host's stalls rather than the server's work.
# Ten runs of identical code spread it by 38 % of its median, against 6 %
# for the p90 (NOTES.md). The p99 stays a per-layer metric
# (serve.latency_ms.p99), where it has no bound.
TAIL_LADDER = (90, 50)

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.tail", "ms"),
    ("throughput_per_s", "1/s"),
    ("payment_kept", "ratio"),
)

PER_LAYER = (
    ("influence.build_s", "s"),
    ("influence.postings", "count"),
    ("io.snapshot_bytes", "B"),
    ("io.mmap_map_s", "s"),
    ("cindex.bytes_per_posting", "B/posting"),
    ("greedy.s", "s"),
    ("greedy.deltas", "count"),
    ("greedy.lazy_hit_ratio", "ratio"),
    ("bls.search_s", "s"),
    ("bls.deltas_evaluated", "count"),
    ("bls.moves_applied", "count"),
    ("bls.sweeps", "count"),
    ("bls.apply_ratio", "ratio"),
    ("market.day_ms.incremental", "ms"),
    ("market.day_ms.full", "ms"),
    ("market.fallbacks", "count"),
    ("market.reoptimized_share", "ratio"),
    ("market.boards_touched_per_day", "count"),
    ("serve.post_ms.p50", "ms"),
    ("serve.post_ms.p99", "ms"),
    ("serve.latency_ms.p99", "ms"),
    ("serve.stage.queue_wait_ms.p50", "ms"),
    ("serve.stage.replan_ms.p50", "ms"),
    ("serve.stage.replan_ms.p99", "ms"),
    ("serve.batch_size.mean", "count"),
    ("serve.polls_per_commit", "count"),
    ("serve.shed_total", "count"),
    ("serve.http_errors", "count"),
    ("serve.gen_late_ms.p99", "ms"),
    ("obs.trace_overhead", "ratio"),
)


def samples_beyond(count, pct):
    """Samples strictly above the pct-th percentile of `count` samples."""
    return (count * (100 - pct)) // 100


def supported(count, pct):
    return samples_beyond(count, pct) >= MIN_SAMPLES_BEYOND


def tail_percentile(count):
    """The highest percentile of TAIL_LADDER the sample count supports, or
    None when not even the median has ten samples beyond it."""
    for pct in TAIL_LADDER:
        if supported(count, pct):
            return pct
    return None


def percentile(values, pct):
    """The pct-th percentile (linear interpolation between closest ranks).
    Raises ValueError when fewer than ten samples lie beyond it."""
    if not supported(len(values), pct):
        raise ValueError(
            "p%d of %d samples has fewer than %d beyond it"
            % (pct, len(values), MIN_SAMPLES_BEYOND))
    if pct == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def percentile_or_zero(values, pct):
    """Per-layer series: 0 when the workload has no such samples."""
    return percentile(values, pct) if values else 0.0


def guard_exact(current, recorded):
    """Compares this run's exact counts with the counts a previous run of
    the same code, workload, seed and size recorded. Returns one message
    per count that differs."""
    return [
        "%s: %d here, %d in an earlier run at this seed"
        % (name, value, recorded[name])
        for name, value in sorted(current.items())
        if name in recorded and recorded[name] != value
    ]


def account(raw, guard_failures):
    """Attempted/failed accounting. Every timed unit and every output check
    counts as attempted; each failure message is one failed operation. The
    determinism guard is one more operation, failed by any mismatch."""
    attempted = int(raw["attempted"]) + 1
    failed = len(raw["failures"]) + (1 if guard_failures else 0)
    return attempted, failed


def end_to_end_metrics(raw):
    """The end-to-end metrics of one untraced run, from its raw result."""
    units = raw["unit_ms"]
    tail = tail_percentile(len(units))
    if tail is None:
        raise ValueError(
            "%d timed units cannot support a median" % len(units))
    values = {
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "latency_ms.p50": percentile(units, 50),
        "latency_ms.tail": percentile(units, tail),
        "throughput_per_s": len(units) / raw["timed_wall_s"],
        "payment_kept": 1.0 - raw["regret"] / raw["payment"],
    }
    return values, tail


def per_layer_metrics(raw, trace_overhead):
    """Every per-layer metric. Layers a workload bypasses read 0."""
    values = {name: 0.0 for name, _ in PER_LAYER}
    values.update(raw["layer"])
    series = raw["series"]
    values["serve.post_ms.p50"] = percentile_or_zero(
        series.get("serve.post_ms", []), 50)
    values["serve.post_ms.p99"] = percentile_or_zero(
        series.get("serve.post_ms", []), 99)
    if "serve.post_ms" in series:
        values["serve.latency_ms.p99"] = percentile(raw["unit_ms"], 99)
    values["serve.gen_late_ms.p99"] = percentile_or_zero(
        series.get("serve.gen_late_ms", []), 99)
    values["obs.trace_overhead"] = trace_overhead
    unknown = set(values) - {name for name, _ in PER_LAYER}
    if unknown:
        raise ValueError("undeclared per-layer metrics: %s" % sorted(unknown))
    return values


def self_time_by_layer(trace_events):
    """Summed self time (seconds) and span count per layer (the trace
    event's category), in first-seen order."""
    totals = {}
    for event in trace_events:
        slot = totals.setdefault(event["cat"], [0.0, 0])
        slot[0] += event["args"]["self_us"] * 1e-6
        slot[1] += 1
    return totals


def code_hash(root, dirs):
    """Digest of every regular file under `dirs` (relative to `root`): the
    determinism guard compares only runs of identical code."""
    digest = hashlib.sha256()
    for top in dirs:
        for base, subdirs, files in os.walk(os.path.join(root, top)):
            subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def format_result(correct, attempted, failed, metrics, units):
    """The final stdout line: {"correct", "attempted", "failed",
    "metrics": {name: {"value", "unit"}}}."""
    for name in metrics:
        if not METRIC_NAME.match(name):
            raise ValueError("bad metric name %r" % name)
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
