#!/usr/bin/env python3
"""Paper-scale benchmark of mroam: one workload per invocation.

    python3 perfbench/run.py --workload plan-nyc|replan-sg|serve-mmap \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the runner (perfbench/CMakeLists.txt,
which compiles the library from src/) into .bench_build/, runs a fixed,
seeded amount of work, checks its outputs, and prints every metric by name
with its unit. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
--trace 0 reports the end-to-end metrics; --trace 1 reruns the workload
with spans recorded and reports the per-layer metrics, writing the spans
to .bench_out/trace-<workload>-<seed>.json. See perfbench/NOTES.md.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import harness  # noqa: E402

WORKLOADS = ("plan-nyc", "replan-sg", "serve-mmap")

# Fixed work per run: a unit count that follows --seconds at the nominal
# cost of a unit (1.7-3 s per market and 0.5-1 s per day on a 4-vCPU Xeon
# VM, depending on the host's load; serve-mmap sends at one fixed rate,
# about half the ~300 contracts/s this server sustains there with every
# batch still one contract), but
# never fewer units than the reported percentiles need: 20 for a median,
# 1000 for serve-mmap's per-layer p99s (NOTES.md).
MIN_UNITS = {"plan-nyc": 20, "replan-sg": 20, "serve-mmap": 1000}
NOMINAL_UNITS_PER_S = {"plan-nyc": 1 / 2.8, "replan-sg": 1.0}
SERVE_RATE_PER_S = 150.0

# A run must end within 180 s, or 900 s when it also builds; the passes
# after the build share what is left of RUN_BUDGET_S.
BUILD_TIMEOUT_S = 700
RUN_BUDGET_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def work_units(workload, seconds):
    """Timed units for a run of `seconds`: a function of the arguments
    only, never of how fast the machine is."""
    per_second = NOMINAL_UNITS_PER_S.get(workload, SERVE_RATE_PER_S)
    return max(MIN_UNITS[workload], int(math.ceil(seconds * per_second)))


def build(root):
    """Configures and builds the runner; returns its path."""
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        command = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                   build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        subprocess.run(command, check=True, stdout=sys.stderr,
                       timeout=max(1.0, deadline - time.monotonic()))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench_runner",
         "-j", str(min(4, os.cpu_count() or 1))],
        check=True, stdout=sys.stderr,
        timeout=max(1.0, deadline - time.monotonic()))
    return os.path.join(build_dir, "perfbench_runner")


def run_binary(runner, args, deadline):
    subprocess.run([runner] + args, check=True, stdout=sys.stderr,
                   timeout=max(1.0, deadline - time.monotonic()))


def run_workload(runner, out_dir, workload, seed, units, trace_path,
                 deadline):
    """One pass of the workload; returns its raw result. With
    `trace_path`, spans go to that file (and, for serve-mmap, the offline
    snapshot step's spans to a sibling file)."""
    result_path = os.path.join(out_dir, "raw-%s-%d.json" % (workload, seed))
    if os.path.exists(result_path):
        os.remove(result_path)
    args = ["--workload", workload, "--seed", str(seed), "--units",
            str(units), "--out", result_path]
    if workload == "serve-mmap":
        snapshot = os.path.join(out_dir, "nyc.snap")
        prepare = ["--prepare-snapshot", snapshot]
        if trace_path:
            prepare += ["--trace-out", trace_path + ".prepare"]
        run_binary(runner, prepare, deadline)
        args += ["--snapshot", snapshot, "--rate", str(SERVE_RATE_PER_S)]
    if trace_path:
        args += ["--trace-out", trace_path]
    run_binary(runner, args, deadline)
    with open(result_path) as handle:
        return json.load(handle)


def load_ledger(path):
    if not os.path.exists(path):
        return {}
    with open(path) as handle:
        return json.load(handle)


def save_ledger(path, ledger):
    temp = path + ".tmp"
    with open(temp, "w") as handle:
        json.dump(ledger, handle, indent=1, sort_keys=True)
    os.replace(temp, path)


def print_self_time(trace_paths):
    events = []
    for path in trace_paths:
        if os.path.exists(path):
            with open(path) as handle:
                events += json.load(handle)["traceEvents"]
    totals = harness.self_time_by_layer(events)
    grand = sum(t[0] for t in totals.values()) or 1.0
    print("self time by layer (traced run):")
    print("  %-10s %10s %7s %8s" % ("layer", "self_s", "share", "spans"))
    for layer, (seconds, count) in totals.items():
        print("  %-10s %10.4f %6.1f%% %8d"
              % (layer, seconds, 100.0 * seconds / grand, count))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("run.py: no mroam sources under %s/src; run it from the "
            "repository root" % root)
        return 2
    try:
        runner = build(root)
    except (subprocess.SubprocessError, OSError) as error:
        log("run.py: build failed: %s" % error)
        return 1

    deadline = time.monotonic() + RUN_BUDGET_S
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    units = work_units(args.workload, args.seconds)
    ledger_path = os.path.join(out_dir, "exact_counts.json")
    ledger = load_ledger(ledger_path)
    key = "%s|%d|%d|%s" % (args.workload, args.seed, units,
                           harness.code_hash(root, ("src", "perfbench")))
    entry = ledger.setdefault(key, {})

    guard = []
    try:
        if args.trace:
            # obs.trace_overhead needs the untraced median at this seed; an
            # earlier untraced run of the same code records it.
            untraced = entry.get("latency_ms.p50")
            if untraced is None:
                plain = run_workload(runner, out_dir, args.workload,
                                     args.seed, units, None, deadline)
                untraced = harness.end_to_end_metrics(plain)[0][
                    "latency_ms.p50"]
                guard += harness.guard_exact(plain["exact"],
                                             entry.get("exact", {}))
                entry.setdefault("exact", plain["exact"])
                entry["latency_ms.p50"] = untraced
            trace_path = os.path.join(
                out_dir, "trace-%s-%d.json" % (args.workload, args.seed))
            raw = run_workload(runner, out_dir, args.workload, args.seed,
                               units, trace_path, deadline)
        else:
            raw = run_workload(runner, out_dir, args.workload, args.seed,
                               units, None, deadline)
    except (subprocess.SubprocessError, OSError, ValueError) as error:
        log("run.py: %s run failed: %s" % (args.workload, error))
        return 1
    if raw["attempted"] < 1 or not raw["unit_ms"]:
        log("run.py: %s did no work: %s" % (args.workload, raw["failures"]))
        return 1

    try:
        e2e, tail = harness.end_to_end_metrics(raw)
    except ValueError as error:
        log("run.py: %s: %s; %s" % (args.workload, error, raw["failures"]))
        return 1
    guard += harness.guard_exact(raw["exact"], entry.get("exact", {}))
    entry.setdefault("exact", raw["exact"])
    if not args.trace:
        entry["latency_ms.p50"] = e2e["latency_ms.p50"]
    save_ledger(ledger_path, ledger)

    attempted, failed = harness.account(raw, guard)
    for message in raw["failures"] + guard:
        log("FAILED: " + message)
    print("workload %s seed %d: %d units (tail = p%d), %d attempted, "
          "%d failed" % (args.workload, args.seed, len(raw["unit_ms"]), tail,
                         attempted, failed))
    print("exact counts: " + json.dumps(raw["exact"], sort_keys=True))
    if args.trace:
        metrics = harness.per_layer_metrics(
            raw, e2e["latency_ms.p50"] / untraced)
        units_of = dict(harness.PER_LAYER)
        print_self_time([trace_path, trace_path + ".prepare"])
    else:
        metrics = e2e
        units_of = dict(harness.END_TO_END)
    for name, value in metrics.items():
        print("  %-32s %14.6g %s" % (name, value, units_of[name]))
    print(json.dumps(harness.format_result(
        failed == 0, attempted, failed, metrics, units_of)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
