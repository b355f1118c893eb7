"""Benchmark runner for the cloning_systems library.

    python3 perfbench/run.py --workload conjugacy --seed 7 --seconds 30 --trace 0

Every workload runs in fresh child processes of perfbench/workloads.py, one
thread each, timed from outside the package.  The last line of standard
output is the result: {"correct", "attempted", "failed", "metrics"}.  The
line before it records the machine, the seed, the sample counts, the
spread of job and set-up times within the run, the raw wall times and the
median host-speed probe.  Times in the result are at the reference host
speed of workloads.PROBE_REFERENCE_S (see workloads.py).

--trace 0 starts job processes while another one still fits in --seconds,
and until at least MIN_UNITS units were attempted; job process j sets up
and runs once the job whose inputs the seed "<seed>/<j>" draws, and
SETUP_EXTRA set-up-only processes follow each one, so that both kinds of
sample spread over the whole run.  It reports the end-to-end metrics:
  setup_s      median set-up time over all processes
  job_s        median time of one job
  unit_ms_p50  median unit latency over every unit timed
  unit_ms_p90  90th percentile unit latency
  peak_rss_mb  median peak resident memory of the job processes
--trace 1 runs processes of job 0, at least two and while another one
still fits in --seconds, that each run the job untraced and then traced.
It reports the per-layer metrics, times as medians over the processes;
the call counts of all of them must agree, and every layer the workload
must reach must show calls.

Exit status 0 when a result was printed, 2 when the library is not found
next to this directory, 1 when a child process failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import tracer
from workloads import HERE, SRC, WORKLOADS

ROOT = os.path.dirname(HERE)
SETUP_EXTRA = 2  # set-up-only processes after each job process
MIN_UNITS = 100

# layers each workload must reach; together they cover every traced name.
# Powers of spine commutators never reduce, so powers skips collapse_at.
COMMON = (
    "trees.expand_at", "trees.expansion_path", "trees.tree_union",
    "trees.removable_carets", "groups.contains", "groups.mul",
    "cloning.clone", "cloning.try_unclone", "cloning.rho", "thompson.mul",
    "thompson.reduce_triple", "thompson.expand_triple", "thompson.Triple.init",
)
REACHES = {
    "conjugacy": COMMON + (
        "trees.collapse_at", "groups.inv", "thompson.Element.inv",
        "analysis.enumerate_fd_ball", "analysis.conjugate_count",
        "analysis.coset_orbit_count",
    ),
    "powers": COMMON + ("thompson.Element.pow",),
    "cantor": COMMON + (
        "trees.collapse_at", "trees.leaf_words", "groups.inv", "thompson.Element.inv",
        "cantor.from_tree_pair", "cantor.PrefixMap.compose",
        "cantor.PrefixMap.equals", "cantor.PrefixMap.invert",
        "cantor.AutomatonElement.is_identity", "cantor.AutomatonElement.step",
    ),
}
END_TO_END = {
    "setup_s": "s", "job_s": "s", "unit_ms_p50": "ms", "unit_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

if set().union(*REACHES.values()) != {name for name, _, _ in tracer.SPANS + tracer.COUNTS}:
    raise RuntimeError("REACHES must cover every traced name")


class RunFailed(RuntimeError):
    """The run cannot give a result."""


def child(workload, seed, mode, job=0):
    """Run workloads.py in a fresh process; returns (its result, its peak RSS in MB)."""
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--job", str(job), "--mode", mode]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not out.strip():
        raise RunFailed(f"{mode} child exited with status {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), usage.ru_maxrss / 1024


def spread(values):
    """Quartile distance over the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def report_failures(failures):
    for line in failures[:20]:
        print(f"failed: {line}", file=sys.stderr)


def untraced(args, info):
    setups, jobs, units, rss, failures = [], [], [], [], []
    setup_walls, job_walls, probes = [], [], []
    attempted = 0
    start = last = time.perf_counter()
    round_s = 0.0  # wall time of the latest job process and its set-up samples
    while last - start + round_s <= args.seconds or attempted < MIN_UNITS:
        res, peak = child(args.workload, args.seed, "job", len(jobs))
        attempted += res["attempted"]
        setups.append(res["setup_s"])
        setup_walls.append(res["setup_wall_s"])
        jobs.append(res["job_s"])
        job_walls.append(res["job_wall_s"])
        probes.append(res["probe_s"])
        units += res["unit_s"]
        rss.append(peak)
        failures += res["failures"]
        for _ in range(SETUP_EXTRA):
            res = child(args.workload, args.seed, "setup", len(jobs) - 1)[0]
            setups.append(res["setup_s"])
            setup_walls.append(res["setup_wall_s"])
        now = time.perf_counter()
        round_s, last = now - last, now
    report_failures(failures)
    if len(units) < MIN_UNITS:
        raise RunFailed(f"only {len(units)} units succeeded; p90 needs {MIN_UNITS}")
    info.update(units=len(units), jobs=len(jobs), setup_samples=len(setups),
                job_s_spread=spread(jobs), setup_s_spread=spread(setups),
                job_wall_s=statistics.median(job_walls), job_wall_s_spread=spread(job_walls),
                setup_wall_s=statistics.median(setup_walls), probe_s=statistics.median(probes))
    values = {
        "setup_s": statistics.median(setups),
        "job_s": statistics.median(jobs),
        "unit_ms_p50": statistics.median(units) * 1e3,
        "unit_ms_p90": statistics.quantiles(units, n=10)[8] * 1e3,
        "peak_rss_mb": statistics.median(rss),
    }
    return attempted, len(failures), values, END_TO_END, True


def traced(args, info):
    runs = []
    start = last = time.perf_counter()
    round_s = 0.0
    while len(runs) < 2 or last - start + round_s <= args.seconds:
        runs.append(child(args.workload, args.seed, "trace")[0])
        now = time.perf_counter()
        round_s, last = now - last, now
    first = runs[0]["metrics"]
    correct = True
    counts = [k for k in first if k.endswith(".calls") or k == "thompson.mul.carets_grafted"]
    differ = [k for k in counts if any(r["metrics"][k] != first[k] for r in runs)]
    if differ:
        print(f"counts differ between traced runs: {differ}", file=sys.stderr)
        correct = False
    silent = [n for n in REACHES[args.workload] if first[n + ".calls"] == 0]
    if silent:
        print(f"layers read zero calls: {silent}", file=sys.stderr)
        correct = False
    for r in runs:
        report_failures(r["failures"])
    # counts are equal in every run; times are medians over the runs
    values = {k: statistics.median(r["metrics"][k] for r in runs) for k in first}
    values["trace_overhead"] = statistics.median(
        r["traced_job_s"] / r["untraced_job_s"] for r in runs
    )
    info.update(traced_runs=len(runs))
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(len(r["failures"]) for r in runs)
    return attempted, failed, values, tracer.metric_units(), correct


def check_declared(names, trace):
    """The metric names must match BENCHMARK.json when it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path) as f:
        spec = json.load(f)
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if declared != set(names):
        raise RunFailed(f"metrics differ from BENCHMARK.json: {sorted(declared ^ set(names))}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "cloning_systems")):
        print(f"run.py: library not found at {SRC}", file=sys.stderr)
        return 2
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }
    try:
        child(args.workload, args.seed, "setup")  # compiles bytecode; not counted
        attempted, failed, values, units, correct = (traced if args.trace else untraced)(args, info)
        check_declared(units, args.trace)
    except RunFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(info))
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
