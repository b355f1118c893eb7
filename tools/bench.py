"""Compare the benchmark of two revisions of this repository.

    python3 tools/bench.py compare <rev A> <rev B> --pairs N [--seconds S]

A is the parent, B the change; both must be commits, since they are
exported with `git archive` into a temporary directory, so neither copy
holds a `__pycache__` from earlier runs.  For each workload of B's
BENCHMARK.json and each pair i, both copies run

    perfbench/run.py --workload W --seed <seed + i> --seconds S --trace 0

one after the other, A first in even pairs and B first in odd ones.  S is
the benchmark's own `run_seconds` unless --seconds overrides it (say, for a
short smoke run).  Per end-to-end metric the report gives each side's median
and quartiles, the ratio of the medians B/A, the pairs B won, whether every
run of B beat every run of A, and the metric's bound from BENCHMARK.json.
The exit status is 1 when a run of either side is not correct or B fails
more operations than A.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(rev: str, dest: str) -> str:
    """Extract the files of rev into dest; returns dest."""
    tar = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    # the "data" filter exists from 3.10.12 and 3.11.4 on; older ones trust the archive
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, **safe)
    return dest


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run of the benchmark in tree; its result line."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench.py: {tree}: {' '.join(cmd)} exited {proc.returncode}\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def summarize(metric: dict, a: list[float], b: list[float]) -> str:
    """One report row: quartiles of each side, ratio of medians, wins, all-below, bound."""
    lower = metric["better"] == "lower"
    qa, qb = quartiles(a), quartiles(b)
    wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    all_better = max(b) < min(a) if lower else min(b) > max(a)
    ratio = qb[1] / qa[1] if qa[1] else float("nan")
    cells = [f"{q[1]:.4f} [{q[0]:.4f}-{q[2]:.4f}]" for q in (qa, qb)]
    return (f"  {metric['name']:<12} {cells[0]:>29} {cells[1]:>29} {ratio:>6.3f} "
            f"{wins:>3}/{len(a):<3} {'yes' if all_better else 'no':>5} "
            f"{metric.get('bound', ''):>6}")


def compare(args) -> int:
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        trees = (export(args.rev_a, os.path.join(tmp, "a")),
                 export(args.rev_b, os.path.join(tmp, "b")))
        with open(os.path.join(trees[1], "BENCHMARK.json")) as f:
            spec = json.load(f)
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        print(f"A = {args.rev_a}, B = {args.rev_b}; {args.pairs} pairs of "
              f"--seconds {seconds}, seeds {args.seed}..{args.seed + args.pairs - 1}")
        status = 0
        for workload in [w["name"] for w in spec["workloads"]]:
            results = ([], [])
            for i in range(args.pairs):
                order = (0, 1) if i % 2 == 0 else (1, 0)
                for side in order:
                    results[side].append(
                        run_once(trees[side], workload, args.seed + i, seconds))
            failed = [sum(r["failed"] for r in side) for side in results]
            correct = [all(r["correct"] for r in side) for side in results]
            print(f"{workload}: correct A {correct[0]} B {correct[1]}, "
                  f"failed A {failed[0]} B {failed[1]}")
            print(f"  {'metric':<12} {'A: median [quartiles]':>29} {'B: median [quartiles]':>29} "
                  f"{'B/A':>6} {'wins':>7} {'all B':>5} {'bound':>6}")
            for metric in spec["end_to_end"]:
                name = metric["name"]
                a = [r["metrics"][name]["value"] for r in results[0]]
                b = [r["metrics"][name]["value"] for r in results[1]]
                print(summarize(metric, a, b))
            if not all(correct) or failed[1] > failed[0]:
                status = 1
        return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    c = sub.add_parser("compare", help="alternating pairs of benchmark runs of two revisions")
    c.add_argument("rev_a", help="the parent revision")
    c.add_argument("rev_b", help="the changed revision")
    c.add_argument("--pairs", type=int, required=True)
    c.add_argument("--seconds", type=float, help="run length; default BENCHMARK.json's run_seconds")
    c.add_argument("--seed", type=int, default=1000, help="seed of the first pair")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
