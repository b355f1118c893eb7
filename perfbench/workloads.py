"""The benchmark's workloads; a child process runs one workload on one thread.

    python3 perfbench/workloads.py --workload conjugacy --seed 7 --job 0 --mode job

Modes:
  setup  time the set-up only and print {"setup_s": ...}
  job    set up, then run the seeded job once
  trace  set up, run the job once untraced, install the layer tracer and
         run the job once more

The last line of standard output is one JSON object.  Set-up is the import
of the package, make_system, the choice of inputs and the load of
references.json.  The inputs are drawn with the seed "<seed>/<job>": the
job processes of one run draw different inputs, so that a run's unit
latencies cover more of the corpus than one job holds.  A job is a
prologue that users pay on every run (ball enumeration) followed by units
in a closed loop with one caller: each unit starts when the previous one
has returned.  Every unit's result is checked
against references.json outside the timed region, and against an
independent reference where one exists.

Every time is reported at a fixed host speed.  The host's speed moves by a
quarter and more within seconds, and the job's wall time follows it: 41
fresh processes of one conjugacy job, run one after another, took 2.7 to
4.4 s.  So a short
pure-Python probe, which runs no library code, is timed before the set-up,
before the job and after every timed call, and each timed interval is
scaled by PROBE_REFERENCE_S over the mean of the two probes around it.
That is the interval's time on a host where the probe takes
PROBE_REFERENCE_S; the raw wall times are reported as well.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
REFERENCES = os.path.join(HERE, "references.json")

# conjugacy: conjugate counts over the F_d ball of each system, and coset
# orbit counts one radius lower: coset_orbit_count scans its orbit
# representatives for every ball element, which at radius 4 costs up to a
# second per unit and makes the per-unit cost vary tenfold between inputs
CONJUGACY_RADIUS = {
    "conjugate_count": {"V": 4, "T": 4, "prod:F2:id,swap": 4, "V:3": 3},
    "coset_orbit_count": {"V": 3, "T": 3, "prod:F2:id,swap": 3},
}
# per system: (elements in the corpus, elements drawn for a job)
CONJUGACY_CORPUS = {"conjugate_count": (24, 12), "coset_orbit_count": (12, 6)}

# powers: x ** m for spine commutators [T_k, T_l] and their conjugates, with
# m on a dense grid so that the results have about 25 to 120 leaves; each
# m gets one input drawn from the corpus, so the spread of unit costs, and
# with it p90, hardly depends on the seed
POWERS_SYSTEMS = ("V", "T", "prod:F2:id,swap", "V:3")
POWERS_SPINE_CARETS = 3
POWERS_EXPONENTS = {2: tuple(range(22, 43, 2)), 3: tuple(range(12, 57, 4))}
POWERS_CORPUS = 6  # plain and conjugated commutators each, per system

# cantor: pairs of words (random element times 10-20 F_d letters); every
# third pair is also checked after conjugation by the full reflection.  A
# job draws two thirds of the plain and of the reflected pairs.
CANTOR_SYSTEMS = ("V", "T", "Vhat", "V:3")
CANTOR_CORPUS = 96  # pairs per system

WORKLOADS = ("conjugacy", "powers", "cantor")

# about the median probe time on the host where the bounds were measured
# (2 CPUs, Python 3.11.7); it only fixes the scale of the reported times
PROBE_REFERENCE_S = 0.0003
PROBE_TREES = 20
PROBE_WARM_TREES = 4


class Unit:
    """One timed call, its check, and an optional guard that skips it."""

    __slots__ = ("label", "call", "check", "guard")

    def __init__(self, label, call, check, guard=None):
        self.label = label
        self.call = call  # ctx -> result
        self.check = check  # (result, ctx) -> error text or None
        self.guard = guard  # ctx -> error text or None; an error fails the unit untimed


class Job:
    def __init__(self, prologue, units):
        self.prologue = prologue  # () -> ctx
        self.units = units


def import_library():
    """The cloning_systems package of this checkout, with its layer modules loaded."""
    sys.path.insert(0, SRC)
    import cloning_systems
    from cloning_systems import analysis, cantor, cloning, thompson, trees  # noqa: F401

    if not os.path.abspath(cloning_systems.__file__).startswith(SRC + os.sep):
        raise ImportError(f"cloning_systems imported from outside {SRC}")
    return cloning_systems


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# conjugacy
# ---------------------------------------------------------------------------

def conjugacy_job(cs, refs, rng) -> Job:
    systems = {}
    units = []
    for kind, radii in CONJUGACY_RADIUS.items():
        for key, radius in radii.items():
            system = systems.setdefault(key, cs.cloning.make_system(key))
            for entry in rng.sample(refs["conjugacy"][kind][key], CONJUGACY_CORPUS[kind][1]):
                x = cs.thompson.parse_element(system, entry["x"])
                units.append(conjugacy_unit(cs, kind, (key, radius), x, entry["count"]))
    rng.shuffle(units)
    balls = {(key, r) for radii in CONJUGACY_RADIUS.values() for key, r in radii.items()}

    def prologue():
        return {b: cs.analysis.enumerate_fd_ball(systems[b[0]], b[1]) for b in sorted(balls)}

    return Job(prologue, units)


def conjugacy_unit(cs, kind, ball_key, x, expected) -> Unit:
    def call(balls):
        return getattr(cs.analysis, kind)(x, balls[ball_key])

    def check(count, balls):
        if not 1 <= count <= len(balls[ball_key].elements):
            return f"count {count} outside 1..ball size"
        if count != expected:
            return f"count {count} != reference {expected}"
        return None

    def guard(balls):
        return "F_d ball truncated" if balls[ball_key].truncated else None

    return Unit(f"{kind} {x!r} radius {ball_key[1]}", call, check, guard)


# ---------------------------------------------------------------------------
# powers
# ---------------------------------------------------------------------------

def powers_job(cs, refs, rng) -> Job:
    units = []
    for key, entries in refs["powers"].items():
        system = cs.cloning.make_system(key)
        spine = cs.trees.right_spine(system.d, POWERS_SPINE_CARETS)
        inputs = [powers_input(cs, system, spine, e) for e in entries]
        for m in POWERS_EXPONENTS[system.d]:
            i = rng.randrange(len(entries))
            units.append(powers_unit(cs, spine, entries[i], inputs[i], m))
    rng.shuffle(units)
    return Job(lambda: None, units)


def powers_input(cs, system, spine, entry):
    """(x, y): the spine commutator [T_k, T_l], conjugated by y when y is given."""
    x = cs.thompson.powers_closed_form(system, spine, entry["k"], entry["l"], 1)
    if entry["y"] is None:
        return x, None
    y = cs.thompson.parse_element(system, entry["y"])
    return y.inv() * x * y, y


def powers_unit(cs, spine, entry, inp, m) -> Unit:
    x, y = inp
    expected = entry["powers"][str(m)]

    def call(_):
        return x ** m

    def check(p, _):
        if digest(cs.thompson.element_text(p)) != expected:
            return "power differs from the recorded reference"
        closed = cs.thompson.powers_closed_form(x.sys, spine, entry["k"], entry["l"], m)
        if p != (closed if y is None else y.inv() * closed * y):
            return "power differs from the closed form"
        return None

    return Unit(f"{x!r} ** {m}", call, check)


# ---------------------------------------------------------------------------
# cantor
# ---------------------------------------------------------------------------

def cantor_job(cs, refs, rng) -> Job:
    units = []
    for key, entries in refs["cantor"].items():
        system = cs.cloning.make_system(key)
        h = reflection_map(cs, system.d)
        picked = []
        for reflect in (False, True):
            pool = [e for e in entries if e["reflect"] is reflect]
            picked += rng.sample(pool, 2 * len(pool) // 3)
        for e in picked:
            x = cs.thompson.parse_element(system, e["x"])
            y = cs.thompson.parse_element(system, e["y"])
            units.append(cantor_unit(cs, x, y, h if e["reflect"] else None, e))
    rng.shuffle(units)
    return Job(lambda: None, units)


def reflection_map(cs, d):
    """The full reflection as a one-rule prefix map."""
    return cs.cantor.PrefixMap(d, (((), (), cs.cantor.full_reflection(d)),))


def cantor_crosscheck(cs, x, y, h):
    """Tree-pair product and inverse against Cantor-space composition.

    Returns (x*y, rule count of the composed table, all checks agree).
    """
    cantor = cs.cantor
    xy = x * y
    fx = cantor.from_tree_pair(x)
    fy = cantor.from_tree_pair(y)
    composed = fx.compose(fy)
    ok = cantor.from_tree_pair(xy).equals(composed)
    ok = ok and cantor.from_tree_pair(x.inv()).equals(fx.invert())
    if h is not None:
        def conj(f):
            return h.compose(f).compose(h)

        ok = ok and conj(cantor.from_tree_pair(xy)).equals(conj(fx).compose(conj(fy)))
    return xy, len(composed.rules), ok


def cantor_unit(cs, x, y, h, entry) -> Unit:
    def call(_):
        return cantor_crosscheck(cs, x, y, h)

    def check(result, _):
        xy, rules, ok = result
        if not ok:
            return "tree-pair and Cantor-space results disagree"
        if cs.thompson.element_text(xy) != entry["xy"] or rules != entry["rules"]:
            return "result differs from the recorded reference"
        return None

    return Unit(f"cantor {x!r} * {y!r}", call, check)


JOBS = {"conjugacy": conjugacy_job, "powers": powers_job, "cantor": cantor_job}


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

class _ProbeNode:
    __slots__ = ("kids", "size")

    def __init__(self, kids):
        self.kids = kids
        self.size = 1 + sum(k.size for k in kids)

    def __hash__(self):
        return hash((self.size, self.kids))

    def __eq__(self, other):
        return self.size == other.size and self.kids == other.kids


def _probe_tree(depth, i):
    if depth == 0 or i % 3 == 0:
        return _ProbeNode(())
    return _ProbeNode((_probe_tree(depth - 1, 7 * i + 1), _probe_tree(depth - 1, 5 * i + 2)))


def probe() -> float:
    """Seconds a fixed tree-building and hashing loop takes now.

    An untimed first pass brings the probe back into the caches after the
    library's work, and garbage collection is off while it runs, so that
    the time depends on the host and not on the library's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        seen: dict = {}
        for i in range(1, PROBE_WARM_TREES + 1):
            seen[_probe_tree(6, i)] = 0
        seen.clear()
        t0 = time.perf_counter()
        for i in range(1, PROBE_TREES + 1):
            t = _probe_tree(6, i)
            seen[t] = seen.get(t, 0) + 1
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor from wall time to reference-host time between two probes."""
    return 2 * PROBE_REFERENCE_S / (before + after)


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def setup(workload: str, seed: int, job_index: int):
    """Everything before the first unit.

    Returns (job, set-up seconds at reference speed, wall seconds).
    """
    probe()  # the first call runs before the interpreter has specialised the probe
    before = probe()
    t0 = time.perf_counter()
    cs = import_library()
    with open(REFERENCES) as f:
        refs = json.load(f)
    job = JOBS[workload](cs, refs, random.Random(f"{seed}/{job_index}"))
    wall = time.perf_counter() - t0
    return job, wall * scale(before, probe()), wall


class JobTimes:
    """What one run of a job measured; times are at reference speed."""

    def __init__(self):
        self.job_s = 0.0
        self.wall_s = 0.0
        self.latencies: list[float] = []
        self.probes: list[float] = []
        self.failures: list[str] = []


def run_job(job: Job, tracer=None) -> JobTimes:
    """Run the job once.

    Only the prologue and the unit calls are timed (and traced); a probe
    runs before the prologue and after every timed call.
    """
    clock = time.perf_counter
    out = JobTimes()
    out.probes.append(probe())

    def timed(fn, *args):
        if tracer:
            tracer.active = True
        try:
            t0 = clock()
            result = fn(*args)
            wall = clock() - t0
        finally:
            if tracer:
                tracer.active = False
            out.probes.append(probe())
        dt = wall * scale(out.probes[-2], out.probes[-1])
        out.job_s += dt
        out.wall_s += wall
        return result, dt

    ctx, _ = timed(job.prologue)
    for unit in job.units:
        error = unit.guard(ctx) if unit.guard else None
        if error is None:
            try:
                result, dt = timed(unit.call, ctx)
            except Exception as exc:  # a unit that raises counts as failed
                error = f"raised {exc!r}"
        if error is None:
            out.latencies.append(dt)
            error = unit.check(result, ctx)
        if error is not None:
            out.failures.append(f"{unit.label}: {error}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--job", type=int, default=0, help="index of the job process in its run")
    p.add_argument("--mode", choices=("setup", "job", "trace"), default="job")
    args = p.parse_args(argv)

    job, setup_s, setup_wall_s = setup(args.workload, args.seed, args.job)
    out = {"setup_s": setup_s, "setup_wall_s": setup_wall_s}
    if args.mode == "job":
        t = run_job(job)
        out.update(job_s=t.job_s, job_wall_s=t.wall_s, unit_s=t.latencies,
                   probe_s=statistics.median(t.probes), attempted=len(job.units),
                   failures=t.failures)
    elif args.mode == "trace":
        from tracer import Tracer

        untraced = run_job(job)
        tracer = Tracer()
        tracer.install()
        traced = run_job(job, tracer)
        out.update(
            untraced_job_s=untraced.job_s,
            traced_job_s=traced.job_s,
            metrics=tracer.metrics(),
            attempted=2 * len(job.units),
            failures=untraced.failures + traced.failures,
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
