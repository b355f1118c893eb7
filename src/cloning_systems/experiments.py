"""The dcs experiments: each turns library results into an ExperimentReport.

An experiment is a function f(system, seed, *, <its parameters>) whose
keyword defaults are the CLI's defaults; cli.EXPERIMENTS names one per
experiment, and cli.run stamps the report's experiment, system, seed and
runtime_ms.  A refusal is a
ValueError with a one-line message.  All arithmetic is exact, so a verdict
over an exhaustive enumeration is a proof at the checked scale, and one over
samples is labelled consistent-with-theorem; the underlying statements
quantify over infinite groups and are never "proved" by these runs.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field, fields
from functools import cache
from itertools import chain, combinations, product

from . import analysis, cantor, cloning
from .groups import perm_apply
from .thompson import (
    Element,
    element_text,
    fd_conjugates,
    parse_element,
    powers_closed_form,
    random_element,
)
from .trees import (
    MAX_TREE_DEPTH,
    caret,
    expand_at,
    leaf_index,
    leaf_words,
    parse_tree,
    right_spine,
)

EVIDENCE_EXHAUSTIVE = "exhaustive-proof"
EVIDENCE_SAMPLED = "consistent-with-theorem"

# base elements fpf samples when the base group is infinite
FPF_SAMPLES = 50


@dataclass
class ExperimentReport:
    """Reproducible record of one experiment run."""

    experiment: str = ""
    system: str = ""
    params: dict = field(default_factory=dict)
    seed: int = 0
    series: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    verdict: str = "pass"
    evidence: str = EVIDENCE_SAMPLED
    runtime_ms: int = 0
    schema_version: int = 1

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, include_runtime: bool = True) -> str:
        doc = self.to_dict()
        if not include_runtime:
            del doc["runtime_ms"]
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentReport":
        """Read a report back: the first four fields are required, a missing
        later one takes its default, and unknown keys are ignored."""
        names = [f.name for f in fields(cls)]
        for name in names[:4]:
            if name not in doc:
                raise KeyError(name)
        return cls(**{name: doc[name] for name in names if name in doc})


def _checked_radius(radius: int) -> int:
    """A ball experiment's radius, refused below 1 before any ball is built."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    return radius


def _elements_for(system, texts, budget: int, seed: int):
    """The elements a ball experiment checks: those given, else a sample."""
    if texts:
        return [parse_element(system, t) for t in texts]
    elements = analysis.sample_nontrivial_elements(system, budget, random.Random(seed))
    if not elements:
        raise ValueError("no element to check: give --element or a budget >= 1")
    return elements


def verify_axioms(system, seed, *, n=4, exhaustive=False, budget=1000) -> ExperimentReport:
    result = cloning.verify_axioms(
        system, n_max=n, exhaustive=exhaustive, budget=budget, seed=seed
    )
    return ExperimentReport(
        params={"n": n, "exhaustive": exhaustive, "budget": budget},
        series={"checked": result["checked"]},
        witnesses=[] if result["ok"] else [
            f"{result['axiom']} fails at {result['counterexample']}"
        ],
        verdict="pass" if result["ok"] else "fail",
        evidence=EVIDENCE_EXHAUSTIVE if exhaustive else EVIDENCE_SAMPLED,
    )


def probe(system, seed, *, property=None, n=4, budget=500) -> ExperimentReport:
    if property is None:
        raise ValueError(
            f"probe needs a property, one of {', '.join(cloning.PROBE_PROPERTIES)}"
        )
    result = cloning.probe_property(system, property, n_max=n, budget=budget, seed=seed)
    detail = result["verdict"]
    return ExperimentReport(
        params={"property": property, "n": n, "budget": budget},
        series={"verdict_detail": detail},
        witnesses=[str(result["counterexample"])] if detail == "fails" else [],
        verdict="fail" if detail == "fails" else "pass",
        evidence=EVIDENCE_EXHAUSTIVE if detail == "holds-exhaustive" else EVIDENCE_SAMPLED,
    )


def diversity(system, seed, *, n=3, budget=500, exhaustive=None) -> ExperimentReport:
    result = cloning.diversity_witness(system, n, budget=budget, seed=seed, exhaustive=exhaustive)
    witness = result["witness"]
    return ExperimentReport(
        params={"n": n, "budget": budget},
        series={"witness_found": witness is not None},
        witnesses=[] if witness is None else [system.family.to_text(n + system.d - 1, witness)],
        verdict="witness" if witness is not None else "no-witness",
        evidence=EVIDENCE_EXHAUSTIVE if result["exhaustive"] else EVIDENCE_SAMPLED,
    )


def _growth(count, system, seed, radius, budget, texts) -> ExperimentReport:
    """Per-element counts over the F_d balls of radius 1..radius."""
    radii = range(1, _checked_radius(radius) + 1)
    balls = [analysis.enumerate_fd_ball(system, L) for L in radii]
    elements = _elements_for(system, texts, budget, seed)
    counts = [[count(x, ball) for ball in balls] for x in elements]
    # monotonicity in the radius is an exact invariant
    ok = all(a <= b for c in counts for a, b in zip(c, c[1:]))
    series = {"radii": list(radii)}
    series.update((f"element_{i}", c) for i, c in enumerate(counts))
    return ExperimentReport(
        params={"radius": radius, "count": len(elements)},
        series=series,
        witnesses=[element_text(x) for x in elements],
        verdict="pass" if ok else "fail",
    )


def conjugates(system, seed, *, radius=3, budget=5, elements=None) -> ExperimentReport:
    return _growth(analysis.conjugate_count, system, seed, radius, budget, elements)


def wahp_orbit(system, seed, *, radius=3, budget=3, elements=None) -> ExperimentReport:
    return _growth(analysis.coset_orbit_count, system, seed, radius, budget, elements)


def normalizer(
    system, seed, *, radius=3, budget=3, one_sided=False, elements=None
) -> ExperimentReport:
    ball = analysis.enumerate_fd_ball(system, _checked_radius(radius))
    elements = _elements_for(system, elements, budget, seed)
    results, witnesses = [], []
    for x in elements:
        ok, failing = analysis.normalizes_up_to(x, ball, one_sided=one_sided)
        results.append(ok)
        witnesses.append(element_text(x))
        if not ok:
            witnesses.append(f"failing conjugator: {element_text(failing)}")
    return ExperimentReport(
        params={"radius": radius, "one_sided": one_sided},
        series={"radius": radius, "results": results},
        witnesses=witnesses,
        verdict="pass" if all(results) else "fail",
    )


def mixing(
    system, seed, *, tree=None, leaf_word=None, middle=None, graft_a=None, graft_b=None
) -> ExperimentReport:
    d = system.d
    rng = random.Random(seed)
    if tree:
        R = parse_tree(tree, d)
    else:
        # non-pure systems need room for a nontrivial middle fixing the leaf
        R = caret(d) if system.pure else expand_at(caret(d), d)
    if leaf_word:
        if not leaf_word.isdecimal():
            raise ValueError(f"leaf word {leaf_word!r} is not a string of digits")
        v = tuple(int(c) for c in leaf_word)
    elif system.pure:
        v = (1,)
    else:
        # the last leaf: slightly pure middles fix its index automatically
        v = leaf_words(R)[-1]
    n = R.leaf_count
    identity = system.family.identity(n)
    if middle:
        g = system.family.parse(n, middle)
    else:
        # prefer a nontrivial middle that acts trivially at the graft leaf:
        # for tuple middles, identity in the grafted slot (the expansions
        # then only ever clone identity entries, so commutation holds even
        # without uniformity); for permutation middles, fixing the leaf
        pos = leaf_index(R, v)
        g = identity
        for _ in range(200):
            cand = system.family.sample(n, rng)
            if isinstance(system, cloning.ProductSystem):
                cand = cand[: pos - 1] + (system.base.identity,) + cand[pos:]
            if cand != identity and perm_apply(system.rho(n, cand), pos) == pos:
                g = cand
                break
    if g == identity:
        raise ValueError(
            "the middle is the identity, so mixing at leaf word "
            f"{''.join(map(str, v))} checks nothing; give a nontrivial --middle"
        )
    # default grafts: one caret hung on the first vs the last leaf of a caret
    graft_a, graft_b = (
        parse_tree(graft, d) if graft else expand_at(caret(d), i)
        for graft, i in ((graft_a, 1), (graft_b, d))
    )
    result = analysis.mixing_witness(system, R, v, g, graft_a, graft_b)
    report = ExperimentReport(
        params={
            "tree": tree or "caret",
            "leaf_word": "".join(str(c) for c in v),
        },
        series={
            key: result[key]
            for key in ("commutes", "f_nontrivial", "uniform_declared", "middle_fixes_graft_leaf")
        },
        witnesses=[element_text(result["x"]), element_text(result["f"])],
        verdict="pass" if result["commutes"] and result["f_nontrivial"] else "fail",
    )
    if not result["commutes"]:
        report.witnesses.append(
            "commutation failed: counterexample to the premises "
            "(uniformity, or a middle acting at the grafted leaf)"
        )
    return report


def fpf(system, seed, *, n=3, m=5) -> ExperimentReport:
    """Checks around a system prod:<group>:id,<phi> (see is_id_phi_product).

    Premises: phi is an involution without nontrivial fixed points.  Then
    (a) the alternating tuples land in every cloning image (so the system
    is not diverse), (b) the spine commutator powers match the closed form,
    (c) conjugating a nontrivial kernel element by those powers gives
    pairwise distinct elements, and (d) cloning a fresh copy at different
    spots disagrees (not uniform).
    """
    if not cloning.is_id_phi_product(system):
        raise ValueError("fpf expects a system of the form prod:<group>:id,<phi>")
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < 1:
        raise ValueError("m must be >= 1")
    # T below is the right spine on nT leaves, and powers_closed_form(system,
    # T, 1, nT, k) reduces to trees of depth k + 1; the deepest trees built
    # are the ell = 4 conjugator, k = 3 nT + 2, and the (m + 1)-th power
    nT = max(n, 2)
    for name, value, depth in (("n", n, 3 * nT + 3), ("m", m, m + 2)):
        if depth > MAX_TREE_DEPTH:
            raise ValueError(
                f"{name} = {value} builds trees of depth {depth}, "
                f"past the cap of {MAX_TREE_DEPTH}"
            )
    rng = random.Random(seed)
    base, phi = system.base, system.monos[1]
    pool = base.elements()
    report = ExperimentReport(
        params={"base": base.name, "phi": phi.label, "n": n, "m_max": m},
        evidence=EVIDENCE_SAMPLED if pool is None else EVIDENCE_EXHAUSTIVE,
    )
    if pool is None:
        pool = [base.sample(rng) for _ in range(FPF_SAMPLES)]
    nontrivial = [g for g in pool if g != base.identity]
    if not nontrivial:
        raise ValueError("fpf needs a base group with a nontrivial element")

    premises = {
        "premise_involution": lambda g: phi.apply(phi.apply(g)) == g,
        "premise_fixed_point_free": lambda g: g == base.identity or phi.apply(g) != g,
    }
    checks: dict[str, bool] = {}
    for premise, holds in premises.items():
        breaker = next((g for g in pool if not holds(g)), None)
        checks[premise] = breaker is None
        if breaker is not None:
            report.witnesses.append(f"{premise} fails at {base.to_text(breaker)}")
    if not all(checks.values()):
        report.series = {"checks": checks}
        report.verdict = "premise-failed"
        return report

    witness_ok = True
    for level in range(1, n + 1):
        for g in nontrivial[:5]:
            pattern = cloning.alternating_tuple(phi, g, level + 1)
            if not cloning.in_all_images(system, level, pattern):
                witness_ok = False
                text = system.family.to_text(level + 1, pattern)
                report.witnesses.append(f"missing at n={level}: {text}")
    checks["nondiversity_witnesses"] = witness_ok
    if witness_ok:
        report.witnesses.append(
            system.family.to_text(n + 1, cloning.alternating_tuple(phi, nontrivial[0], n + 1))
        )

    T = right_spine(2, nT - 1)
    base_pair = power = powers_closed_form(system, T, 1, nT, 1)
    checks["spine_powers_closed_form"] = True
    for j in range(2, m + 2):
        power = power * base_pair  # base_pair ** j, one product per step
        if powers_closed_form(system, T, 1, nT, j) != power:
            checks["spine_powers_closed_form"] = False
            report.witnesses.append(f"spine_powers_closed_form fails at m={j}")
            break

    x = Element(system, T, (nontrivial[0],) * nT, T)
    conjugators = [
        powers_closed_form(system, T, 1, nT, (ell - 1) * nT + 2) for ell in range(1, 5)
    ]
    conjugates = list(fd_conjugates(x, conjugators))
    clash = next(
        ((i, j) for (i, a), (j, b) in combinations(enumerate(conjugates, 1), 2) if a == b),
        None,
    )
    checks["conjugates_pairwise_distinct"] = clash is None
    if clash is not None:
        report.witnesses.append(
            f"conjugates_pairwise_distinct fails at ell={clash[0]} and ell={clash[1]}"
        )

    constant = [(g,) * n for g in nontrivial[:10]]
    uniform_counterexample = next(
        (t for t in constant if cloning.property_counterexample(system, "uniform", n, t)),
        None,
    )
    checks["non_uniform"] = uniform_counterexample is not None
    if uniform_counterexample is not None:
        report.witnesses.append(system.family.to_text(n, uniform_counterexample))
    else:
        tried = ", ".join(system.family.to_text(n, t) for t in constant)
        report.witnesses.append(f"non_uniform fails at n={n}: uniform on {tried}")

    report.series = {"checks": checks}
    report.verdict = "pass" if all(checks.values()) else "fail"
    return report


def _random_point(d: int, depth: int, rng) -> "cantor.CantorWord":
    pre = tuple(rng.randint(1, d) for _ in range(rng.randint(0, depth // 2)))
    per = tuple(rng.randint(1, d) for _ in range(rng.randint(1, max(1, depth // 2))))
    return cantor.CantorWord(pre, per)


def cantor_crosscheck(system, seed, *, radius=2, budget=100, depth=12) -> ExperimentReport:
    if not system.permutation_type:
        raise ValueError("cantor-crosscheck needs one of the F/T/V/Vhat systems")
    rng = random.Random(seed)
    ball = analysis.enumerate_system_ball(system, _checked_radius(radius))
    rng2 = random.Random(seed + 1)
    sampled = [
        (random_element(system, rng2), random_element(system, rng2)) for _ in range(budget)
    ]
    points = [_random_point(system.d, depth, rng) for _ in range(8)]
    table = cache(cantor.from_tree_pair)  # per element, in this call
    checked = points_checked = 0
    witnesses = []
    for x, y in chain(product(ball, repeat=2), sampled):
        fx, fy = table(x), table(y)
        composed = fx.compose(fy)
        ok = cantor.from_tree_pair(x * y).equals(composed)
        checked += ok
        if ok and checked % 50 == 0:
            for p in points:
                ok = composed.apply(p) == fx.apply(fy.apply(p))
                if not ok:
                    break
                points_checked += 1
        if not ok:
            witnesses.append(f"{element_text(x)} * {element_text(y)}")
            break
    # the first ball element each table check fails at, or None
    breakers = {
        "order_preserving_iff_fd": next(
            (x for x in ball if cantor.is_order_preserving(table(x)) != x.in_fd()), None
        ),
        "inverses_match": next(
            (x for x in ball if not table(x.inv()).equals(table(x).invert())), None
        ),
    }
    witnesses += [
        f"{check} fails at {element_text(x)}" for check, x in breakers.items() if x is not None
    ]
    return ExperimentReport(
        params={"radius": radius, "budget": budget, "depth": depth},
        series={
            "pairs_checked": checked,
            "points_checked": points_checked,
            **{check: x is None for check, x in breakers.items()},
        },
        witnesses=witnesses,
        verdict="fail" if witnesses else "pass",
    )
