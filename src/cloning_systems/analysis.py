"""Finite-scale experiment drivers for the group-level structure criteria.

Everything here is exact arithmetic over finite truncations, so a verdict
is either an outright proof at the checked scale (exhaustive enumeration)
or evidence labelled consistent-with-theorem; the underlying statements
quantify over infinite groups and are never "proved" by these runs.

"Radius" throughout means the maximal caret count per tree, not word
length in generators: balls are enumerated directly over reduced tree
pairs, which keeps every count exact.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Optional

from .cloning import CloningSystem, ProductSystem, image_membership
from .groups import BaseGroup, Monomorphism, identity_mono, perm_apply
from .thompson import (
    Element,
    fd_conjugates,
    powers_closed_form,
    random_element,
)
from .trees import (
    Tree,
    expand_at,
    graft,
    leaf_index,
    removable_carets,
    right_spine,
    tree_text,
    trees_with_carets,
)

EVIDENCE_EXHAUSTIVE = "exhaustive-proof"
EVIDENCE_SAMPLED = "consistent-with-theorem"

DEFAULT_MAX_BALL = 20000
DEFAULT_MAX_LEAVES = 40


@dataclass
class ExperimentReport:
    """Reproducible record of one experiment run.

    An experiment runner may leave experiment, system and seed for the
    dispatcher to fill in, as it does runtime_ms.
    """

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
        return {
            "schema_version": self.schema_version,
            "experiment": self.experiment,
            "system": self.system,
            "params": self.params,
            "seed": self.seed,
            "series": self.series,
            "witnesses": self.witnesses,
            "verdict": self.verdict,
            "evidence": self.evidence,
            "runtime_ms": self.runtime_ms,
        }

    def to_json(self, include_runtime: bool = True) -> str:
        doc = self.to_dict()
        if not include_runtime:
            del doc["runtime_ms"]
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentReport":
        return cls(
            experiment=doc["experiment"],
            system=doc["system"],
            params=doc["params"],
            seed=doc["seed"],
            series=doc.get("series", {}),
            witnesses=doc.get("witnesses", []),
            verdict=doc.get("verdict", "pass"),
            evidence=doc.get("evidence", EVIDENCE_SAMPLED),
            runtime_ms=doc.get("runtime_ms", 0),
            schema_version=doc.get("schema_version", 1),
        )


@dataclass
class FdBall:
    """All reduced identity-middle tree pairs with at most L carets per tree."""

    system: CloningSystem
    radius: int
    elements: tuple
    truncated: bool = False


def enumerate_fd_ball(
    system: CloningSystem,
    radius: int,
    max_elements: int = DEFAULT_MAX_BALL,
    max_leaves: int = DEFAULT_MAX_LEAVES,
) -> FdBall:
    """Enumerate the F_d truncation of the given radius.

    A pair with identity middle is reduced exactly when no caret can be
    deleted from both trees at the same leaf block, so reducedness is a
    direct tree test here.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    d = system.d
    out = []
    truncated = False
    for carets in range(radius + 1):
        n = carets * (d - 1) + 1
        if n > max_leaves:
            truncated = True
            break
        shapes = trees_with_carets(d, carets)
        ident = system.family.identity(n)
        for T in shapes:
            crT = removable_carets(T)
            for U in shapes:
                if crT & removable_carets(U):
                    continue
                out.append(Element(system, T, ident, U, _raw=True))
                if len(out) > max_elements:
                    return FdBall(system, radius, tuple(out[:max_elements]), True)
    return FdBall(system, radius, tuple(out), truncated)


def enumerate_system_ball(
    system: CloningSystem,
    radius: int,
    max_elements: int = DEFAULT_MAX_BALL,
) -> list[Element]:
    """All elements [T,g,U] with at most `radius` carets per tree, canonical."""
    d = system.d
    seen: set[Element] = set()
    for carets in range(radius + 1):
        n = carets * (d - 1) + 1
        shapes = trees_with_carets(d, carets)
        for T in shapes:
            for U in shapes:
                for g in system.family.enumerate(n):
                    seen.add(Element(system, T, g, U))
                    if len(seen) > max_elements:
                        raise ValueError("system ball exceeds the element cap")
    return sorted(seen, key=lambda x: (x.n, tree_text(x.T), str(x.g), tree_text(x.U)))


def conjugate_count(x: Element, ball: FdBall) -> int:
    """Number of distinct conjugates f^{-1} x f over f in the ball.

    x is expanded once per left tree of the ball (see fd_conjugates).
    """
    if x.sys.name != ball.system.name:
        raise ValueError("element and ball live in different systems")
    return len(set(fd_conjugates(x, ball.elements)))


def normalizes_up_to(
    x: Element, ball: FdBall, one_sided: bool = False
) -> tuple[bool, Optional[Element]]:
    """Check x^{-1} f x stays in F_d over the ball (both directions by default).

    Returns (ok, first failing f).  Passing at a radius is evidence that x
    normalizes the canonical F_d copy, not a proof.
    """
    if x.sys.name != ball.system.name:
        raise ValueError("element and ball live in different systems")
    xi = x.inv()
    for f in ball.elements:
        if not (xi * f * x).in_fd():
            return False, f
        if not one_sided and not (x * f * xi).in_fd():
            return False, f
    return True, None


def coset_orbit_count(x: Element, ball: FdBall) -> int:
    """Distinct cosets (f x)F_d over f in the ball.

    Two translates agree exactly when (f1 x)^{-1} (f2 x) has identity
    middle, so class representatives are compared by exact multiplication.
    """
    if x.sys.name != ball.system.name:
        raise ValueError("element and ball live in different systems")
    reps: list[Element] = []
    rep_invs: list[Element] = []
    for f in ball.elements:
        y = f * x
        for ri in rep_invs:
            if (ri * y).in_fd():
                break
        else:
            reps.append(y)
            rep_invs.append(y.inv())
    return len(reps)


def mixing_witness(
    system: CloningSystem,
    R: Tree,
    v: tuple[int, ...],
    g,
    graft_a: Tree,
    graft_b: Tree,
) -> dict:
    """Build the commuting pair x = [R,g,R], f = [T,U] with T,U grafted at v.

    For uniform systems x commutes with every such f provided the middle
    does not move the graft leaf (automatic when representation maps are
    trivial), so a nontrivial f witnesses that conjugates of the F_d copy
    intersect it nontrivially (no mixing).  A commutation failure is
    reported as a counterexample to those premises.
    """
    if graft_a == graft_b:
        raise ValueError("grafted trees must be distinct")
    if graft_a.leaf_count != graft_b.leaf_count:
        raise ValueError("grafted trees must have equal leaf counts")
    x = Element(system, R, g, R)
    T = graft(R, v, graft_a)
    U = graft(R, v, graft_b)
    f = Element(system, T, system.family.identity(T.leaf_count), U)
    commutes = (x * f) == (f * x)
    leaf_pos = leaf_index(R, v)
    return {
        "x": x,
        "f": f,
        "commutes": commutes,
        "f_nontrivial": not f.is_identity(),
        "uniform_declared": system.uniform,
        "middle_fixes_graft_leaf": perm_apply(system.rho(R.leaf_count, g), leaf_pos)
        == leaf_pos,
    }


def _fpf_pattern(base: BaseGroup, phi: Monomorphism, g, length: int) -> tuple:
    """Alternating witness tuple g, phi(g), g, ... of the given length."""
    return tuple(g if i % 2 == 0 else phi.apply(g) for i in range(length))


def fpf_suite(
    base: BaseGroup,
    phi: Monomorphism,
    n: int = 3,
    m_max: int = 5,
    seed: int = 0,
    samples: int = 50,
) -> ExperimentReport:
    """Checks around a binary product system twisted by an order-two map.

    Premises: phi is an involution without nontrivial fixed points.  Then,
    on the system with maps (id, phi): (a) the alternating tuples land in
    every cloning image (so the system is not diverse), (b) the spine
    commutator powers match the closed form, (c) conjugating a nontrivial
    kernel element by those powers gives pairwise distinct elements, and
    (d) cloning a fresh copy at different spots disagrees (not uniform).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if m_max < 1:
        raise ValueError("m must be >= 1")
    rng = random.Random(seed)
    system = ProductSystem(base, (identity_mono(), phi))
    params = {"base": base.name, "phi": phi.label, "n": n, "m_max": m_max}
    report = ExperimentReport(
        experiment="fpf", system=system.name, params=params, seed=seed
    )
    elems = base.elements()
    if elems is None:
        pool = [base.sample(rng) for _ in range(samples)]
        report.evidence = EVIDENCE_SAMPLED
    else:
        pool = list(elems)
        report.evidence = EVIDENCE_EXHAUSTIVE
    if all(g == base.identity for g in pool):
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

    nontrivial = [g for g in pool if g != base.identity]
    witness_ok = True
    for level in range(1, n + 1):
        for g in nontrivial[:5]:
            pattern = _fpf_pattern(base, phi, g, level + 1)
            if not all(
                image_membership(system, level, k, pattern)
                for k in range(1, level + 1)
            ):
                witness_ok = False
                report.witnesses.append(f"missing at n={level}: {pattern}")
    checks["nondiversity_witnesses"] = witness_ok
    if witness_ok and nontrivial:
        report.witnesses.append(
            system.family.to_text(n + 1, _fpf_pattern(base, phi, nontrivial[0], n + 1))
        )

    T = right_spine(2, max(n - 1, 1))
    nT = T.leaf_count
    base_pair = Element(
        system,
        expand_at(T, 1),
        system.family.identity(nT + 1),
        expand_at(T, nT),
    )
    powers_ok = all(
        powers_closed_form(system, T, 1, nT, m + 1) == base_pair ** (m + 1)
        for m in range(1, m_max + 1)
    )
    checks["spine_powers_closed_form"] = powers_ok

    g = nontrivial[0] if nontrivial else base.identity
    kernel_tuple = tuple(g for _ in range(nT))
    x = Element(system, T, kernel_tuple, T)
    conjugators = [
        powers_closed_form(system, T, 1, nT, (ell - 1) * nT + 2) for ell in range(1, 5)
    ]
    conjugates = list(fd_conjugates(x, conjugators))
    checks["conjugates_pairwise_distinct"] = len(set(conjugates)) == len(conjugates)

    uniform_counterexample = None
    for g in nontrivial[:10]:
        tup = (g,) * n
        once = system.clone(n, 1, tup)
        if system.clone(n + 1, 1, once) != system.clone(n + 1, 2, once):
            uniform_counterexample = tup
            break
    checks["non_uniform"] = uniform_counterexample is not None
    if uniform_counterexample is not None:
        report.witnesses.append(system.family.to_text(n, uniform_counterexample))

    report.series = {"checks": checks}
    report.verdict = "pass" if all(checks.values()) else "fail"
    return report


def sample_nontrivial_elements(
    system: CloningSystem,
    count: int,
    rng: random.Random,
    max_carets: int = 2,
    require_non_fd: bool = False,
) -> list[Element]:
    """Seeded nontrivial element samples, deduplicated by canonical form."""
    out: list[Element] = []
    seen = set()
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 10000:
            raise ValueError(
                f"could not sample {count} distinct nontrivial elements "
                f"with at most {max_carets} carets"
            )
        x = random_element(system, rng, max_carets=max_carets)
        if x.is_identity() or x in seen:
            continue
        if require_non_fd and x.in_fd():
            continue
        seen.add(x)
        out.append(x)
    return out
