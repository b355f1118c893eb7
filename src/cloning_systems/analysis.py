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
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

from .cloning import (
    CloningSystem,
    alternating_tuple,
    in_all_images,
    is_id_phi_product,
    property_counterexample,
)
from .groups import perm_apply
from .thompson import (
    Element,
    _element,
    coset_key,
    fd_conjugate_keys,
    fd_conjugates,
    powers_closed_form,
    random_element,
)
from .trees import (
    MAX_TREE_DEPTH,
    Tree,
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
# base elements fpf_suite samples when the base group is infinite
FPF_SAMPLES = 50


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
        carets_of = [removable_carets(s) for s in shapes]
        for T, crT in zip(shapes, carets_of):
            for U, crU in zip(shapes, carets_of):
                if crT & crU:
                    continue
                out.append(_element(system, T, ident, U))
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

    Each left tree's expansion of x is one step from its parent tree's;
    each conjugate grafts its forests onto its right tree, is reduced only
    when that tree has the carets a collapse needs, and is counted by its
    depth key, with no Element built (see fd_conjugate_keys).
    """
    return len(set(fd_conjugate_keys(x, ball.elements)))


def normalizes_up_to(
    x: Element, ball: FdBall, one_sided: bool = False
) -> tuple[bool, Optional[Element]]:
    """Check x^{-1} f x stays in F_d over the ball (both directions by default).

    Returns (ok, first failing f).  Passing at a radius is evidence that x
    normalizes the canonical F_d copy, not a proof.

    x^{-1} f x lies in F_d exactly when f x F_d = x F_d, so each direction
    costs one product and one coset_key per f, against the key of x (or of
    x^{-1}) taken once.
    """
    xi = x.inv()
    key, key_inv = coset_key(x), coset_key(xi)
    for f in ball.elements:
        if coset_key(f * x) != key:
            return False, f
        if not one_sided and coset_key(f * xi) != key_inv:
            return False, f
    return True, None


def coset_orbit_count(x: Element, ball: FdBall) -> int:
    """Distinct cosets (f x)F_d over f in the ball, counted by coset_key."""
    return len({coset_key(f * x) for f in ball.elements})


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


def fpf_suite(
    system: CloningSystem, n: int = 3, m_max: int = 5, seed: int = 0
) -> ExperimentReport:
    """Checks around a system prod:<group>:id,<phi> (see is_id_phi_product).

    Premises: phi is an involution without nontrivial fixed points.  Then
    (a) the alternating tuples land in every cloning image (so the system
    is not diverse), (b) the spine commutator powers match the closed form,
    (c) conjugating a nontrivial kernel element by those powers gives
    pairwise distinct elements, and (d) cloning a fresh copy at different
    spots disagrees (not uniform).
    """
    if not is_id_phi_product(system):
        raise ValueError("fpf expects a system of the form prod:<group>:id,<phi>")
    if n < 1:
        raise ValueError("n must be >= 1")
    if m_max < 1:
        raise ValueError("m must be >= 1")
    # T below is the right spine on nT leaves, and powers_closed_form(system,
    # T, 1, nT, k) reduces to trees of depth k + 1; the deepest trees built
    # are the ell = 4 conjugator, k = 3 nT + 2, and the (m_max + 1)-th power
    nT = max(n, 2)
    for name, value, depth in (("n", n, 3 * nT + 3), ("m", m_max, m_max + 2)):
        if depth > MAX_TREE_DEPTH:
            raise ValueError(
                f"{name} = {value} builds trees of depth {depth}, "
                f"past the cap of {MAX_TREE_DEPTH}"
            )
    rng = random.Random(seed)
    base, phi = system.base, system.monos[1]
    params = {"base": base.name, "phi": phi.label, "n": n, "m_max": m_max}
    report = ExperimentReport(
        experiment="fpf", system=system.name, params=params, seed=seed
    )
    pool = base.elements()
    if pool is None:
        pool = [base.sample(rng) for _ in range(FPF_SAMPLES)]
        report.evidence = EVIDENCE_SAMPLED
    else:
        report.evidence = EVIDENCE_EXHAUSTIVE
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
            pattern = alternating_tuple(phi, g, level + 1)
            if not in_all_images(system, level, pattern):
                witness_ok = False
                report.witnesses.append(f"missing at n={level}: {pattern}")
    checks["nondiversity_witnesses"] = witness_ok
    if witness_ok:
        report.witnesses.append(
            system.family.to_text(n + 1, alternating_tuple(phi, nontrivial[0], n + 1))
        )

    T = right_spine(2, nT - 1)
    base_pair = power = powers_closed_form(system, T, 1, nT, 1)
    powers_ok = True
    for m in range(2, m_max + 2):
        power = power * base_pair  # base_pair ** m, one product per step
        if powers_closed_form(system, T, 1, nT, m) != power:
            powers_ok = False
            break
    checks["spine_powers_closed_form"] = powers_ok

    x = Element(system, T, (nontrivial[0],) * nT, T)
    conjugators = [
        powers_closed_form(system, T, 1, nT, (ell - 1) * nT + 2) for ell in range(1, 5)
    ]
    conjugates = list(fd_conjugates(x, conjugators))
    checks["conjugates_pairwise_distinct"] = len(set(conjugates)) == len(conjugates)

    constant = ((g,) * n for g in nontrivial[:10])
    uniform_counterexample = next(
        (t for t in constant if property_counterexample(system, "uniform", n, t)), None
    )
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
