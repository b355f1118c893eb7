"""Tree-pair balls and the exact counts and checks taken over them.

The F_d and system balls, conjugate and coset-orbit counts, the normalizer
check, the commuting-pair builder and seeded element samples.  Each returns
values, not verdicts: the experiments module turns them into reports.

"Radius" throughout means the maximal caret count per tree, not word
length in generators: balls are enumerated directly over reduced tree
pairs, which keeps every count exact.
"""

from __future__ import annotations

import random
from math import comb

from .cloning import CloningSystem
from .groups import perm_apply
from .thompson import (
    Element,
    SystemMismatch,
    _conjugate_keys,
    _element,
    _reduce,
    coset_key,
    random_element,
)
from .trees import (
    Tree,
    graft,
    leaf_index,
    removable_carets,
    tree_text,
    trees_with_carets,
)

# cap on the tree leaves an F_d ball may hold (see enumerate_fd_ball)
MAX_BALL_LEAVES = 1_500_000
# cap on the elements of a system ball
MAX_SYSTEM_BALL = 20000


class FdBall:
    """All reduced identity-middle tree pairs with at most L carets per tree.

    A ball is always whole: enumerate_fd_ball refuses a radius past its cap
    instead of building part of the ball, so `truncated` reads False on
    every ball, and an instance cannot set it.
    """

    __slots__ = ("system", "radius", "elements")
    truncated = False

    def __init__(self, system: CloningSystem, radius: int, elements: tuple):
        self.system = system
        self.radius = radius
        self.elements = elements


def _check_ball(x: Element, ball: FdBall) -> None:
    """A ball to count or check x over must be a ball of x's system."""
    if ball.system.name != x.sys.name:
        raise SystemMismatch(f"the F_d ball is of {ball.system.name}, not of {x.sys.name}")


def enumerate_fd_ball(system: CloningSystem, radius: int) -> FdBall:
    """Enumerate the F_d truncation of the given radius, or refuse it unbuilt.

    Level c holds at most F^2 pairs of trees with n = (d-1)c + 1 leaves,
    F = C(dc, c)/n the Fuss-Catalan count of d-ary trees with c carets; a
    radius whose levels could hold more than MAX_BALL_LEAVES tree leaves in
    all, 2 n F^2 per level, raises ValueError before any tree is built.  A
    pair with identity middle is reduced exactly when no caret can be
    deleted from both trees at the same leaf block, so reducedness is a
    direct tree test.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    d = system.d
    leaves = 0
    for c in range(radius + 1):
        n = (d - 1) * c + 1
        leaves += 2 * n * (comb(d * c, c) // n) ** 2
        if leaves > MAX_BALL_LEAVES:
            raise ValueError(
                f"the F_d ball of radius {radius} passes the cap of {MAX_BALL_LEAVES} "
                "tree leaves; use a smaller radius"
            )
    out = []
    for carets in range(radius + 1):
        shapes = trees_with_carets(d, carets)
        ident = system.family.identity(carets * (d - 1) + 1)
        carets_of = [removable_carets(s) for s in shapes]
        for T, crT in zip(shapes, carets_of):
            for U, crU in zip(shapes, carets_of):
                if not crT & crU:
                    out.append(_element(system, T, ident, U))
    return FdBall(system, radius, tuple(out))


def enumerate_system_ball(system: CloningSystem, radius: int) -> list[Element]:
    """All elements [T,g,U] with at most `radius` carets per tree, canonical.

    Each element has exactly one reduced triple, so the ball is the triples
    that _reduce leaves unchanged, with no duplicate to remove.  Elements
    are ordered by (n, text of T, str(g), text of U); each level's shapes
    are written out once.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    d = system.d
    out = []
    for carets in range(radius + 1):
        n = carets * (d - 1) + 1
        shapes = trees_with_carets(d, carets)
        text = {s: tree_text(s) for s in shapes}
        start = len(out)
        for T in shapes:
            for U in shapes:
                for g in system.family.iterate(n):
                    if _reduce(system, T, g, U)[2] is U:
                        out.append(_element(system, T, g, U))
                        if len(out) > MAX_SYSTEM_BALL:
                            raise ValueError(
                                f"the system ball of radius {radius} has more than "
                                f"{MAX_SYSTEM_BALL} elements; use a smaller radius"
                            )
        out[start:] = sorted(out[start:], key=lambda x: (text[x.T], str(x.g), text[x.U]))
    return out


def conjugate_count(x: Element, ball: FdBall) -> int:
    """Number of distinct conjugates f^{-1} x f over f in the ball.

    The ball is checked once, here: enumerate_fd_ball builds it from
    identity-middle elements of its own system only, so no conjugator is
    checked again.  Each left tree's expansion of x is one step from its
    parent tree's; each conjugate grafts its forests onto its right tree,
    is reduced only when that tree has the carets a collapse needs, starting
    at the pair of sites the plan found, and is counted by its depth key,
    with no Element built (see thompson._conjugate_keys).
    """
    _check_ball(x, ball)
    return len(set(_conjugate_keys(x, ball.elements)))


def normalizes_up_to(
    x: Element, ball: FdBall, one_sided: bool = False
) -> tuple[bool, Element | None]:
    """Check x^{-1} f x stays in F_d over the ball (both directions by default).

    Returns (ok, first failing f).  Passing at a radius is evidence that x
    normalizes the canonical F_d copy, not a proof.

    x^{-1} f x lies in F_d exactly when f x F_d = x F_d, so each direction
    costs one product and one coset_key per f, against the key of x (or of
    x^{-1}) taken once.  enumerate_fd_ball never returns part of a ball,
    over which the check could pass.
    """
    _check_ball(x, ball)
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
    _check_ball(x, ball)
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
