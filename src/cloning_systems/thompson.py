"""Tree-pair elements of the Thompson-like group built from a cloning system.

An element is an equivalence class of triples (T, g, U) where T and U are
d-ary trees with n leaves each and g lies in G_n.  Expanding a triple at
leaf k glues a caret onto leaf k of U, onto leaf rho(g)(k) of T, and clones
g at k; a reduction is the reverse move.  Element stores the fully reduced
triple, which is the canonical form: equality and hashing go through it.

Multiplication expands both factors to a common middle tree and multiplies
the group elements ([T,g,U][U,h,W] = [T,gh,W]); inversion swaps the trees
and inverts the middle.  Elements with identity middle form the canonical
copy of the Higman-Thompson group F_d; a product of two of them clones
nothing, so its outer trees are spliced along the expansion paths instead.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator
from functools import lru_cache

from .cloning import CloningSystem, make_system
from .groups import UnsupportedError, perm_apply
from .trees import (
    Tree,
    _expand_along,
    _tree,
    _tree_carets,
    collapse_at,
    common_expansion,
    expand_at,
    forest_sites,
    glue_caret,
    graft_forest,
    leaf,
    parse_tree,
    random_tree,
    removable_carets,
    right_spine,
    root_subtrees,
    tree_text,
    trivial_leaf,
)


class SystemMismatch(ValueError):
    """Raised when combining elements of different cloning systems."""


class Triple:
    """A not-necessarily-reduced representative (T, g, U).

    Triple(...) checks the arity of both trees, that their leaf counts agree
    and that g lies in G_n; Element(...) checks through it, and so do
    parse_element and random_element.  Expansions and reductions of a
    checked triple stay valid (clone and unclone map G_n into G_{n+d-1}
    and back), so expand_triple, reduce_triple and Element.triple build
    theirs with _triple, unchecked.  A product then checks its middle once,
    not once per grafted caret, and its checks cost O(n) in leaves, not O(n^2).
    """

    __slots__ = ("sys", "T", "g", "U")

    def __init__(self, system: CloningSystem, T: Tree, g, U: Tree):
        if T.d != system.d or U.d != system.d:
            raise ValueError("tree arity does not match the system")
        if T.leaf_count != U.leaf_count:
            raise ValueError("leaf counts differ")
        _check_middle(system, T.leaf_count, g)
        self.sys = system
        self.T = T
        self.g = g
        self.U = U

    @property
    def n(self) -> int:
        return self.T.leaf_count

    def __eq__(self, other):
        if not isinstance(other, Triple):
            return NotImplemented
        return (
            self.sys.name == other.sys.name
            and self.T == other.T
            and self.g == other.g
            and self.U == other.U
        )

    def __hash__(self):
        return hash((self.sys.name, self.T, self.g, self.U))

    def __repr__(self):
        return f"Triple({self.sys.name}, {tree_text(self.T)}, {self.g}, {tree_text(self.U)})"


def _check_middle(system: CloningSystem, n: int, g) -> None:
    if not system.family.contains(n, g):
        raise ValueError(f"middle element is not in {system.family.name} at level {n}")


def _triple(system: CloningSystem, T: Tree, g, U: Tree) -> Triple:
    """Trusted constructor: (T, g, U) must pass the checks of Triple(...)."""
    t = object.__new__(Triple)
    t.sys, t.T, t.g, t.U = system, T, g, U
    return t


def expand_triple(t: Triple, k: int) -> Triple:
    """Expansion at leaf k of the right tree (and at rho(g)(k) of the left)."""
    system, g, n = t.sys, t.g, t.T.leaf_count
    if not (type(k) is int and 1 <= k <= n):
        raise IndexError(f"expansion position {k} out of range 1..{n}")
    return _triple(
        system,
        expand_at(t.T, system.rho(n, g)[k - 1]),
        system.clone(n, k, g),
        expand_at(t.U, k),
    )


def _reduce(system: CloningSystem, T: Tree | None, g, U: Tree, rng=None) -> tuple:
    """Collapse carets until none applies; returns (T, g, U).

    Block k of U collapses wherever g = clone_k(g0).  Given a left tree T,
    rho(g0)(k) must also be a removable caret of T, and it collapses too;
    with T None (a coset key) F_d supplies the left tree and nothing more is
    asked.  The result is independent of the order in which sites are tried
    (expansions commute; by C2 and the injectivity of each clone_k, a
    collapse never blocks another), which the test suite checks by passing
    an rng that shuffles the sites of each pass.
    """
    while True:
        n_small = U.leaf_count - (system.d - 1)
        sites = sorted(removable_carets(U))
        if rng is not None:
            rng.shuffle(sites)
        left = None  # T's carets, scanned once some site of U unclones
        for k in sites:
            g0 = system.try_unclone(n_small, k, g)
            if g0 is None:
                continue
            if T is not None:
                if left is None:
                    left = removable_carets(T)
                j = perm_apply(system.rho(n_small, g0), k)
                if j not in left:
                    continue
                T = collapse_at(T, j)
            g, U = g0, collapse_at(U, k)
            break
        else:
            return T, g, U


def reduce_triple(t: Triple, rng: random.Random | None = None) -> Triple:
    """Contract removable carets until none applies (see _reduce).

    Returns t itself when nothing collapses.
    """
    T, g, U = _reduce(t.sys, t.T, t.g, t.U, rng)
    return t if U is t.U else _triple(t.sys, T, g, U)


def coset_key(y: Element) -> tuple[Tree, object]:
    """Canonical key of the left coset y F_d: the reduced right half of y^-1.

    y F_d matches F_d y^-1, and for y^-1 = [P, h, Q] that right coset is
    every [P', h', Q'] with (h', Q') an expansion of (h, Q) and P' any tree
    of the same size: F_d supplies the left tree.  So the key reduces the
    half (Q, h) alone, with no rho and no left tree.
    """
    yi = y.inv()
    _, h, Q = _reduce(yi.sys, None, yi.g, yi.U)
    return Q, h


class Element:
    """Canonical (fully reduced) tree-pair element; fields are read-only by contract."""

    __slots__ = ("sys", "T", "g", "U", "_hash")

    def __new__(cls, system: CloningSystem, T: Tree, g, U: Tree):
        t = reduce_triple(Triple(system, T, g, U))
        return _element(system, t.T, t.g, t.U)

    @classmethod
    def identity(cls, system: CloningSystem) -> "Element":
        l = leaf(system.d)
        return _element(system, l, system.family.identity(1), l)

    @property
    def n(self) -> int:
        return self.T.leaf_count

    def triple(self) -> Triple:
        return _triple(self.sys, self.T, self.g, self.U)

    def is_identity(self) -> bool:
        return (
            self.T.is_leaf
            and self.U.is_leaf
            and self.g == self.sys.family.identity(1)
        )

    def in_fd(self) -> bool:
        """Membership in the canonical copy of F_d: trivial middle element."""
        return self.g == self.sys.family.identity(self.n)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return (
            self.sys.name == other.sys.name
            and self._hash == other._hash
            and self.T == other.T
            and self.g == other.g
            and self.U == other.U
        )

    def __hash__(self):
        return self._hash

    def __mul__(self, other: "Element") -> "Element":
        return mul(self, other)

    def inv(self) -> "Element":
        # by C1, [U, g^-1, T] reduces exactly where [T, g, U] does: already canonical
        g_inv = self.sys.family.inv(self.n, self.g)
        return _element(self.sys, self.U, g_inv, self.T)

    def __pow__(self, m: int) -> "Element":
        """Square-and-multiply over the bits of m, highest first.

        floor(log2 m) squarings and popcount(m) - 1 products by x itself,
        so every product that is not a squaring has the small x on its right.
        """
        if m < 0:
            return self.inv() ** (-m)
        if m == 0:
            return Element.identity(self.sys)
        out = self
        for bit in bin(m)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def __repr__(self):
        return f"Element({self.sys.name}, {element_text(self)!r})"


def _element(system: CloningSystem, T: Tree, g, U: Tree) -> Element:
    """Trusted constructor, and the one place an element's fields are set:
    (T, g, U) must be a reduced triple that passes the checks of Triple(...)."""
    x = object.__new__(Element)
    x.sys, x.T, x.g, x.U = system, T, g, U
    x._hash = hash((system.name, T, g, U))
    return x


def mul(x: Element, y: Element) -> Element:
    if x.sys.name != y.sys.name:
        raise SystemMismatch(f"cannot multiply {x.sys.name} by {y.sys.name}")
    w, x_path, y_path = common_expansion(x.U, y.T)
    n = w.leaf_count
    if x.in_fd() and y.in_fd():
        # clone_k(1) = 1 (C1) and rho(1) = id: each outer tree grows along
        # its partner's path, and no caret is replayed
        T, W = _expand_along(x.T, x_path), _expand_along(y.U, y_path)
        return Element(x.sys, T, x.sys.family.identity(n), W)
    tx = x.triple()
    for k in x_path:
        tx = expand_triple(tx, k)
    ty = y.triple()
    for j in y_path:
        ty = expand_triple(ty, y.sys.rho(ty.T.leaf_count, ty.g).index(j) + 1)
    return Element(x.sys, tx.T, x.sys.family.mul(n, tx.g, ty.g), ty.U)


def fd_conjugates(x: Element, fs: Iterable[Element]) -> Iterator[Element]:
    """Yield f^{-1} x f for each f = [A, 1, B] of F_d in fs, without products.

    Each f must be an F_d element of x's system (SystemMismatch or
    ValueError otherwise); _conjugate_keys computes the conjugates' keys.
    """

    def checked() -> Iterator[Element]:
        for f in fs:
            if f.sys.name != x.sys.name:
                raise SystemMismatch(f"cannot conjugate {x.sys.name} by {f.sys.name}")
            if not f.in_fd():
                raise ValueError(f"conjugator {element_text(f)} is not in F_d")
            yield f

    system, d = x.sys, x.sys.d
    for T, g, U in _conjugate_keys(x, checked()):
        yield _element(system, _tree(d, T), g, _tree(d, U))


def _conjugate_keys(x: Element, fs: Iterable[Element]) -> Iterator[tuple]:
    """(left depths, middle, right depths) of f^{-1} x f for each f in fs.

    Each f must be an identity-middle element of x's system.  Within one
    system, equal keys are equal conjugates, so counting them needs no
    Element.
    Once x is expanded to (T', g', U') with both trees dominating A, T' is A
    with a forest F below its leaves and U' is A with a forest G, and the
    conjugate is [B.F, g', B.G], B with the forest grafted on: expanding f
    needs no group arithmetic, because clone(1) = 1 (axiom C1) and
    rho(1) = id.  The expansion, the forests and the collapses that can
    ever apply depend only on A, so _conjugation_plans makes them once per
    left tree, and checks g' once there for all the conjugates that share
    it; the plan is looked up again only when f's left tree changes.  Per
    f, _reduce runs only when B has the carets one of those collapses
    needs, and it starts from the first such collapse, made at the pair
    of sites and with the unclone the plan found for it; otherwise _reduce's
    first pass would collapse nothing and the grafted triple is already
    reduced.  B's carets come from the bounded trees._tree_carets, shared
    by every x, and most B are turned away by one test against the union
    of the needs.
    """
    system, d = x.sys, x.sys.d
    plan = _conjugation_plans(x)
    A = None
    for f in fs:
        if f.T is not A:
            A = f.T
            left, g, right, needs, needed = plan(A.depths)
        B = f.U.depths
        T, h, U = graft_forest(B, left), g, graft_forest(B, right)
        if needed and not needed.isdisjoint(carets := _tree_carets(d, B)):
            for need, (k, j, g0) in needs.items():
                if need <= carets:
                    T, h, U = _reduce(
                        system, collapse_at(_tree(d, T), j), g0, collapse_at(_tree(d, U), k)
                    )
                    T, U = T.depths, U.depths
                    break
        yield T, h, U


@lru_cache(maxsize=4096)
def _parent_cut(d: int, depths: tuple) -> tuple[int, tuple]:
    """(i, P): P is the tree of these depths with the caret at its first deepest leaf i cut."""
    i = depths.index(max(depths))
    return i, depths[:i] + (depths[i] - 1,) + depths[i + d :]


def _conjugation_plans(x: Element):
    """A -> (F, g', G, needs, needed) for this x, A given by its depths.

    F and G are the forests (in the format of trees.graft_forest) that T'
    and U' hang below A's leaves.  A's expansion is one step from that over
    its parent P, A with the caret at its first deepest leaf i cut: that
    leaf is a first child, and its d - 1 siblings are leaves.  The least
    expansion whose trees both dominate A dominates the least one over P,
    and A has one caret more, so each side misses at most one caret: at
    leaf i of P below U' when G_i is trivial (its rho-partner falls into
    F), then the mirror caret below T' when F_i still is.  Entry i of both
    forests then splits into its d root subtrees.  Each expansion is kept
    in states, keyed by A's depths, as (n, g', F, G), so a call clones at
    most twice per tree.  The cut and the split depend on shapes alone, so
    they come from bounded caches keyed by depths and shared by every x
    (_parent_cut, trees.root_subtrees).

    A removable caret of B.G lies inside a tree of G, or is a caret of B
    over d trivial trees in a row, and then needs that caret of B; B.F
    likewise (trees.forest_sites).  _reduce's first pass collapses
    at a right site k when g0 = try_unclone(k, g') exists and j = rho(g0)(k)
    is a left site, and neither depends on B.  needs maps the carets of B
    that both sites of such a pair need to the first (k, j, g0) in site
    order that needs them, and needed is their union; the first need that
    B has, in that order, is then the collapse _reduce's first pass would
    make.  No need is empty: a collapse inside both forests would leave a
    smaller expansion whose trees dominate A.  g' is checked once per A with
    Triple(...)'s message, so a clone that leaves the family is caught.
    """
    system, d = x.sys, x.sys.d
    states = {(0,): (x.n, x.g, [x.T.depths], [x.U.depths])}

    def expand(n: int, g, k: int, j: int, left: list, right: list) -> tuple:
        """expand_triple at leaf k, with j = rho(g)(k), on the forests."""
        glue_caret(d, left, j)
        glue_caret(d, right, k)
        return n + d - 1, system.clone(n, k, g)

    def expanded_over(A: tuple) -> tuple:
        chain = []
        while A not in states:
            i, P = _parent_cut(d, A)
            chain.append((A, i))
            A = P
        n, g, left, right = states[A]
        for A, i in reversed(chain):
            left, right = left[:], right[:]
            k = trivial_leaf(right, i)
            if k:
                n, g = expand(n, g, k, perm_apply(system.rho(n, g), k), left, right)
            j = trivial_leaf(left, i)
            if j:
                n, g = expand(n, g, system.rho(n, g).index(j) + 1, j, left, right)
            for forest in (left, right):
                forest[i : i + 1] = root_subtrees(d, forest[i])
            states[A] = n, g, left, right
        return n, g, left, right

    @lru_cache(maxsize=None)
    def plan(A: tuple) -> tuple:
        n, g, left, right = expanded_over(A)
        _check_middle(system, n, g)
        left_sites = forest_sites(d, left)
        n_small = n - (d - 1)
        needs: dict[frozenset[int], tuple] = {}
        for k, need in sorted(forest_sites(d, right).items()):
            g0 = system.try_unclone(n_small, k, g)
            if g0 is not None:
                j = perm_apply(system.rho(n_small, g0), k)
                other = left_sites.get(j)
                if other is not None:
                    needs.setdefault(need | other, (k, j, g0))
        needed = frozenset().union(*needs)
        return left, g, right, needs, needed

    return plan


def commutator(x: Element, y: Element) -> Element:
    return x * y * x.inv() * y.inv()


def powers_closed_form(system: CloningSystem, T: Tree, k: int, l: int, m: int) -> Element:
    """The m-th power of [T_k, T_l] built directly, without multiplying.

    For k < l the power is the pair (T expanded at k, m times;
    T expanded at l, l+d-1, ..., l+(m-1)(d-1)).
    """
    n = T.leaf_count
    if not 1 <= k < l <= n:
        raise IndexError(f"need 1 <= k < l <= {n}, got k={k}, l={l}")
    if m < 1:
        raise ValueError("m must be >= 1")
    d = system.d
    left = T
    for _ in range(m):
        left = expand_at(left, k)
    right = T
    for i in range(m):
        right = expand_at(right, l + i * (d - 1))
    return Element(system, left, system.family.identity(left.leaf_count), right)


def composite_inverse_closed_form(
    system: CloningSystem, n: int, g, ks: list[int]
) -> tuple[object, list[int]]:
    """Invert an iterated cloning by propagating the inverse inward.

    Returns (value, alphas) where value = (g^{-1}) cloned along the alpha
    sequence, alpha_1 = rho(g)(k_1) and alpha_i twists k_i by rho of the
    partially cloned element.  value equals the direct group inverse of
    g cloned along ks.
    """
    d = system.d
    fam = system.family
    alphas: list[int] = []
    cur = g
    size = n
    for step, k in enumerate(ks):
        if not 1 <= k <= size:
            raise IndexError(f"position {k} out of range 1..{size} at step {step}")
        alphas.append(perm_apply(system.rho(size, cur), k))
        cur = system.clone(size, k, cur)
        size += d - 1
    value = fam.inv(n, g)
    size = n
    for a in alphas:
        value = system.clone(size, a, value)
        size += d - 1
    return value, alphas


@lru_cache(maxsize=None)
def v_system(d: int) -> CloningSystem:
    return make_system("V" if d == 2 else f"V:{d}")


def pi_to_Vd(x: Element) -> Element:
    """The homomorphism [T,g,U] -> [T, rho(g), U] into the V_d system.

    Only defined for fully compatible systems; the kernel is the subgroup
    of classes [T,g,T] with rho(g) trivial.
    """
    if not x.sys.fully_compatible:
        raise UnsupportedError(
            f"{x.sys.name} is not fully compatible; the map to V_d is undefined"
        )
    return Element(v_system(x.sys.d), x.T, x.sys.rho(x.n, x.g), x.U)


def in_kernel_Kd(x: Element) -> bool:
    return pi_to_Vd(x).is_identity()


def fd_generator(system: CloningSystem, i: int) -> Element:
    """The i-th generator x_i of the canonical F_d copy (i >= 0).

    Writing i = a(d-1) + r, the generator lives a levels down the right
    spine R of a+1 carets: x_i = [R expanded at leaf i+1, R expanded at its
    last leaf].  The infinite presentation relations
    x_l x_k = x_k x_{l+d-1} (k < l) pin this construction down; they are
    checked as part of the acceptance suite.
    """
    if i < 0:
        raise ValueError("generator index must be >= 0")
    d = system.d
    spine = right_spine(d, i // (d - 1) + 1)
    n = spine.leaf_count + d - 1
    return Element(
        system,
        expand_at(spine, i + 1),
        system.family.identity(n),
        expand_at(spine, spine.leaf_count),
    )


def endpoint_slope_character(x: Element) -> tuple[int, int]:
    """Depth changes at the two endpoints: a homomorphism F_d -> Z x Z.

    Returns (leftmost leaf depth of T minus that of U, same for the
    rightmost leaves).  Vanishing is necessary for membership in the
    commutator subgroup of F_d.
    """
    if not x.in_fd():
        raise ValueError("the endpoint character is only defined on F_d elements")
    # a leaf's depth is the length of its address word
    T, U = x.T.depths, x.U.depths
    return (T[0] - U[0], T[-1] - U[-1])


def random_element(
    system: CloningSystem, rng: random.Random, max_carets: int = 3
) -> Element:
    """Seeded sampler: random equal-caret tree pair with a random middle."""
    c = rng.randint(0, max_carets)
    T = random_tree(system.d, c, rng)
    U = random_tree(system.d, c, rng)
    g = system.family.sample(T.leaf_count, rng)
    return Element(system, T, g, U)


def element_text(x: Element) -> str:
    mid = x.sys.family.to_text(x.n, x.g)
    return f"[{tree_text(x.T)} ; {mid} ; {tree_text(x.U)}]"


def parse_element(system: CloningSystem, text: str) -> Element:
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"bad element text {text!r}")
    parts = body[1:-1].split(" ; ")
    if len(parts) != 3:
        raise ValueError(f"element text must have three ' ; '-separated parts: {text!r}")
    T = parse_tree(parts[0].strip(), system.d)
    U = parse_tree(parts[2].strip(), system.d)
    g = system.family.parse(T.leaf_count, parts[1].strip())
    return Element(system, T, g, U)
