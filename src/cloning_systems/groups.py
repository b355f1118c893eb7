"""Exact base groups behind the built-in cloning systems.

Elements are plain hashable Python values in canonical form: permutations
are 1-based image tuples, free-group words are reduced strings over
"a A b B" (capital = inverse), cyclic residues are ints, direct-product
elements are tuples.  A GroupFamily bundles the group operations for a whole
sequence (G_n); a BaseGroup is a single group used componentwise by the
product families.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache
from itertools import permutations as _itertools_permutations
from itertools import product as _itertools_product


class UnsupportedError(Exception):
    """Raised for operations a family cannot perform (e.g. enumerating F2)."""


# ---------------------------------------------------------------------------
# permutations: 1-based one-line image tuples, p[i-1] = image of i
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)  # each level's identity is built once
def perm_identity(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def is_perm(p: tuple[int, ...]) -> bool:
    """p lists 1..len(p) in some order, each entry an int (no bool, no float)."""
    try:
        s = sorted(p)
    except TypeError:  # entries that do not compare, such as 1 and "a"
        return False
    # once s is 1..n, only s[0] can be True, and a float entry makes the sum a float
    return s == list(range(1, len(s) + 1)) and type(sum(s)) is int and (not s or s[0] is not True)


def perm_apply(p: tuple[int, ...], i: int) -> int:
    return p[i - 1]


def perm_mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Product pq: q acts first, (pq)(i) = p(q(i))."""
    n = len(p)
    if n != len(q):
        raise ValueError("size mismatch")
    identity = perm_identity(n)
    if p == identity:
        return tuple(q)
    if q == identity:
        return tuple(p)
    return tuple(p[q[i] - 1] for i in range(n))


def perm_inv(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x - 1] = i + 1
    return tuple(out)


def cycle_perm(n: int, *cycles: tuple[int, ...]) -> tuple[int, ...]:
    """Build a permutation of {1..n} from disjoint cycles, e.g. (1,2,3)."""
    images = list(range(1, n + 1))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a - 1] = b
    p = tuple(images)
    if not is_perm(p):
        raise ValueError("cycles are not disjoint or out of range")
    return p


def perm_text(p: tuple[int, ...]) -> str:
    return "[" + ",".join(str(i) for i in p) + "]"


def parse_perm(s: str) -> tuple[int, ...]:
    body = s.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"bad permutation text {s!r}")
    try:
        p = tuple(int(x) for x in body[1:-1].split(",") if x.strip())
    except ValueError:
        raise ValueError(f"bad permutation text {s!r}") from None
    if not is_perm(p):
        raise ValueError(f"{s!r} is not a permutation")
    return p


# ---------------------------------------------------------------------------
# free group on a, b
# ---------------------------------------------------------------------------

FREE_LETTERS = "aAbB"


def free_reduce(word: str) -> str:
    """Freely reduce a word over a,A,b,B (capital = inverse)."""
    out: list[str] = []
    for ch in word:
        if ch not in FREE_LETTERS:
            raise ValueError(f"bad letter {ch!r} in free word")
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def free_inv(u: str) -> str:
    return u[::-1].swapcase()


# ---------------------------------------------------------------------------
# base groups for the product families
# ---------------------------------------------------------------------------

class BaseGroup:
    """A single group with exact operations and canonical text forms."""

    name: str
    identity: object

    def mul(self, g, h):
        raise NotImplementedError

    def inv(self, g):
        raise NotImplementedError

    def contains(self, g) -> bool:
        raise NotImplementedError

    def sample(self, rng):
        raise NotImplementedError

    def elements(self) -> tuple | None:
        """All elements, or None when the group is infinite."""
        return None

    def to_text(self, g) -> str:
        raise NotImplementedError

    def parse(self, s: str):
        raise NotImplementedError


class CyclicGroup(BaseGroup):
    """Z_m written additively; elements are residues 0..m-1."""

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("modulus must be >= 1")
        self.m = m
        self.name = f"Z{m}"
        self.identity = 0

    def mul(self, g, h):
        return (g + h) % self.m

    def inv(self, g):
        return (-g) % self.m

    def contains(self, g):
        return type(g) is int and 0 <= g < self.m

    def sample(self, rng):
        return rng.randrange(self.m)

    def elements(self):
        return tuple(range(self.m))

    def to_text(self, g):
        return str(g)

    def parse(self, s):
        try:
            if self.contains(g := int(s)):
                return g
        except ValueError:
            pass
        raise ValueError(f"{s!r} is not a residue mod {self.m}")


class FreeGroupAB(BaseGroup):
    """Free group on a and b; elements are reduced words.

    Sampling is capped at max_word_len letters to bound experiment cost.
    """

    def __init__(self, max_word_len: int = 8):
        self.name = "F2"
        self.identity = ""
        self.max_word_len = max_word_len

    def mul(self, g, h):
        # g and h are reduced, so letters cancel only where the two words meet
        i, m = 0, min(len(g), len(h))
        while i < m and g[-1 - i] == h[i].swapcase():
            i += 1
        return g[: len(g) - i] + h[i:]

    def inv(self, g):
        return free_inv(g)

    def contains(self, g):
        # strip leaves a character exactly when g has a letter outside aAbB;
        # a word over aAbB is reduced exactly when no letter meets its inverse
        return (
            isinstance(g, str)
            and not g.strip(FREE_LETTERS)
            and "aA" not in g
            and "Aa" not in g
            and "bB" not in g
            and "Bb" not in g
        )

    def sample(self, rng):
        length = rng.randint(0, self.max_word_len)
        out: list[str] = []
        while len(out) < length:
            ch = rng.choice(FREE_LETTERS)
            if out and out[-1] == ch.swapcase():
                continue
            out.append(ch)
        return "".join(out)

    def to_text(self, g):
        return g if g else "1"

    def parse(self, s):
        if s == "1":
            return ""
        w = free_reduce(s)
        if w != s:
            raise ValueError(f"{s!r} is not freely reduced")
        return w


# ---------------------------------------------------------------------------
# monomorphisms G -> G
# ---------------------------------------------------------------------------

class Monomorphism:
    """Injective endomorphism with a partial inverse on its image.

    Fields are read-only by contract.
    """

    __slots__ = ("label", "apply", "try_preimage")

    def __init__(self, label: str, apply: Callable, try_preimage: Callable):
        self.label = label
        self.apply = apply
        self.try_preimage = try_preimage


_SWAP_TABLE = str.maketrans("abAB", "baBA")


def _swap(g: str) -> str:
    return g.translate(_SWAP_TABLE)


def mono_for(base: BaseGroup, label: str) -> Monomorphism:
    """The monomorphism named by label: id; swap, the F2 automorphism
    exchanging the two generators; or inv, g -> g^{-1}, an automorphism of
    any abelian group.  swap and inv are self-inverse."""
    if label == "id":
        return Monomorphism("id", lambda g: g, lambda g: g)
    if label == "swap":
        if not isinstance(base, FreeGroupAB):
            raise ValueError("swap is only defined on F2")
        return Monomorphism("swap", _swap, _swap)
    if label == "inv":
        if not isinstance(base, CyclicGroup):
            raise ValueError("inv is only defined on the cyclic groups here")
        return Monomorphism("inv", base.inv, base.inv)
    raise ValueError(f"unknown monomorphism {label!r}")


def base_group_by_name(name: str) -> BaseGroup:
    if name == "F2":
        return FreeGroupAB()
    if name.startswith("Z") and name[1:].isdigit():
        return CyclicGroup(int(name[1:]))
    raise ValueError(f"unknown base group {name!r}")


# ---------------------------------------------------------------------------
# group families (G_n)
# ---------------------------------------------------------------------------

class GroupFamily:
    """Uniform interface over a sequence of groups G_n, n >= 1."""

    name: str

    def identity(self, n: int):
        raise NotImplementedError

    def mul(self, n: int, g, h):
        raise NotImplementedError

    def inv(self, n: int, g):
        raise NotImplementedError

    def contains(self, n: int, g) -> bool:
        raise NotImplementedError

    def sample(self, n: int, rng):
        raise NotImplementedError

    def is_finite(self, n: int) -> bool:
        raise NotImplementedError

    def iterate(self, n: int):
        """G_n's elements one at a time, for loops that may stop early.

        Raises UnsupportedError at the call, before any element, when G_n
        cannot be enumerated.
        """
        raise UnsupportedError(f"{self.name} G_{n} cannot be enumerated")

    def to_text(self, n: int, g) -> str:
        raise NotImplementedError

    def parse(self, n: int, s: str):
        raise NotImplementedError


class PermutationFamily(GroupFamily):
    """Shared machinery for the families living inside (S_n)."""

    def identity(self, n):
        return perm_identity(n)

    def contains(self, n, g):
        return isinstance(g, tuple) and len(g) == n and is_perm(g) and self._member(n, g)

    def _member(self, n: int, g: tuple[int, ...]) -> bool:
        """The family's own test, on a permutation g of {1..n}."""
        return True

    def mul(self, n, g, h):
        return perm_mul(g, h)

    def inv(self, n, g):
        return perm_inv(g)

    def is_finite(self, n):
        return True

    def to_text(self, n, g):
        return perm_text(g)

    def parse(self, n, s):
        p = parse_perm(s)
        if len(p) != n or not self.contains(n, p):
            raise ValueError(f"{s!r} is not in {self.name} at level {n}")
        return p


class SymmetricFamily(PermutationFamily):
    name = "S"

    def sample(self, n, rng):
        images = list(range(1, n + 1))
        rng.shuffle(images)
        return tuple(images)

    def iterate(self, n):
        return _itertools_permutations(range(1, n + 1))


class CyclicShiftFamily(PermutationFamily):
    """The cyclic subgroups generated by the n-cycle (1 2 ... n)."""

    name = "C"

    @staticmethod
    def _rotation(n: int, j: int) -> tuple[int, ...]:
        """The rotation i -> i + j (mod n), for 0 <= j < n."""
        return (*range(j + 1, n + 1), *range(1, j + 1))

    def iterate(self, n):
        return (self._rotation(n, j) for j in range(n))

    def _member(self, n, g):
        # the k-th shift sends 1 to k + 1, so g[0] fixes k; G_0 is no level
        return n >= 1 and g == self._rotation(n, g[0] - 1)

    def sample(self, n, rng):
        return self._rotation(n, rng.randrange(n))


class StabilizerFamily(PermutationFamily):
    """Permutations of {1..n} fixing the last point n."""

    name = "Shat"

    def _member(self, n, g):
        return g[n - 1] == n

    def sample(self, n, rng):
        images = list(range(1, n))
        rng.shuffle(images)
        return tuple(images) + (n,)

    def iterate(self, n):
        return (p + (n,) for p in _itertools_permutations(range(1, n)))


class TrivialPermFamily(PermutationFamily):
    """G_n = {identity}; the middle groups of the smallest system."""

    name = "1"

    def _member(self, n, g):
        return g == perm_identity(n)

    def sample(self, n, rng):
        return perm_identity(n)

    def iterate(self, n):
        return (perm_identity(n),)


class ProductFamily(GroupFamily):
    """G_n = the direct product of n copies of a base group."""

    def __init__(self, base: BaseGroup):
        self.base = base
        self.name = f"prod({base.name})"

    def identity(self, n):
        return (self.base.identity,) * n

    def mul(self, n, g, h):
        return tuple(self.base.mul(a, b) for a, b in zip(g, h))

    def inv(self, n, g):
        return tuple(self.base.inv(a) for a in g)

    def contains(self, n, g):
        return isinstance(g, tuple) and len(g) == n and all(
            self.base.contains(a) for a in g
        )

    def sample(self, n, rng):
        return tuple(self.base.sample(rng) for _ in range(n))

    def is_finite(self, n):
        return self.base.elements() is not None

    def iterate(self, n):
        elems = self.base.elements()
        if elems is None:
            raise UnsupportedError(f"{self.name} is infinite")
        return _itertools_product(elems, repeat=n)

    def to_text(self, n, g):
        return "(" + ",".join(self.base.to_text(a) for a in g) + ")"

    def parse(self, n, s):
        body = s.strip()
        if not (body.startswith("(") and body.endswith(")")):
            raise ValueError(f"bad tuple text {s!r}")
        parts = body[1:-1].split(",") if body != "()" else []
        g = tuple(self.base.parse(p.strip()) for p in parts)
        if not self.contains(n, g):
            raise ValueError(f"{s!r} is not in {self.name} at level {n}")
        return g


class PsiFamily(ProductFamily):
    """G_n = {1} x product of n-1 copies of the base group."""

    def __init__(self, base: BaseGroup):
        super().__init__(base)
        self.name = f"psi({base.name})"

    def contains(self, n, g):
        return super().contains(n, g) and g[0] == self.base.identity

    def sample(self, n, rng):
        return (self.base.identity,) + super().sample(n - 1, rng)

    def iterate(self, n):
        return ((self.base.identity,) + rest for rest in super().iterate(n - 1))
