"""d-ary cloning systems: interface, built-in systems, axiom checks, probes.

A cloning system bundles a group family (G_n), representation maps
rho_n : G_n -> S_n, and injective cloning maps kappa_k^n : G_n -> G_{n+d-1}.
Maps are written on the right in the source material; here clone(n, k, g)
computes (g)kappa_k^n and compositions apply the leftmost kappa first.

The three axioms, in the conventions used throughout this package
(mul(g, h) is the product gh, i.e. h acts first on points):

  C1  clone(n, k, gh) == mul(clone(n, rho(h)(k), g), clone(n, k, h))
  C2  clone(n+d-1, k, clone(n, l, g)) == clone(n+d-1, l+d-1, clone(n, k, g))
      for k < l
  C3  rho(clone(n, k, g))(i) == symmetric_clone(rho(g), k)(i)
      for i outside the block k..k+d-1
"""

from __future__ import annotations

import random
from itertools import chain

from .groups import (
    BaseGroup,
    CyclicShiftFamily,
    GroupFamily,
    Monomorphism,
    ProductFamily,
    PsiFamily,
    StabilizerFamily,
    SymmetricFamily,
    TrivialPermFamily,
    base_group_by_name,
    mono_for,
    perm_apply,
    perm_identity,
)


def standard_symmetric_clone(
    p: tuple[int, ...], k: int, d: int
) -> tuple[int, ...]:
    """Replace arrow k -> p(k) of a permutation diagram by d parallel arrows.

    The cloned block maps k+i -> p(k)+i for 0 <= i < d; every other arrow
    keeps its endpoints except that domain points above k and codomain points
    above p(k) shift up by d-1.  The identity clones to the identity (C1).
    """
    n = len(p)
    if not 1 <= k <= n:
        raise IndexError(f"clone position {k} out of range 1..{n}")
    if p == perm_identity(n):
        return perm_identity(n + d - 1)
    pk = p[k - 1]
    images = [s if s < pk else s + d - 1 for s in p]
    images[k - 1 : k] = range(pk, pk + d)
    return tuple(images)


def try_symmetric_unclone(
    pp: tuple[int, ...], k: int, d: int
) -> tuple[int, ...] | None:
    """Collapse d parallel arrows at block k, or None if no preimage exists.

    pp must be a permutation (every caller passes an element of G_{n+d-1}),
    so block k..k+d-1 mapping in order onto pp(k)..pp(k)+d-1 is the whole test.
    """
    n = len(pp) - (d - 1)
    if not 1 <= k <= n:
        return None
    pk = pp[k - 1]
    for i in range(1, d):
        if pp[k - 1 + i] != pk + i:
            return None
    images = [s if s <= pk else s - (d - 1) for s in pp]
    del images[k : k + d - 1]
    return tuple(images)


class CloningSystem:
    """Arity, group family, representation maps, and cloning maps."""

    name: str
    d: int
    family: GroupFamily
    # declared structural properties; probe_property verifies them empirically
    fully_compatible: bool
    pure: bool
    uniform: bool
    permutation_type: bool  # middle groups are leaf permutations (F/T/V/Vhat)

    def rho(self, n: int, g) -> tuple[int, ...]:
        raise NotImplementedError

    def clone(self, n: int, k: int, g):
        raise NotImplementedError

    def try_unclone(self, n: int, k: int, gp):
        """Preimage of gp under clone(n, k, .), or None; gp lies in G_{n+d-1}."""
        raise NotImplementedError

    def __repr__(self):
        return f"<CloningSystem {self.name} d={self.d}>"


class SymmetricSystem(CloningSystem):
    """The standard symmetric-group cloning maps, restricted to a subfamily.

    kind "V" uses all of S_n, "T" the cyclic shifts, "F" the trivial
    subgroups, and "Vhat" the stabilizer of the last point.
    """

    _FAMILIES = {
        "V": SymmetricFamily,
        "T": CyclicShiftFamily,
        "F": TrivialPermFamily,
        "Vhat": StabilizerFamily,
    }

    def __init__(self, kind: str, d: int = 2):
        if kind not in self._FAMILIES:
            raise ValueError(f"unknown symmetric system kind {kind!r}")
        if d < 2:
            raise ValueError(f"arity must be >= 2, got {d}")
        self.kind = kind
        self.d = d
        self.family = self._FAMILIES[kind]()
        self.name = kind if d == 2 else f"{kind}:{d}"
        self.fully_compatible = True
        self.pure = kind == "F"
        self.uniform = True
        self.permutation_type = True

    def rho(self, n, g):
        return g

    def clone(self, n, k, g):
        if len(g) != n:
            raise ValueError("element size does not match n")
        return standard_symmetric_clone(g, k, self.d)

    def try_unclone(self, n, k, gp):
        # each family is closed under uncloning: a rotation whose block maps
        # onto a block collapses to a rotation, the last point stays last,
        # and the identity unclones to the identity
        return try_symmetric_unclone(gp, k, self.d)


class ProductSystem(CloningSystem):
    """Direct products of a base group, cloned through d monomorphisms.

    Cloning at slot k replaces the entry x there by the block
    (phi_1(x), ..., phi_d(x)); representation maps are trivial, so the
    system is pure.  With psi=True the first coordinate is pinned to the
    identity, which restores diversity even when the monomorphism images
    overlap.
    """

    def __init__(
        self, base: BaseGroup, monos: tuple[Monomorphism, ...], psi: bool = False
    ):
        if len(monos) < 2:
            raise ValueError("need at least 2 monomorphisms (d >= 2)")
        self.base = base
        self.monos = tuple(monos)
        self.d = len(monos)
        self.psi = psi
        self.family = PsiFamily(base) if psi else ProductFamily(base)
        labels = ",".join(m.label for m in monos)
        self.name = f"{'psi' if psi else 'prod'}:{base.name}:{labels}"
        self.fully_compatible = True
        self.pure = True
        self.uniform = all(m.label == "id" for m in monos)
        self.permutation_type = False

    def rho(self, n, g):
        return perm_identity(n)

    def clone(self, n, k, g):
        if len(g) != n:
            raise ValueError("element size does not match n")
        if not 1 <= k <= n:
            raise IndexError(f"clone position {k} out of range 1..{n}")
        x = g[k - 1]
        if x == self.base.identity:
            # every monomorphism fixes the identity
            block = (x,) * self.d
        else:
            block = tuple(m.apply(x) for m in self.monos)
        return g[: k - 1] + block + g[k:]

    def try_unclone(self, n, k, gp):
        if len(gp) != n + self.d - 1 or not 1 <= k <= n:
            return None
        block = gp[k - 1 : k - 1 + self.d]
        x = self.monos[0].try_preimage(block[0])
        if x is None:
            return None
        if any(m.apply(x) != b for m, b in zip(self.monos, block)):
            return None
        # x is a monomorphism preimage, so a psi coordinate 1 stays 1
        return gp[: k - 1] + (x,) + gp[k - 1 + self.d :]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def make_system(key: str) -> CloningSystem:
    """Build a system from a registry key.

    Grammar:  F | T | V | Vhat          (arity 2)
              F:<d> | T:<d> | V:<d> | Vhat:<d>
              prod:<group>:<m1>,...,<md>
              psi:<group>:<m1>,...,<md>
    with groups Z<m> or F2 and monomorphisms id, inv (abelian), swap (F2).
    """
    parts = key.split(":")
    head = parts[0]
    if head in ("F", "T", "V", "Vhat"):
        if len(parts) == 1:
            return SymmetricSystem(head, 2)
        if len(parts) == 2 and parts[1].isdigit():
            return SymmetricSystem(head, int(parts[1]))
        raise ValueError(f"bad system key {key!r}")
    if head in ("prod", "psi"):
        if len(parts) != 3:
            raise ValueError(f"bad system key {key!r}")
        base = base_group_by_name(parts[1])
        labels = [x.strip() for x in parts[2].split(",") if x.strip()]
        if len(labels) < 2:
            raise ValueError(f"need at least 2 monomorphisms in {key!r}")
        monos = tuple(mono_for(base, lab) for lab in labels)
        return ProductSystem(base, monos, psi=(head == "psi"))
    raise ValueError(f"unknown system key {key!r}")


BUILTIN_SYSTEM_KEYS = (
    "F",
    "T",
    "V",
    "Vhat",
    "prod:Z3:id,id",
    "prod:Z3:id,inv",
    "prod:F2:id,swap",
    "psi:Z3:id,id",
    "psi:F2:id,swap",
)


# ---------------------------------------------------------------------------
# axiom checks
# ---------------------------------------------------------------------------

def _axiom_positions(axiom: str, n: int, d: int, ks=None) -> list[dict]:
    """Every position where the axiom is asserted on level n, as keywords.

    ks, a subset of 1..n, keeps only the rows of those k; the default is all.
    """
    ks = range(1, n + 1) if ks is None else ks
    if axiom == "C1":
        return [{"k": k} for k in ks]
    if axiom == "C2":
        return [{"k": k, "l": l} for k in ks for l in range(k + 1, n + 1)]
    if axiom == "C3":
        return [
            {"k": k, "i": i} for k in ks for i in range(1, n + d) if not k <= i < k + d
        ]
    raise ValueError(f"unknown axiom {axiom!r}")


def _axiom_position_count(axiom: str, n: int) -> int:
    """len(_axiom_positions(axiom, n, d)), the same for every d."""
    return {"C1": n, "C2": n * (n - 1) // 2, "C3": n * (n - 1)}[axiom]


def _axiom_position(axiom: str, n: int, d: int, idx: int) -> dict:
    """_axiom_positions(axiom, n, d)[idx], without building the table."""
    if axiom == "C1":
        return {"k": idx + 1}
    if axiom == "C2":  # row k holds the n - k positions l = k+1..n
        k = 1
        while idx >= n - k:
            idx -= n - k
            k += 1
        return {"k": k, "l": k + 1 + idx}
    k, r = divmod(idx, n - 1)  # row k + 1 holds the n - 1 positions i outside k+1..k+d
    return {"k": k + 1, "i": r + 1 if r < k else r + 1 + d}


def _axiom_instance(system: CloningSystem, axiom: str, n: int, g, h, pos: dict):
    """(ok, payload) for one instance, unchecked: pos is from _axiom_positions."""
    fam, d, k = system.family, system.d, pos["k"]
    head = {"n": n, "g": g, "h": h} if axiom == "C1" else {"n": n, "g": g}
    if axiom == "C1":
        lhs = system.clone(n, k, fam.mul(n, g, h))
        hk = perm_apply(system.rho(n, h), k)
        rhs = fam.mul(n + d - 1, system.clone(n, hk, g), system.clone(n, k, h))
    elif axiom == "C2":
        l = pos["l"]
        lhs = system.clone(n + d - 1, k, system.clone(n, l, g))
        rhs = system.clone(n + d - 1, l + d - 1, system.clone(n, k, g))
    else:
        i = pos["i"]
        lhs = perm_apply(system.rho(n + d - 1, system.clone(n, k, g)), i)
        rhs = perm_apply(standard_symmetric_clone(system.rho(n, g), k, d), i)
    return lhs == rhs, {**head, **pos, "lhs": lhs, "rhs": rhs}


def check_axiom(
    system: CloningSystem,
    axiom: str,
    n: int,
    g=None,
    h=None,
    k: int | None = None,
    l: int | None = None,
    i: int | None = None,
) -> tuple[bool, dict]:
    """Evaluate one instance of C1, C2 or C3 exactly.

    This is the one place an instance is checked: the position must be one
    where the axiom is asserted on level n, and g (and h, exactly for C1)
    must lie in G_n, else ValueError.  Returns (ok, payload); the payload
    carries both sides of the identity so callers can report a counterexample.
    """
    pos = {key: v for key, v in zip("kli", (k, l, i)) if v is not None}
    own_rows = [k] if k in range(1, n + 1) else []  # a position's rows share its k
    if pos not in _axiom_positions(axiom, n, system.d, own_rows):
        raise ValueError(f"{axiom} is not asserted at {pos} on level {n}")
    if g is None or (h is None) == (axiom == "C1"):
        raise ValueError(f"{axiom} needs g{' and h' if axiom == 'C1' else ', not h'}")
    if not all(system.family.contains(n, x) for x in (g, h) if x is not None):
        raise ValueError(f"{axiom} needs elements of G_{n}")
    return _axiom_instance(system, axiom, n, g, h, pos)


def verify_axioms(
    system: CloningSystem,
    n_max: int = 4,
    exhaustive: bool = False,
    budget: int = 1000,
    seed: int = 0,
) -> dict:
    """Sweep C1-C3 over n <= n_max, exhaustively or on seeded samples.

    Exhaustive sweeps are proofs at the checked levels; sampled sweeps are
    evidence only.  A sampled instance draws g, then a position uniformly
    from the axiom's table (drawn by index, so the table is never built),
    then h for C1.  Stops at the first counterexample.
    """
    if n_max < 1:
        raise ValueError("n must be >= 1")
    if not exhaustive and budget < 1:
        raise ValueError(f"sampled sweep checks no instance at budget {budget}")
    rng = random.Random(seed)
    fam, d = system.family, system.d
    checked = {"C1": 0, "C2": 0, "C3": 0}
    result = {"ok": True, "checked": checked, "exhaustive": exhaustive}
    for axiom in checked:
        with_h = axiom == "C1"  # the only axiom over pairs g, h
        levels = [n for n in range(1, n_max + 1) if _axiom_position_count(axiom, n)]
        per_level = -(-budget // max(1, len(levels)))
        for n in levels:
            if exhaustive:
                positions = _axiom_positions(axiom, n, d)
                elems = tuple(fam.iterate(n))
                hs = elems if with_h else (None,)
                instances = ((g, p, h) for g in elems for h in hs for p in positions)
            else:  # drawn left to right: g, the position, then h
                count = _axiom_position_count(axiom, n)
                instances = (
                    (fam.sample(n, rng), _axiom_position(axiom, n, d, rng.randrange(count)))
                    + (fam.sample(n, rng) if with_h else None,)
                    for _ in range(per_level)
                )
            for g, pos, h in instances:
                ok, payload = _axiom_instance(system, axiom, n, g, h, pos)
                checked[axiom] += 1
                if not ok:
                    result.update(ok=False, axiom=axiom, counterexample=payload)
                    return result
    return result


# ---------------------------------------------------------------------------
# property probes
# ---------------------------------------------------------------------------

PROBE_PROPERTIES = ("pure", "slightly_pure", "fully_compatible", "uniform")


def property_counterexample(
    system: CloningSystem, prop: str, n: int, g
) -> dict | None:
    """Counterexample for one element, or None if the property holds on it."""
    d = system.d
    if prop in ("pure", "slightly_pure"):  # rho(g) is trivial, or fixes n
        rho = system.rho(n, g)
        ok = rho == perm_identity(n) if prop == "pure" else perm_apply(rho, n) == n
        return None if ok else {"n": n, "g": g, "rho": rho}
    if prop == "fully_compatible":
        for k in range(1, n + 1):
            lhs = system.rho(n + d - 1, system.clone(n, k, g))
            rhs = standard_symmetric_clone(system.rho(n, g), k, d)
            if lhs != rhs:
                return {"n": n, "g": g, "k": k, "lhs": lhs, "rhs": rhs}
        return None
    if prop == "uniform":
        for k in range(1, n + 1):
            once = system.clone(n, k, g)
            images = {
                system.clone(n + d - 1, l, once) for l in range(k, k + d)
            }
            if len(images) > 1:
                return {"n": n, "g": g, "k": k, "images": sorted(images)}
        return None
    raise ValueError(f"unknown property {prop!r}")


def probe_property(
    system: CloningSystem,
    prop: str,
    n_max: int = 4,
    budget: int = 500,
    seed: int = 0,
) -> dict:
    """Probe a universally quantified property of the system.

    Verdicts: "holds-exhaustive" (finite levels fully enumerated),
    "holds-on-samples" (no counterexample found; not a proof), or "fails"
    with a counterexample payload.  A sampled probe checks exactly `budget`
    elements, spread as evenly as possible over the levels (the lower
    levels take the remainder); one that would check none raises ValueError.
    """
    if prop not in PROBE_PROPERTIES:
        raise ValueError(f"unknown property {prop!r}")
    if n_max < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    exhaustive = all(system.family.is_finite(n) for n in range(1, n_max + 1))
    if not exhaustive and budget < 1:
        raise ValueError(f"sampled probe checks no element at budget {budget}")
    for n in range(1, n_max + 1):
        if exhaustive:
            elems = system.family.iterate(n)
        else:
            per_level = budget // n_max + (n <= budget % n_max)
            elems = [system.family.sample(n, rng) for _ in range(per_level)]
        for g in elems:
            bad = property_counterexample(system, prop, n, g)
            if bad is not None:
                return {"property": prop, "verdict": "fails", "counterexample": bad}
    verdict = "holds-exhaustive" if exhaustive else "holds-on-samples"
    return {"property": prop, "verdict": verdict, "n_max": n_max}


# ---------------------------------------------------------------------------
# image membership and diversity
# ---------------------------------------------------------------------------

def image_membership(system: CloningSystem, n: int, k: int, x) -> bool:
    """Exact test for x in the image of clone(n, k, .), for any value x."""
    in_group = system.family.contains(n + system.d - 1, x)  # try_unclone assumes it
    return in_group and system.try_unclone(n, k, x) is not None


def alternating_tuple(phi: Monomorphism, g, length: int) -> tuple:
    """The tuple g, phi(g), g, ... of the given length."""
    return tuple(g if i % 2 == 0 else phi.apply(g) for i in range(length))


def in_all_images(system: CloningSystem, n: int, x) -> bool:
    """Exact test for x in the image of clone(n, k, .) at every k = 1..n."""
    if n < 1:
        raise ValueError("n must be >= 1")  # no clone map to test against
    # membership in G_{n+d-1}, which try_unclone assumes, is tested once for all k
    return system.family.contains(n + system.d - 1, x) and all(
        system.try_unclone(n, k, x) is not None for k in range(1, n + 1)
    )


def is_id_phi_product(system: CloningSystem) -> bool:
    """Whether the system is a binary product prod:<group>:id,<phi>."""
    return (
        isinstance(system, ProductSystem)
        and not system.psi
        and system.d == 2
        and system.monos[0].label == "id"
    )


def _pattern_candidates(system: CloningSystem, n: int, rng, budget: int):
    """Witness candidates for the non-diversity families of product systems.

    Constant tuples work whenever the monomorphisms share fixed points
    (e.g. all identity); alternating tuples g, phi(g), g, ... handle the
    systems prod:<group>:id,<phi> with an order-two monomorphism phi.
    """
    if not isinstance(system, ProductSystem) or system.psi:
        return
    base = system.base
    sample_gs = base.elements()
    if sample_gs is None:
        sample_gs = tuple(base.sample(rng) for _ in range(min(budget, 50)))
    big = n + system.d - 1
    for g in sample_gs:
        yield (g,) * big
    if is_id_phi_product(system):
        for g in sample_gs:
            yield alternating_tuple(system.monos[1], g, big)


def diversity_witness(
    system: CloningSystem,
    n: int,
    budget: int = 500,
    seed: int = 0,
    exhaustive: bool | None = None,
) -> dict:
    """Search for a nontrivial element in the intersection of all clone images.

    When G_{n+d-1} is finite the search runs over clone_1(G_n), which holds
    the intersection, and an empty result proves it trivial at this level;
    otherwise constructed candidates and seeded samples are tried and
    absence is evidence only.
    A sampled search that draws no candidate at all raises ValueError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    fam, big = system.family, n + system.d - 1
    identity = fam.identity(big)
    if exhaustive is None:
        exhaustive = fam.is_finite(big)
    if exhaustive:  # clone_1 is injective, so each candidate comes once
        candidates = (system.clone(n, 1, h) for h in fam.iterate(n))
    else:  # constructed candidates first, then samples drawn only as needed
        samples = (fam.sample(big, rng) for _ in range(budget))
        candidates = chain(_pattern_candidates(system, n, rng, budget), samples)
    x = None  # stays None only when the stream is empty
    for x in candidates:
        # clone_1(h) lies in G_{n+d-1} and the image at k = 1 already
        if x != identity and (
            all(system.try_unclone(n, k, x) is not None for k in range(2, n + 1))
            if exhaustive
            else in_all_images(system, n, x)
        ):
            return {"witness": x, "exhaustive": exhaustive}
    if x is None:
        raise ValueError(f"sampled search tried no candidate at budget {budget}")
    return {"witness": None, "exhaustive": exhaustive}
