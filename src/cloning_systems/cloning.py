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
from typing import Iterator, Optional

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
    above p(k) shift up by d-1.
    """
    n = len(p)
    if not 1 <= k <= n:
        raise IndexError(f"clone position {k} out of range 1..{n}")
    pk = p[k - 1]
    images = [s if s < pk else s + d - 1 for s in p]
    images[k - 1 : k] = range(pk, pk + d)
    return tuple(images)


def try_symmetric_unclone(
    pp: tuple[int, ...], k: int, d: int
) -> Optional[tuple[int, ...]]:
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
        self,
        base: BaseGroup,
        monos: tuple[Monomorphism, ...],
        psi: bool = False,
        name: Optional[str] = None,
    ):
        if len(monos) < 2:
            raise ValueError("need at least 2 monomorphisms (d >= 2)")
        self.base = base
        self.monos = tuple(monos)
        self.d = len(monos)
        self.psi = psi
        self.family = PsiFamily(base) if psi else ProductFamily(base)
        labels = ",".join(m.label for m in monos)
        self.name = name or f"{'psi' if psi else 'prod'}:{base.name}:{labels}"
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

def check_axiom(
    system: CloningSystem,
    axiom: str,
    n: int,
    g=None,
    h=None,
    k: Optional[int] = None,
    l: Optional[int] = None,
    i: Optional[int] = None,
) -> tuple[bool, dict]:
    """Evaluate one instance of C1, C2 or C3 exactly.

    Returns (ok, payload); on failure the payload carries both sides of the
    identity so callers can report a counterexample.
    """
    fam = system.family
    d = system.d
    if axiom == "C1":
        if g is None or h is None or k is None or not 1 <= k <= n:
            raise ValueError("C1 needs g, h in G_n and 1 <= k <= n")
        lhs = system.clone(n, k, fam.mul(n, g, h))
        rhs = fam.mul(
            n + d - 1,
            system.clone(n, perm_apply(system.rho(n, h), k), g),
            system.clone(n, k, h),
        )
        ok = lhs == rhs
        payload = {"n": n, "g": g, "h": h, "k": k, "lhs": lhs, "rhs": rhs}
    elif axiom == "C2":
        if g is None or k is None or l is None or not 1 <= k < l <= n:
            raise ValueError("C2 needs g in G_n and 1 <= k < l <= n")
        lhs = system.clone(n + d - 1, k, system.clone(n, l, g))
        rhs = system.clone(n + d - 1, l + d - 1, system.clone(n, k, g))
        ok = lhs == rhs
        payload = {"n": n, "g": g, "k": k, "l": l, "lhs": lhs, "rhs": rhs}
    elif axiom == "C3":
        if g is None or k is None or i is None or not 1 <= k <= n:
            raise ValueError("C3 needs g in G_n, 1 <= k <= n and a point i")
        if k <= i <= k + d - 1:
            raise ValueError("C3 is only asserted away from the cloned block")
        if not 1 <= i <= n + d - 1:
            raise ValueError(f"point {i} out of range 1..{n + d - 1}")
        lhs = perm_apply(system.rho(n + d - 1, system.clone(n, k, g)), i)
        rhs = perm_apply(standard_symmetric_clone(system.rho(n, g), k, d), i)
        ok = lhs == rhs
        payload = {"n": n, "g": g, "k": k, "i": i, "lhs": lhs, "rhs": rhs}
    else:
        raise ValueError(f"unknown axiom {axiom!r}")
    return ok, payload


def _axiom_instances_exhaustive(
    system: CloningSystem, axiom: str, n: int
) -> Iterator[dict]:
    fam = system.family
    elems = fam.enumerate(n)
    d = system.d
    if axiom == "C1":
        for g in elems:
            for h in elems:
                for k in range(1, n + 1):
                    yield {"g": g, "h": h, "k": k}
    elif axiom == "C2":
        for g in elems:
            for k in range(1, n + 1):
                for l in range(k + 1, n + 1):
                    yield {"g": g, "k": k, "l": l}
    else:
        for g in elems:
            for k in range(1, n + 1):
                for i in range(1, n + d):
                    if not k <= i <= k + d - 1:
                        yield {"g": g, "k": k, "i": i}


def _axiom_supports_level(axiom: str, n: int) -> bool:
    # C2 needs k < l <= n; C3 needs a point outside the cloned block
    return n >= 2 or axiom == "C1"


def _axiom_instances_sampled(
    system: CloningSystem, axiom: str, n: int, count: int, rng: random.Random
) -> Iterator[dict]:
    fam = system.family
    d = system.d
    for _ in range(count):
        g = fam.sample(n, rng)
        k = rng.randint(1, n)
        if axiom == "C1":
            yield {"g": g, "h": fam.sample(n, rng), "k": k}
        elif axiom == "C2":
            k = rng.randint(1, n - 1)
            yield {"g": g, "k": k, "l": rng.randint(k + 1, n)}
        else:
            points = [i for i in range(1, n + d) if not k <= i <= k + d - 1]
            yield {"g": g, "k": k, "i": rng.choice(points)}


def verify_axioms(
    system: CloningSystem,
    n_max: int = 4,
    exhaustive: bool = False,
    budget: int = 1000,
    seed: int = 0,
) -> dict:
    """Sweep C1-C3 over n <= n_max, exhaustively or on seeded samples.

    Exhaustive sweeps are proofs at the checked levels; sampled sweeps are
    evidence only.  Stops at the first counterexample.
    """
    if n_max < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    checked = {"C1": 0, "C2": 0, "C3": 0}
    for axiom in ("C1", "C2", "C3"):
        levels = [n for n in range(1, n_max + 1) if _axiom_supports_level(axiom, n)]
        per_level = max(1, -(-budget // max(1, len(levels))))
        for n in levels:
            if exhaustive:
                instances = _axiom_instances_exhaustive(system, axiom, n)
            else:
                instances = _axiom_instances_sampled(system, axiom, n, per_level, rng)
            for inst in instances:
                ok, payload = check_axiom(system, axiom, n, **inst)
                checked[axiom] += 1
                if not ok:
                    return {
                        "ok": False,
                        "axiom": axiom,
                        "counterexample": payload,
                        "checked": checked,
                        "exhaustive": exhaustive,
                    }
    return {"ok": True, "checked": checked, "exhaustive": exhaustive}


# ---------------------------------------------------------------------------
# property probes
# ---------------------------------------------------------------------------

PROBE_PROPERTIES = ("pure", "slightly_pure", "fully_compatible", "uniform")


def _probe_one(system: CloningSystem, prop: str, n: int, g) -> Optional[dict]:
    """Counterexample for one element, or None if the property holds on it."""
    d = system.d
    if prop == "pure":
        if system.rho(n, g) != perm_identity(n):
            return {"n": n, "g": g, "rho": system.rho(n, g)}
        return None
    if prop == "slightly_pure":
        if perm_apply(system.rho(n, g), n) != n:
            return {"n": n, "g": g, "rho": system.rho(n, g)}
        return None
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
    with a counterexample payload.
    """
    if prop not in PROBE_PROPERTIES:
        raise ValueError(f"unknown property {prop!r}")
    if n_max < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    exhaustive = all(system.family.is_finite(n) for n in range(1, n_max + 1))
    for n in range(1, n_max + 1):
        if exhaustive:
            elems = system.family.enumerate(n)
        else:
            per_level = max(1, budget // n_max)
            elems = [system.family.sample(n, rng) for _ in range(per_level)]
        for g in elems:
            bad = _probe_one(system, prop, n, g)
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


def _pattern_candidates(system: CloningSystem, n: int, rng, budget: int):
    """Witness candidates for the non-diversity families of product systems.

    Constant tuples work whenever the monomorphisms share fixed points
    (e.g. all identity); alternating tuples g, phi(g), g, ... handle the
    d = 2 systems built from an order-two monomorphism phi.
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
    if system.d == 2 and system.monos[0].label == "id":
        phi = system.monos[1]
        for g in sample_gs:
            yield tuple(g if i % 2 == 0 else phi.apply(g) for i in range(big))


def diversity_witness(
    system: CloningSystem,
    n: int,
    budget: int = 500,
    seed: int = 0,
    exhaustive: Optional[bool] = None,
) -> dict:
    """Search for a nontrivial element in the intersection of all clone images.

    When G_{n+d-1} is finite the search is exhaustive and an empty result
    proves the intersection trivial at this level; otherwise constructed
    candidates and seeded samples are tried and absence is evidence only.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    fam = system.family
    d = system.d
    big = n + d - 1
    identity = fam.identity(big)

    def in_all_images(x) -> bool:
        return all(image_membership(system, n, k, x) for k in range(1, n + 1))

    if exhaustive is None:
        exhaustive = fam.is_finite(big)
    if exhaustive:
        for x in fam.enumerate(big):
            if x != identity and in_all_images(x):
                return {"witness": x, "exhaustive": True}
        return {"witness": None, "exhaustive": True}

    seen = set()
    for x in _pattern_candidates(system, n, rng, budget):
        if x != identity and x not in seen:
            seen.add(x)
            if in_all_images(x):
                return {"witness": x, "exhaustive": False}
    for _ in range(budget):
        x = fam.sample(big, rng)
        if x != identity and x not in seen:
            seen.add(x)
            if in_all_images(x):
                return {"witness": x, "exhaustive": False}
    return {"witness": None, "exhaustive": False}
