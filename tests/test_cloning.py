import random
from itertools import permutations

import pytest

from cloning_systems.cloning import (
    BUILTIN_SYSTEM_KEYS,
    ProductSystem,
    SymmetricSystem,
    check_axiom,
    diversity_witness,
    image_membership,
    make_system,
    probe_property,
    standard_symmetric_clone,
    try_symmetric_unclone,
    verify_axioms,
)
from cloning_systems.groups import cycle_perm, perm_apply, perm_identity

ALL_SYSTEMS = [make_system(key) for key in BUILTIN_SYSTEM_KEYS]
FINITE_SYSTEMS = [s for s in ALL_SYSTEMS if s.family.is_finite(4)]
INFINITE_SYSTEMS = [s for s in ALL_SYSTEMS if not s.family.is_finite(4)]


def test_symmetric_clone_three_cycle():
    # cloning the third arrow of the 3-cycle at arity 3 yields the 5-cycle
    assert standard_symmetric_clone(cycle_perm(3, (1, 2, 3)), 3, 3) == cycle_perm(
        5, (1, 4, 2, 5, 3)
    )


def test_symmetric_clone_identity():
    for n in range(1, 5):
        for k in range(1, n + 1):
            for d in (2, 3):
                assert standard_symmetric_clone(perm_identity(n), k, d) == perm_identity(
                    n + d - 1
                )


def test_symmetric_clone_swap():
    assert standard_symmetric_clone(cycle_perm(2, (1, 2)), 1, 2) == cycle_perm(
        3, (1, 2, 3)
    )


def test_symmetric_clone_range_error():
    with pytest.raises(IndexError):
        standard_symmetric_clone(perm_identity(3), 4, 2)


def test_symmetric_unclone_roundtrip_exhaustive():
    from itertools import permutations

    for d in (2, 3):
        for n in (1, 2, 3):
            for images in permutations(range(1, n + 1)):
                for k in range(1, n + 1):
                    cloned = standard_symmetric_clone(images, k, d)
                    assert try_symmetric_unclone(cloned, k, d) == images


def test_symmetric_unclone_rejects_non_image():
    # (1 2 3) = (1 2) cloned at 1, so uncloning there succeeds but not at 2
    assert try_symmetric_unclone(cycle_perm(3, (1, 2, 3)), 1, 2) == cycle_perm(2, (1, 2))
    assert try_symmetric_unclone(cycle_perm(3, (1, 2, 3)), 2, 2) is None
    # (1 3 2) = (1 2) cloned at 2; it has no parallel block starting at 1
    assert try_symmetric_unclone(cycle_perm(3, (1, 3, 2)), 1, 2) is None
    assert try_symmetric_unclone(cycle_perm(3, (1, 3, 2)), 2, 2) == cycle_perm(2, (1, 2))


def _loop_symmetric_clone(p, k, d):
    """Oracle: the clone built point by point over the n + d - 1 positions."""
    n = len(p)
    if not 1 <= k <= n:
        raise IndexError(f"clone position {k} out of range 1..{n}")
    pk = p[k - 1]
    images = []
    for j in range(1, n + d):
        if k <= j <= k + d - 1:
            images.append(pk + (j - k))
            continue
        i = j if j < k else j - (d - 1)
        si = p[i - 1]
        images.append(si if si < pk else si + d - 1)
    return tuple(images)


def _recloning_symmetric_unclone(pp, k, d):
    """Oracle: collapse block k point by point, then keep it only if it clones back."""
    big = len(pp)
    n = big - (d - 1)
    if n < 1 or not 1 <= k <= n:
        return None
    pk = pp[k - 1]
    if pk + d - 1 > big:
        return None
    for i in range(d):
        if pp[k - 1 + i] != pk + i:
            return None
    images = []
    for i in range(1, n + 1):
        j = i if i < k else i + (d - 1)
        if i == k:
            images.append(pk)
            continue
        s = pp[j - 1]
        images.append(s if s < pk else s - (d - 1))
    candidate = tuple(images)
    if _loop_symmetric_clone(candidate, k, d) != pp:
        return None
    return candidate


def _checked_unclone_oracle(system, n, k, gp):
    """Oracle: the preimage under clone(n, k, .), re-checked for membership in G_n."""
    if isinstance(system, ProductSystem):
        if len(gp) != n + system.d - 1 or not 1 <= k <= n:
            return None
        block = gp[k - 1 : k - 1 + system.d]
        x = system.monos[0].try_preimage(block[0])
        if x is None or any(m.apply(x) != b for m, b in zip(system.monos, block)):
            return None
        candidate = gp[: k - 1] + (x,) + gp[k - 1 + system.d :]
    else:
        candidate = _recloning_symmetric_unclone(gp, k, system.d)
    if candidate is None or not system.family.contains(n, candidate):
        return None
    return candidate


@pytest.mark.parametrize("d", [2, 3, 4])
def test_symmetric_clone_and_unclone_match_the_loop_oracles(d):
    for big in range(1, 7):
        for p in permutations(range(1, big + 1)):
            for k in range(0, big + 2):
                try:
                    expected = _loop_symmetric_clone(p, k, d)
                except IndexError:
                    with pytest.raises(IndexError):
                        standard_symmetric_clone(p, k, d)
                else:
                    assert standard_symmetric_clone(p, k, d) == expected
                assert try_symmetric_unclone(p, k, d) == _recloning_symmetric_unclone(
                    p, k, d
                )


def _assert_unclone_matches_oracle(system, n, k, gp):
    got = system.try_unclone(n, k, gp)
    expected = _checked_unclone_oracle(system, n, k, gp)
    assert (got is None) == (expected is None), (n, k, gp)
    if got is not None:
        assert got == expected
        assert system.family.contains(n, got)
        assert system.clone(n, k, got) == gp


@pytest.mark.parametrize(
    "key",
    [
        f"{kind}:{d}" for d in (2, 3, 4) for kind in ("V", "T", "F", "Vhat")
    ] + [
        "prod:Z3:id,id", "prod:Z3:id,inv", "psi:Z3:id,id", "psi:Z3:inv,id",
        "prod:Z3:id,inv,id", "psi:Z3:id,id,inv",
    ],
)
def test_unclone_matches_the_checked_oracle_on_whole_levels(key):
    system = make_system(key)
    for big in range(system.d, 8):
        n = big - system.d + 1
        for gp in system.family.enumerate(big):
            for k in range(0, n + 2):
                _assert_unclone_matches_oracle(system, n, k, gp)


@pytest.mark.parametrize("key", ["prod:F2:id,swap", "psi:F2:id,swap", "psi:F2:swap,id"])
def test_unclone_matches_the_checked_oracle_on_free_samples(key):
    system = make_system(key)
    rng = random.Random(11)
    for _ in range(20000):
        n = rng.randint(1, 5)
        k = rng.randint(0, n + 1)
        if rng.random() < 0.5:
            gp = system.clone(n, rng.randint(1, n), system.family.sample(n, rng))
        else:
            gp = system.family.sample(n + system.d - 1, rng)
        _assert_unclone_matches_oracle(system, n, k, gp)


def test_registry_keys():
    assert make_system("V").d == 2
    assert make_system("V:3").d == 3
    assert make_system("psi:Z3:id,id").psi
    assert make_system("prod:F2:id,swap").d == 2
    for bad in (
        "NOPE", "V:x", "prod:Z3", "prod:Q8:id,id", "psi:Z3:id", "V:0", "V:1", "Vhat:1"
    ):
        with pytest.raises(ValueError):
            make_system(bad)


def test_identity_clones_to_identity():
    for system in ALL_SYSTEMS:
        fam = system.family
        for n in range(1, 5):
            e = fam.identity(n)
            for k in range(1, n + 1):
                assert system.clone(n, k, e) == fam.identity(n + system.d - 1)


@pytest.mark.parametrize("system", FINITE_SYSTEMS, ids=lambda s: s.name)
def test_axioms_exhaustive_finite(system):
    result = verify_axioms(system, n_max=4, exhaustive=True)
    assert result["ok"], result


@pytest.mark.parametrize(
    "key", ["V:3", "T:3", "F:3", "Vhat:3", "psi:Z3:id,id,id", "prod:Z3:id,inv,id"]
)
def test_axioms_exhaustive_arity_three(key):
    result = verify_axioms(make_system(key), n_max=4, exhaustive=True)
    assert result["ok"], result


@pytest.mark.parametrize("system", INFINITE_SYSTEMS, ids=lambda s: s.name)
def test_axioms_sampled_infinite(system):
    result = verify_axioms(system, n_max=6, budget=1000, seed=0)
    assert result["ok"], result
    assert sum(result["checked"].values()) >= 3000


class _FirstLeafCloning(SymmetricSystem):
    """Clones at the first leaf whatever k is asked for: C1 fails for S_2."""

    def clone(self, n, k, g):
        return super().clone(n, 1, g)


@pytest.mark.parametrize("exhaustive", [True, False])
def test_verify_axioms_reports_a_counterexample(exhaustive):
    broken = _FirstLeafCloning("V")
    result = verify_axioms(broken, n_max=3, exhaustive=exhaustive, budget=200, seed=0)
    assert result["ok"] is False
    assert result["axiom"] == "C1"
    assert result["exhaustive"] is exhaustive
    payload = result["counterexample"]
    assert payload["lhs"] != payload["rhs"]
    n, g, h, k = payload["n"], payload["g"], payload["h"], payload["k"]
    assert payload["lhs"] == broken.clone(n, k, broken.family.mul(n, g, h))
    assert check_axiom(broken, "C1", n, g=g, h=h, k=k) == (False, payload)


def test_axiom_c1_trivial_elements():
    for system in ALL_SYSTEMS:
        e = system.family.identity(3)
        ok, payload = check_axiom(system, "C1", 3, g=e, h=e, k=2)
        assert ok
        assert payload["lhs"] == system.family.identity(3 + system.d - 1)


def test_check_axiom_validates_ranges():
    v = make_system("V")
    e = perm_identity(3)
    with pytest.raises(ValueError):
        check_axiom(v, "C1", 3, g=e, h=e, k=5)
    with pytest.raises(ValueError):
        check_axiom(v, "C2", 3, g=e, k=2, l=2)
    with pytest.raises(ValueError):
        check_axiom(v, "C3", 3, g=e, k=1, i=2)  # i inside the cloned block
    with pytest.raises(ValueError):
        check_axiom(v, "C9", 3, g=e, h=e, k=1)


@pytest.mark.parametrize("system", ALL_SYSTEMS, ids=lambda s: s.name)
def test_unclone_roundtrip_sampled(system):
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 5)
        g = system.family.sample(n, rng)
        k = rng.randint(1, n)
        assert system.try_unclone(n, k, system.clone(n, k, g)) == g


@pytest.mark.parametrize("system", ALL_SYSTEMS, ids=lambda s: s.name)
def test_inverse_relation(system):
    # ((g)kappa_k)^{-1} = (g^{-1})kappa_{rho(g)k}
    rng = random.Random(6)
    fam = system.family
    for _ in range(200):
        n = rng.randint(1, 5)
        g = fam.sample(n, rng)
        k = rng.randint(1, n)
        lhs = fam.inv(n + system.d - 1, system.clone(n, k, g))
        rhs = system.clone(n, perm_apply(system.rho(n, g), k), fam.inv(n, g))
        assert lhs == rhs


@pytest.mark.parametrize(
    "key", ["prod:Z3:id,id", "prod:F2:id,swap", "psi:Z3:id,id", "F"]
)
def test_pure_systems_clone_is_homomorphism(key):
    system = make_system(key)
    assert system.pure
    rng = random.Random(7)
    fam = system.family
    for _ in range(150):
        n = rng.randint(1, 5)
        g, h = fam.sample(n, rng), fam.sample(n, rng)
        k = rng.randint(1, n)
        assert system.clone(n, k, fam.mul(n, g, h)) == fam.mul(
            n + system.d - 1, system.clone(n, k, g), system.clone(n, k, h)
        )


@pytest.mark.parametrize(
    "key,n", [("psi:Z3:id,id", 3), ("psi:F2:id,swap", 3), ("Vhat", 4), ("T", 4)]
)
def test_restriction_closure(key, n):
    system = make_system(key)
    rng = random.Random(8)
    for _ in range(100):
        level = rng.randint(1, n)
        g = system.family.sample(level, rng)
        k = rng.randint(1, level)
        assert system.family.contains(level + system.d - 1, system.clone(level, k, g))


def test_probe_fully_compatible_and_pure_on_v():
    v = make_system("V")
    assert probe_property(v, "fully_compatible")["verdict"] == "holds-exhaustive"
    result = probe_property(v, "pure")
    assert result["verdict"] == "fails"
    assert result["counterexample"]["rho"] != perm_identity(
        len(result["counterexample"]["rho"])
    )


def test_probe_slightly_pure_on_vhat():
    vhat = make_system("Vhat")
    assert probe_property(vhat, "slightly_pure")["verdict"] == "holds-exhaustive"
    assert probe_property(vhat, "pure")["verdict"] == "fails"


def test_probe_uniform_fails_for_swap_products():
    system = make_system("prod:F2:id,swap")
    result = probe_property(system, "uniform", budget=200, seed=1)
    assert result["verdict"] == "fails"
    bad = result["counterexample"]
    # cloning the fresh copy at different spots disagrees on a twisted tuple
    assert len(bad["images"]) > 1


def test_probe_uniform_holds_for_identity_products():
    assert (
        probe_property(make_system("prod:Z3:id,id"), "uniform")["verdict"]
        == "holds-exhaustive"
    )


def test_image_membership_identity_and_constant_tuples():
    for system in ALL_SYSTEMS:
        e = system.family.identity(3 + system.d - 1)
        for k in range(1, 4):
            assert image_membership(system, 3, k, e)
    prod = make_system("prod:Z3:id,id")
    for k in range(1, 4):
        assert image_membership(prod, 3, k, (2, 2, 2, 2))


def test_image_membership_psi_block_violation():
    # an element concentrated in slot 2 cannot come from cloning slot 1
    psi = make_system("psi:Z3:id,id")
    x = (0, 1, 0, 0)
    assert not image_membership(psi, 3, 1, x)
    # independent oracle: slot-1 clones of the level-3 subgroup never hit x
    level3 = psi.family.enumerate(3)
    assert x not in {psi.clone(3, 1, g) for g in level3}


def test_image_membership_rejects_values_outside_the_family():
    # each collapses to a tuple at block k, but none lies in G_{n+d-1}
    assert not image_membership(make_system("T"), 3, 1, (1, 2, 4, 3))
    assert not image_membership(make_system("Vhat"), 3, 1, (1, 2, 4, 3))
    assert not image_membership(make_system("psi:Z3:id,id"), 3, 2, (1, 0, 0, 0))
    assert not image_membership(make_system("V"), 3, 1, (1, 2, 3))


def test_diversity_exhaustive_v2():
    result = diversity_witness(make_system("V"), 3)
    assert result["exhaustive"] and result["witness"] is None


def test_diversity_psi_z3():
    psi = make_system("psi:Z3:id,id")
    for n in (1, 2, 3):
        result = diversity_witness(psi, n)
        assert result["exhaustive"] and result["witness"] is None


def test_diversity_constant_witness_identity_products():
    result = diversity_witness(make_system("prod:Z3:id,id"), 3)
    assert result["witness"] is not None
    g = result["witness"][0]
    assert result["witness"] == (g,) * 4


def test_diversity_alternating_witness_swap_products():
    system = make_system("prod:F2:id,swap")
    swap = system.monos[1]
    for n in (3, 4):  # odd and even levels
        result = diversity_witness(system, n, seed=3)
        w = result["witness"]
        assert w is not None
        g = w[0]
        assert w == tuple(g if i % 2 == 0 else swap.apply(g) for i in range(n + 1))
        for k in range(1, n + 1):
            assert image_membership(system, n, k, w)


def test_diversity_witness_validates_level():
    with pytest.raises(ValueError):
        diversity_witness(make_system("V"), 0)
