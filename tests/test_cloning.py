import random
import tracemalloc
from itertools import permutations, product
from math import factorial

import pytest

from cloning_systems import cloning
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
from cloning_systems.thompson import Element
from cloning_systems.trees import caret
from test_thompson import ALL_KEYS

ALL_SYSTEMS = [make_system(key) for key in BUILTIN_SYSTEM_KEYS]
FINITE_SYSTEMS = [s for s in ALL_SYSTEMS if s.family.is_finite(4)]
INFINITE_SYSTEMS = [s for s in ALL_SYSTEMS if not s.family.is_finite(4)]


def _ternary(key):
    """The ternary form of a key: V -> V:3, prod:Z3:id,inv -> prod:Z3:id,inv,id."""
    return f"{key}:3" if ":" not in key else f"{key},id"


def test_symmetric_clone_three_cycle():
    # cloning the third arrow of the 3-cycle at arity 3 yields the 5-cycle
    assert standard_symmetric_clone(cycle_perm(3, (1, 2, 3)), 3, 3) == cycle_perm(
        5, (1, 4, 2, 5, 3)
    )


def _shift_and_splice_clone(p, k, d):
    """The general clone: shift the images at or above p(k) up by d - 1,
    then splice the block p(k), ..., p(k) + d - 1 in at position k."""
    pk = p[k - 1]
    images = [s if s < pk else s + d - 1 for s in p]
    images[k - 1 : k] = range(pk, pk + d)
    return tuple(images)


def _shift_and_cut_unclone(pp, k, d):
    """The general unclone of a block that passes the test: shift the images
    above pp(k) down by d - 1, then cut positions k + 1, ..., k + d - 1."""
    pk = pp[k - 1]
    images = [s if s <= pk else s - (d - 1) for s in pp]
    del images[k : k + d - 1]
    return tuple(images)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_symmetric_identity_paths_match_the_general_formulas(d):
    for n in range(1, 8):
        small, big = perm_identity(n), perm_identity(n + d - 1)
        for k in range(1, n + 1):
            cloned = standard_symmetric_clone(small, k, d)
            assert cloned == _shift_and_splice_clone(small, k, d) == big
            uncloned = try_symmetric_unclone(big, k, d)
            assert uncloned == _shift_and_cut_unclone(big, k, d) == small
            # tuples of ints, not equal values of another type
            for result in (cloned, uncloned):
                assert type(result) is tuple
                assert all(type(x) is int for x in result)
        for k in (0, n + 1):
            with pytest.raises(IndexError):
                standard_symmetric_clone(small, k, d)
            assert try_symmetric_unclone(big, k, d) is None


PRODUCT_KEYS = [key for key in BUILTIN_SYSTEM_KEYS if key.startswith(("prod:", "psi:"))]


@pytest.mark.parametrize("key", [*PRODUCT_KEYS, *map(_ternary, PRODUCT_KEYS)])
def test_identity_entries_clone_as_the_monomorphisms_do(key):
    system = make_system(key)
    rng = random.Random(5)
    e = system.base.identity
    block = tuple(m.apply(e) for m in system.monos)
    for n in range(1, 6):
        for _ in range(4):
            g = system.family.sample(n, rng)
            for k in range(1, n + 1):
                h = g[: k - 1] + (e,) + g[k:]
                assert system.clone(n, k, h) == h[: k - 1] + block + h[k:]


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
        for gp in system.family.iterate(big):
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


# |G_n| of each finite built-in family, by its closed form
_ORDERS = {
    "S": factorial,
    "C": lambda n: n,
    "1": lambda n: 1,
    "Shat": lambda n: factorial(n - 1),
    "prod(Z3)": lambda n: 3**n,
    "psi(Z3)": lambda n: 3 ** (n - 1),
}


def _exhaustive_counts(system, n_max):
    """Instances of C1 (g, h, k), C2 (g, k < l) and C3 (g, k, i off the block)."""
    order = _ORDERS[system.family.name]
    levels = range(1, n_max + 1)
    return {
        "C1": sum(order(n) ** 2 * n for n in levels),
        "C2": sum(order(n) * n * (n - 1) // 2 for n in levels),
        "C3": sum(order(n) * n * (n - 1) for n in levels),
    }


@pytest.mark.parametrize("system", FINITE_SYSTEMS, ids=lambda s: s.name)
def test_axioms_exhaustive_finite(system):
    result = verify_axioms(system, n_max=4, exhaustive=True)
    assert result["ok"], result
    assert result["checked"] == _exhaustive_counts(system, 4)


@pytest.mark.parametrize("key", [_ternary(s.name) for s in FINITE_SYSTEMS])
def test_axioms_exhaustive_arity_three(key):
    system = make_system(key)
    result = verify_axioms(system, n_max=4, exhaustive=True)
    assert result["ok"], result
    assert result["checked"] == _exhaustive_counts(system, 4)


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


def test_sampled_c1_draws_g_then_k_then_h():
    # the first counterexample each seed finds, pinned: C1 draws g, then k with
    # rng.choice over n positions (the same draw as randint(1, n)), then h
    found = {0: (68, 1), 1: (69, 1), 2: (68, 1), 3: (70, 2)}
    for seed, (checked, k) in found.items():
        result = verify_axioms(_FirstLeafCloning("V"), n_max=3, budget=200, seed=seed)
        assert result["checked"] == {"C1": checked, "C2": 0, "C3": 0}
        assert result["counterexample"]["k"] == k


@pytest.mark.parametrize("axiom", ["C2", "C3"])
def test_sampled_positions_cover_the_table(monkeypatch, axiom):
    drawn = set()
    evaluate = cloning._axiom_instance

    def recording(system, ax, n, g, h, pos):
        if ax == axiom and n == 4:
            drawn.add(tuple(pos.items()))
        return evaluate(system, ax, n, g, h, pos)

    monkeypatch.setattr(cloning, "_axiom_instance", recording)
    system = make_system("V:3")
    assert verify_axioms(system, n_max=4, budget=600, seed=1)["ok"]
    table = cloning._axiom_positions(axiom, 4, 3)
    assert drawn == {tuple(pos.items()) for pos in table}


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("axiom", ["C1", "C2", "C3"])
def test_indexed_positions_equal_the_table(axiom, d):
    # a sampled sweep draws an index and maps it, never building the table
    for n in range(1, 9):
        count = cloning._axiom_position_count(axiom, n)
        indexed = [cloning._axiom_position(axiom, n, d, idx) for idx in range(count)]
        assert indexed == cloning._axiom_positions(axiom, n, d)


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


def _position_rule(axiom, n, d, k=None, l=None, i=None):
    """The range predicates of C1-C3, an oracle for the position table."""
    if k is None:
        return False
    if axiom == "C1":
        return 1 <= k <= n
    if axiom == "C2":
        return l is not None and 1 <= k < l <= n
    return (
        i is not None
        and 1 <= k <= n
        and 1 <= i <= n + d - 1
        and not k <= i <= k + d - 1
    )


@pytest.mark.parametrize("d", [2, 3, 4])
def test_check_axiom_boundary_matches_the_range_rules(d):
    system = make_system(f"V:{d}")
    for n in range(1, 6):
        e, outside = perm_identity(n), perm_identity(n + 1)
        reversal = tuple(range(n, 0, -1))
        # (g, h) and the axioms that take them
        element_cases = [
            ((e, reversal), {"C1"}),
            ((reversal, None), {"C2", "C3"}),
            ((None, e), set()),
            ((None, None), set()),
            ((outside, e), set()),
            ((e, outside), set()),
            ((outside, None), set()),
            ((list(e), None), set()),
            ((e, list(e)), set()),
        ]
        span = [None, *range(-1, n + d + 2)]
        position_cases = {
            "C1": [{"k": k} for k in span],
            "C2": [{"k": k, "l": l} for k in span for l in span],
            "C3": [{"k": k, "i": i} for k in span for i in span],
        }
        for axiom, positions in position_cases.items():
            for pos in positions:
                placed = _position_rule(axiom, n, d, **pos)
                for (g, h), takers in element_cases:
                    if placed and axiom in takers:
                        ok, payload = check_axiom(system, axiom, n, g=g, h=h, **pos)
                        assert ok
                        head = ["n", "g", "h"] if axiom == "C1" else ["n", "g"]
                        assert list(payload) == head + list(pos) + ["lhs", "rhs"]
                    else:
                        with pytest.raises(ValueError):
                            check_axiom(system, axiom, n, g=g, h=h, **pos)
        # a keyword of another axiom and an unknown axiom are refused too
        with pytest.raises(ValueError):
            check_axiom(system, "C1", n, g=e, h=e, k=1, l=n + 1)
        with pytest.raises(ValueError):
            check_axiom(system, "C2", n, g=e, k=1, l=n, i=n + d - 1)
        for axiom in ("C9", "c1", ""):
            with pytest.raises(ValueError):
                check_axiom(system, axiom, n, g=e, h=e, k=1)


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


@pytest.mark.parametrize("budget, n_max", [(1, 4), (3, 4), (7, 3), (12, 4), (50, 4)])
def test_sampled_probe_checks_exactly_budget_elements(monkeypatch, budget, n_max):
    import cloning_systems.cloning as cloning

    levels = []
    monkeypatch.setattr(
        cloning, "property_counterexample", lambda system, prop, n, g: levels.append(n)
    )
    result = probe_property(
        make_system("prod:F2:id,swap"), "pure", n_max=n_max, budget=budget
    )
    assert result["verdict"] == "holds-on-samples"
    assert len(levels) == budget
    # level i takes budget // n_max, plus one while i <= budget % n_max
    assert [levels.count(n) for n in range(1, n_max + 1)] == [
        budget // n_max + (n <= budget % n_max) for n in range(1, n_max + 1)
    ]


def test_sampled_probe_refuses_an_empty_budget():
    with pytest.raises(ValueError, match="budget 0"):
        probe_property(make_system("prod:F2:id,swap"), "pure", budget=0)
    # an exhaustive probe ignores the budget
    assert probe_property(make_system("V"), "fully_compatible", budget=0)[
        "verdict"
    ] == "holds-exhaustive"


def test_sampled_axiom_sweep_refuses_an_empty_budget():
    with pytest.raises(ValueError, match="budget 0"):
        verify_axioms(make_system("V"), n_max=4, budget=0)
    # an exhaustive sweep ignores the budget
    assert verify_axioms(make_system("V"), n_max=3, exhaustive=True, budget=0)["ok"]
    # the budget is per axiom, split over the levels and rounded up
    checked = verify_axioms(make_system("V"), n_max=3, budget=1000)["checked"]
    assert checked == {"C1": 1002, "C2": 1000, "C3": 1000}


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
    level3 = tuple(psi.family.iterate(3))
    assert x not in {psi.clone(3, 1, g) for g in level3}


def test_image_membership_rejects_values_outside_the_family():
    # each collapses to a tuple at block k, but none lies in G_{n+d-1}
    assert not image_membership(make_system("T"), 3, 1, (1, 2, 4, 3))
    assert not image_membership(make_system("Vhat"), 3, 1, (1, 2, 4, 3))
    assert not image_membership(make_system("psi:Z3:id,id"), 3, 2, (1, 0, 0, 0))
    assert not image_membership(make_system("V"), 3, 1, (1, 2, 3))
    # a letter outside a, A, b, B is no F2 word
    assert not image_membership(make_system("prod:F2:id,swap"), 1, 1, ("x", "a"))


@pytest.mark.parametrize(
    "key", [*BUILTIN_SYSTEM_KEYS, *map(_ternary, BUILTIN_SYSTEM_KEYS)]
)
def test_membership_refuses_values_that_are_not_tuples(key):
    system = make_system(key)
    d, fam = system.d, system.family
    for x in (list(fam.identity(d)), None, 5):
        assert not fam.contains(d, x)
        assert not image_membership(system, 1, 1, x)
        with pytest.raises(ValueError, match=r"^middle element is not in "):
            Element(system, caret(d), x, caret(d))


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


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_sampled_axiom_sweep_builds_no_position_table():
    # the C3 tables of every level up to n = 60 hold about n^3 / 3 dicts, some
    # 20 MB; a sampled sweep that checks 59 C3 instances needs none of them
    V = make_system("V")
    assert _peak_bytes(lambda: verify_axioms(V, n_max=60, budget=10)) < 2**20


def test_exhaustive_sweeps_read_g_n_one_element_at_a_time():
    # the 40320 permutations of S_8 and the 5040 of S_7 as tuples take about
    # 4.4 MB and 0.6 MB; a single-pass sweep holds one element at a time
    V = make_system("V")
    assert _peak_bytes(lambda: diversity_witness(V, 7)) < 2**20
    assert _peak_bytes(lambda: probe_property(V, "fully_compatible", n_max=7)) < 2**18


def test_diversity_witness_validates_level():
    with pytest.raises(ValueError):
        diversity_witness(make_system("V"), 0)


def _three_loop_diversity_witness(system, n, budget=500, seed=0, exhaustive=None):
    """The diversity search as three loops with a seen set, kept as an oracle."""
    if n < 1:
        raise ValueError("n must be >= 1")

    def in_all(x):
        return all(image_membership(system, n, k, x) for k in range(1, n + 1))

    rng = random.Random(seed)
    fam = system.family
    big = n + system.d - 1
    identity = fam.identity(big)
    if exhaustive is None:
        exhaustive = fam.is_finite(big)
    if exhaustive:
        for x in fam.iterate(big):
            if x != identity and in_all(x):
                return {"witness": x, "exhaustive": True}
        return {"witness": None, "exhaustive": True}
    seen = set()
    tried = 0
    for x in cloning._pattern_candidates(system, n, rng, budget):
        tried += 1
        if x != identity and x not in seen:
            seen.add(x)
            if in_all(x):
                return {"witness": x, "exhaustive": False}
    if not tried and budget < 1:
        raise ValueError(f"sampled search tried no candidate at budget {budget}")
    for _ in range(budget):
        x = fam.sample(big, rng)
        if x != identity and x not in seen:
            seen.add(x)
            if in_all(x):
                return {"witness": x, "exhaustive": False}
    return {"witness": None, "exhaustive": False}


def _search_outcome(search, *args, **kwargs):
    """The dict a search returns, or the message of the ValueError it raises."""
    try:
        return search(*args, **kwargs)
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize(
    "key", [*BUILTIN_SYSTEM_KEYS, *map(_ternary, BUILTIN_SYSTEM_KEYS)]
)
def test_one_stream_search_matches_the_three_loop_oracle(key):
    system = make_system(key)
    for n in (1, 2, 3):
        modes = [None, False] + [True] * system.family.is_finite(n + system.d - 1)
        for seed, budget, exhaustive in product(range(5), (0, 1, 7, 50), modes):
            args = (system, n, budget, seed, exhaustive)
            expected = _search_outcome(_three_loop_diversity_witness, *args)
            assert _search_outcome(diversity_witness, *args) == expected


@pytest.mark.parametrize("key", [k for k in ALL_KEYS if make_system(k).family.is_finite(4)])
def test_exhaustive_search_over_clone_1_matches_the_search_over_g_big(key):
    # the oracle's exhaustive branch reads all of G_{n+d-1}, the old stream;
    # the intersection of the clone images lies in the image of clone_1
    system = make_system(key)
    for n in range(1, 6 if system.d == 2 else 4):
        expected = _three_loop_diversity_witness(system, n)
        assert expected["exhaustive"] and diversity_witness(system, n) == expected


def _record_samples(monkeypatch, system):
    """The list that collects every element the family samples from now on."""
    drawn = []
    sample = system.family.sample
    monkeypatch.setattr(
        system.family, "sample", lambda n, rng: drawn.append(sample(n, rng)) or drawn[-1]
    )
    return drawn


def test_sampled_search_returns_a_witness_drawn_from_the_samples(monkeypatch):
    monkeypatch.setattr(cloning, "_pattern_candidates", lambda *args: iter(()))
    system = make_system("prod:Z3:id,id")
    drawn = _record_samples(monkeypatch, system)
    for n in (1, 2):
        drawn.clear()
        result = diversity_witness(system, n, budget=200, exhaustive=False)
        w = result["witness"]
        assert result["exhaustive"] is False
        assert w is not None and w != (0,) * (n + 1) and w == (w[0],) * (n + 1)
        assert drawn[-1] == w  # no sample is drawn after the witness
        assert result == _three_loop_diversity_witness(
            system, n, budget=200, exhaustive=False
        )
    with pytest.raises(ValueError, match=r"^sampled search tried no candidate at budget 0$"):
        diversity_witness(system, 2, budget=0, exhaustive=False)


def test_constructed_witness_is_found_before_any_sample(monkeypatch):
    system = make_system("prod:F2:id,swap")
    drawn = _record_samples(monkeypatch, system)
    for n in (3, 4):
        assert diversity_witness(system, n, seed=3)["witness"] is not None
    assert drawn == []


@pytest.mark.parametrize("key", ["V", "T", "Vhat:3", "prod:Z3:id,id", "psi:Z3:id,inv"])
def test_in_all_images_tests_membership_once_per_candidate(monkeypatch, key):
    system = make_system(key)
    fam, d = system.family, system.d
    calls = []
    contains = fam.contains
    monkeypatch.setattr(fam, "contains", lambda n, x: calls.append(n) or contains(n, x))
    for n in (1, 2, 3):
        big = n + d - 1
        outsiders = [fam.identity(big + 1), fam.identity(big)[:-1], None]
        for x in [*fam.iterate(big), *outsiders]:
            calls.clear()
            conjunction = all(image_membership(system, n, k, x) for k in range(1, n + 1))
            calls.clear()
            assert cloning.in_all_images(system, n, x) == conjunction
            assert calls == [big]


def test_in_all_images_refuses_a_level_without_clone_maps():
    for key in ("V", "prod:Z3:id,id"):
        system = make_system(key)
        for n in (0, -1):
            with pytest.raises(ValueError, match=r"^n must be >= 1$"):
                cloning.in_all_images(system, n, system.family.identity(system.d))


@pytest.mark.parametrize(
    "key", [*BUILTIN_SYSTEM_KEYS, *map(_ternary, BUILTIN_SYSTEM_KEYS)]
)
def test_tuples_with_entries_of_no_base_type_are_not_members(key):
    system = make_system(key)
    d, fam = system.d, system.family
    e = fam.identity(d)
    # a bool or a float is neither a residue nor a permutation entry
    bads = (None, "#", (1,), True, 1.0)
    for j, bad in product(range(d), bads):
        x = e[:j] + (bad,) + e[j + 1 :]
        assert not fam.contains(d, x)
        assert not image_membership(system, 1, 1, x)
        assert not cloning.in_all_images(system, 1, x)
        with pytest.raises(ValueError, match=r"^middle element is not in "):
            Element(system, caret(d), x, caret(d))
        with pytest.raises(ValueError, match=rf"^C1 needs elements of G_{d}$"):
            check_axiom(system, "C1", d, x, e, k=1)


def test_one_axiom_check_builds_only_the_rows_of_its_own_k(monkeypatch):
    built = []
    positions = cloning._axiom_positions

    def recording(*args):
        table = positions(*args)
        built.append(len(table))
        return table

    monkeypatch.setattr(cloning, "_axiom_positions", recording)
    n, system = 1000, make_system("V")
    e = perm_identity(n)
    assert check_axiom(system, "C3", n, g=e, k=500, i=1)[0]
    assert 0 < sum(built) <= n + system.d
    built.clear()
    with pytest.raises(ValueError):
        check_axiom(system, "C3", n, g=e, k=n + 1, i=1)
    assert sum(built) == 0
