import random
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from cloning_systems.groups import (
    CyclicGroup,
    CyclicShiftFamily,
    FreeGroupAB,
    ProductFamily,
    PsiFamily,
    StabilizerFamily,
    SymmetricFamily,
    TrivialPermFamily,
    UnsupportedError,
    base_group_by_name,
    cycle_perm,
    free_inv,
    free_reduce,
    mono_for,
    perm_apply,
    perm_identity,
    perm_inv,
    perm_mul,
    perm_text,
    parse_perm,
)

FAMILIES = [
    SymmetricFamily(),
    CyclicShiftFamily(),
    StabilizerFamily(),
    TrivialPermFamily(),
    ProductFamily(CyclicGroup(3)),
    ProductFamily(FreeGroupAB()),
    PsiFamily(CyclicGroup(3)),
    PsiFamily(FreeGroupAB()),
]


def test_perm_basics():
    p = cycle_perm(3, (1, 2, 3))
    assert p == (2, 3, 1)
    assert perm_apply(p, 1) == 2
    assert perm_mul(p, perm_inv(p)) == perm_identity(3)
    assert parse_perm(perm_text(p)) == p


def test_perm_identity_is_built_once_per_level():
    assert perm_identity(7) is perm_identity(7) == tuple(range(1, 8))
    assert perm_identity(0) == ()


def test_perm_products_with_the_identity():
    for n in range(0, 6):
        e = perm_identity(n)
        assert perm_inv(e) == e
        for p in permutations(range(1, n + 1)):
            for q in (p, list(p)):
                for product in (perm_mul(e, q), perm_mul(q, e)):
                    assert type(product) is tuple and product == p
    with pytest.raises(ValueError):
        perm_mul(perm_identity(2), (1, 2, 3))
    with pytest.raises(ValueError):
        perm_mul((2, 1, 3), perm_identity(2))


def test_perm_mul_applies_right_factor_first():
    p = cycle_perm(3, (1, 2))
    q = cycle_perm(3, (2, 3))
    # (pq)(i) = p(q(i)): q sends 2 to 3, then p fixes 3
    assert perm_apply(perm_mul(p, q), 2) == 3


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_group_axioms_sampled(family):
    rng = random.Random(0)
    for _ in range(80):
        n = rng.randint(1, 5)
        g = family.sample(n, rng)
        h = family.sample(n, rng)
        k = family.sample(n, rng)
        e = family.identity(n)
        assert family.mul(n, family.mul(n, g, h), k) == family.mul(n, g, family.mul(n, h, k))
        assert family.mul(n, g, e) == g == family.mul(n, e, g)
        assert family.mul(n, g, family.inv(n, g)) == e
        assert family.contains(n, g)


def test_enumerate_counts():
    assert len(tuple(SymmetricFamily().iterate(3))) == 6
    assert len(tuple(StabilizerFamily().iterate(4))) == 6
    assert len(tuple(CyclicShiftFamily().iterate(3))) == 3
    assert len(tuple(TrivialPermFamily().iterate(5))) == 1
    assert len(tuple(ProductFamily(CyclicGroup(3)).iterate(2))) == 9
    assert len(tuple(PsiFamily(CyclicGroup(3)).iterate(3))) == 9


def test_enumerate_infinite_raises():
    fam = ProductFamily(FreeGroupAB())
    assert not fam.is_finite(2)
    with pytest.raises(UnsupportedError):
        tuple(fam.iterate(2))


def test_stabilizer_membership():
    fam = StabilizerFamily()
    assert fam.contains(4, cycle_perm(4, (1, 2)))
    assert not fam.contains(4, cycle_perm(4, (3, 4)))


def test_cyclic_shift_membership_matches_enumeration():
    fam = CyclicShiftFamily()
    for n in range(1, 7):
        shifts = set(fam.iterate(n))
        assert len(shifts) == n
        for p in permutations(range(1, n + 1)):
            assert fam.contains(n, p) == (p in shifts)
        for g in tuple(fam.iterate(n + 1)) + (perm_identity(n - 1), perm_identity(n + 1)):
            assert not fam.contains(n, g)
        # agrees with the identity shift everywhere but at the last point
        assert not fam.contains(n, perm_identity(n - 1) + (n + 1,))


def _rotations_by_products(n):
    """Oracle: the powers of the n-cycle (1 2 ... n), by repeated products."""
    out = []
    p = perm_identity(n)
    c = tuple(range(2, n + 1)) + (1,)
    for _ in range(n):
        out.append(p)
        p = perm_mul(p, c)
    return tuple(out)


def test_cyclic_shifts_match_the_product_oracle():
    fam = CyclicShiftFamily()
    for n in range(1, 9):
        oracle = _rotations_by_products(n)
        assert tuple(fam.iterate(n)) == oracle
        rng, oracle_rng = random.Random(n), random.Random(n)
        for _ in range(50):
            assert fam.sample(n, rng) == oracle[oracle_rng.randrange(n)]


def test_psi_family_matches_its_product_formula():
    for base in (CyclicGroup(3), CyclicGroup(2)):
        fam = PsiFamily(base)
        for n in range(1, 6):
            assert tuple(fam.iterate(n)) == tuple(
                (0,) + rest for rest in product(base.elements(), repeat=n - 1)
            )
    for base in (CyclicGroup(3), FreeGroupAB()):
        fam = PsiFamily(base)
        rng, oracle_rng = random.Random(4), random.Random(4)
        for n in range(1, 7):
            for _ in range(20):
                expected = (base.identity,) + tuple(
                    base.sample(oracle_rng) for _ in range(n - 1)
                )
                assert fam.sample(n, rng) == expected
    with pytest.raises(UnsupportedError):
        tuple(PsiFamily(FreeGroupAB()).iterate(2))


def test_free_reduce_examples():
    assert free_reduce("aA") == ""
    assert free_reduce("abBa") == "aa"
    assert free_reduce("") == ""
    with pytest.raises(ValueError):
        free_reduce("xyz")


@given(
    st.text(alphabet="aAbB", max_size=30),
    st.text(alphabet="aAbB", max_size=30),
    st.text(alphabet="aAbBx", max_size=12),
)
def test_free_reduce_idempotent_and_inverse(word, other, text):
    reduced = free_reduce(word)
    assert free_reduce(reduced) == reduced
    assert free_reduce(reduced + free_inv(reduced)) == ""
    # the F2 kernels against free_reduce: the junction product of reduced
    # words, and membership by substring search
    f2 = FreeGroupAB()
    v = free_reduce(other)
    assert f2.mul(reduced, v) == free_reduce(reduced + v)
    assert f2.mul(reduced, f2.inv(reduced)) == ""
    assert f2.contains(text) == ("x" not in text and free_reduce(text) == text)
    for outsider in (None, 1, ["a"]):
        assert not f2.contains(outsider)


def test_swap_monomorphism():
    swap = mono_for(FreeGroupAB(), "swap")
    assert swap.apply(free_reduce("abA")) == "baB"
    assert swap.apply("ab") == "ba"
    assert swap.apply(swap.apply("abAB")) == "abAB"


def test_inversion_monomorphism_on_cyclic():
    z5 = CyclicGroup(5)
    inv = mono_for(z5, "inv")
    assert inv.apply(2) == 3
    assert inv.try_preimage(inv.apply(4)) == 4


@pytest.mark.parametrize(
    "base_name,label",
    [("F2", "swap"), ("Z3", "inv"), ("Z5", "inv"), ("F2", "id")],
)
def test_monomorphism_laws(base_name, label):
    base = base_group_by_name(base_name)
    mono = mono_for(base, label)
    rng = random.Random(1)
    pool = list(dict.fromkeys(base.elements() or [base.sample(rng) for _ in range(50)]))
    preimage_of = {}
    for g in pool:
        for h in pool[:10]:
            assert mono.apply(base.mul(g, h)) == base.mul(mono.apply(g), mono.apply(h))
        img = mono.apply(g)
        assert preimage_of.setdefault(img, g) == g  # injectivity
        assert mono.try_preimage(img) == g


def test_fixed_point_free_probes():
    swap = mono_for(FreeGroupAB(), "swap")
    rng = random.Random(2)
    base = FreeGroupAB()
    for _ in range(200):
        g = base.sample(rng)
        if g:
            assert swap.apply(g) != g
    for m in (3, 5, 7):
        zm = CyclicGroup(m)
        inv = mono_for(zm, "inv")
        assert all(inv.apply(g) != g for g in zm.elements() if g != 0)
    # 2-torsion kills fixed-point-freeness
    z2 = CyclicGroup(2)
    assert mono_for(z2, "inv").apply(1) == 1


def test_mono_rejects_wrong_base():
    with pytest.raises(ValueError):
        mono_for(CyclicGroup(3), "swap")
    with pytest.raises(ValueError):
        mono_for(FreeGroupAB(), "inv")


def test_text_roundtrip_per_family():
    rng = random.Random(3)
    for family in FAMILIES:
        for _ in range(30):
            n = rng.randint(1, 4)
            g = family.sample(n, rng)
            assert family.parse(n, family.to_text(n, g)) == g


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_perm, "[1,x]", "bad permutation text '[1,x]'"),
        (parse_perm, "[1, 2.0]", "bad permutation text '[1, 2.0]'"),
        (parse_perm, "(1,2)", "bad permutation text '(1,2)'"),
        (parse_perm, "[1,1]", "'[1,1]' is not a permutation"),
        (CyclicGroup(3).parse, "x", "'x' is not a residue mod 3"),
        (CyclicGroup(3).parse, "", "'' is not a residue mod 3"),
        (CyclicGroup(3).parse, "3", "'3' is not a residue mod 3"),
        (FreeGroupAB().parse, "aA", "'aA' is not freely reduced"),
        (lambda s: ProductFamily(CyclicGroup(3)).parse(2, s), "(1,x)", "'x' is not a residue mod 3"),
        (lambda s: ProductFamily(CyclicGroup(3)).parse(2, s), "1,2", "bad tuple text '1,2'"),
        (lambda s: CyclicShiftFamily().parse(3, s), "[2,1,3]", "'[2,1,3]' is not in"),
    ],
)
def test_parse_refusals_name_the_bad_text(parse, text, message):
    with pytest.raises(ValueError) as exc:
        parse(text)
    assert str(exc.value).startswith(message)


def test_free_group_membership_rejects_foreign_letters():
    base = FreeGroupAB()
    assert base.contains("aB")
    assert not base.contains("aA")
    for word in ("xa", "ax", "a b", "1"):
        assert not base.contains(word)
    assert not ProductFamily(base).contains(2, ("xa", "a"))


def test_free_group_sampler_respects_cap():
    base = FreeGroupAB(max_word_len=5)
    rng = random.Random(4)
    assert all(len(base.sample(rng)) <= 5 for _ in range(100))


def test_base_group_lookup():
    assert base_group_by_name("Z7").name == "Z7"
    assert base_group_by_name("F2").name == "F2"
    with pytest.raises(ValueError):
        base_group_by_name("Q8")
