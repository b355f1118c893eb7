import random
from collections import Counter

import pytest

from cloning_systems import thompson, trees
from cloning_systems.analysis import (
    conjugate_count,
    enumerate_fd_ball,
    sample_nontrivial_elements,
)
from cloning_systems.cloning import BUILTIN_SYSTEM_KEYS, SymmetricSystem, make_system
from cloning_systems.groups import (
    UnsupportedError,
    cycle_perm,
    perm_apply,
    perm_identity,
    perm_inv,
)
from cloning_systems.thompson import (
    Element,
    SystemMismatch,
    Triple,
    _element,
    commutator,
    composite_inverse_closed_form,
    element_text,
    endpoint_slope_character,
    expand_triple,
    fd_conjugates,
    fd_generator,
    in_kernel_Kd,
    mul,
    parse_element,
    pi_to_Vd,
    powers_closed_form,
    random_element,
    reduce_triple,
)
from cloning_systems.trees import (
    caret,
    collapse_at,
    common_expansion,
    expand_at,
    expansion_path,
    leaf,
    parse_tree,
    random_tree,
    removable_carets,
    right_spine,
    tree_text,
    tree_union,
)
from test_trees import split_forest

ALL_SYSTEMS = [make_system(key) for key in BUILTIN_SYSTEM_KEYS]
V = make_system("V")
# the arity-3 keys; test_analysis runs over ALL_KEYS too
TERNARY_SYSTEM_KEYS = (
    "V:3", "T:3", "Vhat:3", "F:3", "prod:Z3:id,id,inv", "psi:Z3:id,inv,id",
)
ALL_KEYS = BUILTIN_SYSTEM_KEYS + TERNARY_SYSTEM_KEYS


def test_triple_validation():
    with pytest.raises(ValueError):
        Triple(V, caret(2), perm_identity(2), leaf(2))
    with pytest.raises(ValueError):
        Triple(V, caret(2), perm_identity(3), caret(2))
    with pytest.raises(ValueError):
        Triple(make_system("Vhat"), caret(2), cycle_perm(2, (1, 2)), caret(2))


@pytest.mark.parametrize(
    "key, middle",
    [
        ("V", (2, True)),
        ("V", (True, 2)),
        ("V", (2.0, 1)),
        ("Vhat", (True, 2)),
        ("F", (True, 2)),
        ("F", (1.0, 2)),
        ("T", (2, True)),
        ("T", (2.0, 1)),
        ("T", (True, 2)),
        ("V:3", (3.0, 1, 2)),
        ("Vhat:3", (2, 1.0, 3)),
        ("T:3", (3, True, 2)),
        ("F:3", (1, 2, 3.0)),
    ],
)
def test_permutation_middles_refuse_bool_and_float_entries(key, middle):
    # each is equal to a permutation of the family, and would print as a
    # text (such as [2,True]) that no parser reads back
    system = make_system(key)
    n = len(middle)
    assert middle == tuple(int(i) for i in middle)
    assert system.family.contains(n, tuple(int(i) for i in middle))
    assert not system.family.contains(n, middle)
    pattern = rf"^middle element is not in {system.family.name} at level {n}$"
    with pytest.raises(ValueError, match=pattern):
        Element(system, caret(system.d), middle, caret(system.d))


class _LeakyT(SymmetricSystem):
    """T with a clone that swaps the first two images, leaving the rotations."""

    def __init__(self):
        super().__init__("T")

    def clone(self, n, k, g):
        out = list(super().clone(n, k, g))
        out[0], out[1] = out[1], out[0]
        return tuple(out)


def test_a_clone_that_leaves_the_family_is_caught_at_the_product():
    # expansions are not re-checked, but the product's Element(...) is
    system = _LeakyT()
    x = Element(system, caret(2), cycle_perm(2, (1, 2)), caret(2))
    y = fd_generator(system, 0)  # its left tree makes x expand at leaf 1
    with pytest.raises(ValueError, match=r"^middle element is not in C at level 3$"):
        x * y


def test_fd_conjugates_check_each_left_trees_middle_once(monkeypatch):
    # one family check per conjugation plan, with Triple(...)'s message
    leaky, sound = _LeakyT(), make_system("T")
    checked = []
    for system in (leaky, sound):
        contains = system.family.contains

        def counting(n, g, contains=contains):
            checked.append(n)
            return contains(n, g)

        monkeypatch.setattr(system.family, "contains", counting)
    x = Element(leaky, caret(2), cycle_perm(2, (1, 2)), caret(2))
    checked.clear()
    with pytest.raises(ValueError, match=r"^middle element is not in C at level 4$"):
        conjugate_count(x, enumerate_fd_ball(leaky, 2))
    assert checked == [2, 4]  # the identity's plan, then the first leaking one
    x = Element(sound, caret(2), cycle_perm(2, (1, 2)), caret(2))
    ball = enumerate_fd_ball(sound, 3)
    checked.clear()
    assert conjugate_count(x, ball) > 1
    assert len(checked) == len({f.T for f in ball.elements}) < len(ball.elements)


def test_elements_refuse_new_attributes():
    # fields are read-only by contract; __slots__ still refuses new ones
    for x in (Element.identity(V), fd_generator(V, 0)):
        with pytest.raises(AttributeError):
            x.extra = 1


def test_element_checks_and_reduces_once(monkeypatch):
    calls = []
    check, reduce = Triple.__init__, thompson.reduce_triple
    monkeypatch.setattr(Triple, "__init__", lambda t, *a: calls.append("check") or check(t, *a))
    monkeypatch.setattr(
        thompson, "reduce_triple", lambda t: calls.append("reduce") or reduce(t)
    )
    T = expand_at(caret(2), 1)
    x = Element(V, T, perm_identity(3), T)
    assert calls == ["check", "reduce"]
    assert x == Element.identity(V) and hash(x) == hash(Element.identity(V))


def test_expansion_of_trivial_middle_keeps_it_trivial():
    t = Triple(V, caret(2), perm_identity(2), expand_at(leaf(2), 1))
    for k in (1, 2):
        e = expand_triple(t, k)
        assert e.g == perm_identity(3)
        assert e.U == expand_at(t.U, k)
        assert e.T == expand_at(t.T, k)


def test_expansion_with_swap_middle():
    # expanding [caret,(1 2),caret] at 1 puts the new caret at leaf 2 on the left
    t = Triple(V, caret(2), cycle_perm(2, (1, 2)), caret(2))
    e = expand_triple(t, 1)
    assert e.U == expand_at(caret(2), 1)
    assert e.T == expand_at(caret(2), 2)
    assert e.g == cycle_perm(3, (1, 2, 3))


def test_expansion_product_middle_block():
    system = make_system("prod:F2:id,swap")
    t = Triple(system, caret(2), ("a", "b"), caret(2))
    e = expand_triple(t, 1)
    assert e.g == ("a", "b", "b")  # slot 1 becomes (id(a), swap(a)) = (a, b)? no:
    # slot 1 entry "a" clones to (a, swap(a)) = (a, A->? ) -- recompute directly
    assert e.g == (system.monos[0].apply("a"), system.monos[1].apply("a"), "b")


def expand_left(t, j):
    """Oracle: the expansion that puts the new caret at leaf j of the left tree."""
    n = t.n
    if not 1 <= j <= n:
        raise IndexError(f"expansion position {j} out of range 1..{n}")
    return expand_triple(t, t.sys.rho(n, t.g).index(j) + 1)


def test_expand_left_targets_requested_leaf():
    rng = random.Random(0)
    for system in ALL_SYSTEMS:
        for _ in range(30):
            x = random_element(system, rng)
            t = x.triple()
            j = rng.randint(1, t.n)
            e = expand_left(t, j)
            assert e.T == expand_at(t.T, j)
            # oracle: the right leaf k is rho(g)^-1(j), by inverting rho
            k = perm_apply(perm_inv(system.rho(t.n, t.g)), j)
            o = expand_triple(t, k)
            assert (e.T, e.g, e.U) == (o.T, o.g, o.U)
        for j in (0, t.n + 1):
            message = rf"^expansion position {j} out of range 1\.\.{t.n}$"
            with pytest.raises(IndexError, match=message):
                expand_left(t, j)


def test_expansion_positions_refuse_bool_and_float():
    # True == 1 and 1.0 == 1 pass a range test alone
    t = Element(V, caret(2), cycle_perm(2, (1, 2)), caret(2)).triple()
    for k in (True, 1.0):
        with pytest.raises(IndexError, match=rf"^expansion position {k} out of range 1\.\.2$"):
            expand_triple(t, k)
    assert expand_triple(t, 1).g == (2, 3, 1)


@pytest.mark.parametrize("key", ALL_KEYS)
def test_reduce_roundtrip_and_confluence(key):
    system = make_system(key)
    rng = random.Random(11)
    for trial in range(120):
        x = random_element(system, rng)
        t = x.triple()
        for _ in range(8):
            t = expand_triple(t, rng.randint(1, t.n))
        plain = reduce_triple(t)
        shuffled = reduce_triple(t, rng=random.Random(trial))
        assert (plain.T, plain.g, plain.U) == (x.T, x.g, x.U)
        assert (shuffled.T, shuffled.g, shuffled.U) == (x.T, x.g, x.U)


def _reference_reduce(t, rng=None):
    """The earlier reduction loop: one helper per site, each rescanning T."""

    def try_reduce_at(t, k):
        n_small = t.n - (t.sys.d - 1)
        if n_small < 1:
            return None
        g0 = t.sys.try_unclone(n_small, k, t.g)
        if g0 is None:
            return None
        j = perm_apply(t.sys.rho(n_small, g0), k)
        if j not in removable_carets(t.T):
            return None
        return Triple(t.sys, collapse_at(t.T, j), g0, collapse_at(t.U, k))

    while True:
        sites = sorted(removable_carets(t.U))
        if rng is not None:
            rng.shuffle(sites)
        for k in sites:
            reduced = try_reduce_at(t, k)
            if reduced is not None:
                t = reduced
                break
        else:
            return t


@pytest.mark.parametrize("key", ALL_KEYS)
def test_reduce_matches_reference_loop(key):
    system = make_system(key)
    d = system.d
    rng = random.Random(41)
    for trial in range(80):
        if trial % 2:
            t = random_element(system, rng).triple()
            for _ in range(rng.randint(0, 6)):
                t = expand_triple(t, rng.randint(1, t.n))
        else:  # an arbitrary pair, reduced or not
            c = rng.randint(0, 4)
            T, U = random_tree(d, c, rng), random_tree(d, c, rng)
            t = Triple(system, T, system.family.sample(T.leaf_count, rng), U)
        expected = _reference_reduce(t)
        assert reduce_triple(t) == expected
        rng_a, rng_b = random.Random(trial), random.Random(trial)
        assert reduce_triple(t, rng=rng_a) == _reference_reduce(t, rng=rng_b)
        assert rng_a.getstate() == rng_b.getstate()  # one shuffle per pass
        if expected == t:
            assert reduce_triple(t) is t


def _assert_valid(t):
    """Oracle for the unchecked triples: the public checks accept t as it is."""
    assert type(t) is Triple
    assert Triple(t.sys, t.T, t.g, t.U) == t


@pytest.mark.parametrize("key", ALL_KEYS)
def test_unchecked_triples_pass_the_public_checks(key):
    system = make_system(key)
    rng = random.Random(47)
    for trial in range(40):
        t = random_element(system, rng, max_carets=4).triple()
        _assert_valid(t)
        for _ in range(rng.randint(1, 10)):
            step = rng.randrange(3)
            if step == 0:
                t = expand_triple(t, rng.randint(1, t.n))
            elif step == 1:
                t = expand_left(t, rng.randint(1, t.n))
            else:
                t = reduce_triple(t, rng=random.Random(trial))
            _assert_valid(t)


@pytest.mark.parametrize("key", ALL_KEYS)
def test_inverse_is_built_canonical(key):
    system = make_system(key)
    rng = random.Random(43)
    for _ in range(60):
        x = random_element(system, rng, max_carets=4)
        inv = x.inv()
        assert inv == Element(system, x.U, system.family.inv(x.n, x.g), x.T)
        t = inv.triple()
        assert reduce_triple(t) is t


def test_reduce_identity_chain():
    t = Triple(V, leaf(2), perm_identity(1), leaf(2))
    for k in (1, 1, 2, 3):
        t = expand_triple(t, k)
    r = reduce_triple(t)
    assert r.T.is_leaf and r.U.is_leaf


@pytest.mark.parametrize("key", ALL_KEYS)
def test_group_laws(key):
    system = make_system(key)
    rng = random.Random(13)
    e = Element.identity(system)
    for _ in range(60):
        x, y, z = (random_element(system, rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * e == x == e * x
        assert x * x.inv() == e
        assert x.inv().inv() == x
        assert (x * y).inv() == y.inv() * x.inv()


def test_pow_matches_repeated_multiplication():
    rng = random.Random(17)
    for system in (V, make_system("psi:Z3:id,id")):
        for _ in range(20):
            x = random_element(system, rng)
            acc = Element.identity(system)
            for m in range(5):
                assert x**m == acc
                acc = acc * x
            assert x**-2 == (x.inv()) ** 2


@pytest.mark.parametrize("key", ALL_KEYS)
def test_pow_by_squaring_matches_repeated_multiplication(key):
    system = make_system(key)
    x, y = sample_nontrivial_elements(system, 2, random.Random(31), max_carets=3)
    # times a generator of F_d, so that most powers keep growing
    for x in (x, y * fd_generator(system, 1)):
        acc = Element.identity(system)
        for m in range(41):
            assert x**m == acc
            if m <= 6:
                assert x**-m == acc.inv()
            acc = acc * x


def test_thousandth_power_has_trees_a_thousand_levels_deep():
    x = fd_generator(V, 0) * fd_generator(V, 3).inv()
    power = x**1000
    assert power == x**999 * x
    assert min(max(power.T.depths), max(power.U.depths)) > 1000


@pytest.mark.parametrize("key", ["V", "prod:F2:id,swap"])
def test_a_product_checks_its_middle_once(key, monkeypatch):
    system = make_system(key)
    x = fd_generator(system, 0) * fd_generator(system, 3).inv()
    calls = {"contains": 0, "mul": 0}
    contains = system.family.contains

    def counting_contains(n, g):
        calls["contains"] += 1
        return contains(n, g)

    def counting_mul(a, b):
        calls["mul"] += 1
        return mul(a, b)

    monkeypatch.setattr(system.family, "contains", counting_contains)
    monkeypatch.setattr(thompson, "mul", counting_mul)
    power = x**64
    # 64 = 2**6: six squarings, which graft 2 + 4 + ... + 64 = 126 carets
    assert calls == {"contains": 6, "mul": 6}
    assert min(max(power.T.depths), max(power.U.depths)) > 64
    y = power * x.inv()
    assert calls == {"contains": 7, "mul": 7}
    assert y == x**63


@pytest.mark.parametrize("m", [1, 2, 3, 42, 63, 64, 1000])
def test_pow_squares_and_multiplies_by_x_highest_bit_first(m, monkeypatch):
    x = fd_generator(V, 0) * fd_generator(V, 3).inv()
    products = []

    def recording_mul(a, b):
        out = mul(a, b)
        products.append((a, b, out))
        return out

    monkeypatch.setattr(thompson, "mul", recording_mul)
    power = x**m
    # floor(log2 m) squarings and popcount(m) - 1 products by x itself
    squarings = [b for a, b, _ in products if a is b]
    by_x = [b for a, b, _ in products if a is not b]
    assert len(squarings) == m.bit_length() - 1
    assert len(by_x) == bin(m).count("1") - 1
    assert all(b is x for b in by_x)
    # each product's left factor is the product before it, starting from x
    acc = x
    for a, _, out in products:
        assert a is acc
        acc = out
    assert power is acc


@pytest.mark.parametrize("dd,key", [(2, "F"), (2, "V"), (3, "F:3")])
def test_pow_of_spine_commutators_matches_closed_form(dd, key):
    system = make_system(key)
    rng = random.Random(37)
    for _ in range(4):
        T = random_tree(dd, rng.randint(1, 3), rng)
        n = T.leaf_count
        k = rng.randint(1, n - 1)
        l = rng.randint(k + 1, n)
        x = Element(
            system, expand_at(T, k), system.family.identity(n + dd - 1), expand_at(T, l)
        )
        for m in (1, 2, 3, 7, 16, 25, 40):
            assert x**m == powers_closed_form(system, T, k, l, m)


def _replayed_product(x, y):
    """The caret replay: expand each factor one caret at a time, cloning its middle.

    mul runs it for every product with a non-identity middle; for two identity
    middles it is the oracle of the graft.
    """
    w, x_path, y_path = common_expansion(x.U, y.T)
    tx = x.triple()
    for k in x_path:
        tx = expand_triple(tx, k)
    ty = y.triple()
    for j in y_path:
        ty = expand_triple(ty, y.sys.rho(ty.n, ty.g).index(j) + 1)
    return Element(x.sys, tx.T, x.sys.family.mul(w.leaf_count, tx.g, ty.g), ty.U)


def _refuse_replay(monkeypatch, system):
    def refuse(*args):
        raise AssertionError("replayed a caret")

    monkeypatch.setattr(thompson, "expand_triple", refuse)
    monkeypatch.setattr(system, "clone", refuse)


@pytest.mark.parametrize("key", ALL_KEYS)
def test_identity_middle_products_equal_the_caret_replay(key, monkeypatch):
    system = make_system(key)
    ball = enumerate_fd_ball(system, 4 if system.d == 2 else 3).elements
    rng = random.Random(41)
    pairs = [(x, y) for x in ball[:6] for y in ball]
    pairs += [(x, x.inv()) for x in ball]
    pairs += [tuple(rng.sample(ball, 2)) for _ in range(300)]
    acc = Element.identity(system)  # a long product, so the trees grow
    for y in rng.sample(ball, 40):
        pairs.append((acc, y))
        acc = _replayed_product(acc, y)
    want = [_replayed_product(x, y) for x, y in pairs]
    _refuse_replay(monkeypatch, system)
    assert [x * y for x, y in pairs] == want
    assert all(z.in_fd() for z in want)


def test_a_product_with_another_middle_keeps_the_replay(monkeypatch):
    x = fd_generator(V, 0)
    swap = Element(V, caret(2), cycle_perm(2, (1, 2)), caret(2))
    pairs = ((swap, x), (x, swap), (swap, swap.inv() * x))
    _refuse_replay(monkeypatch, V)
    for a, b in pairs:
        with pytest.raises(AssertionError, match="replayed a caret"):
            a * b


@pytest.mark.parametrize("key", ALL_KEYS)
def test_identity_middle_powers_equal_the_closed_form(key, monkeypatch):
    system = make_system(key)
    d = system.d
    rng = random.Random(43)
    cases = []
    for _ in range(3):
        T = random_tree(d, rng.randint(1, 3), rng)
        n = T.leaf_count
        k = rng.randint(1, n - 1)
        l = rng.randint(k + 1, n)
        x = Element(system, expand_at(T, k), system.family.identity(n + d - 1), expand_at(T, l))
        cases += [(x, powers_closed_form(system, T, k, l, m), m) for m in range(1, 41)]
    _refuse_replay(monkeypatch, system)
    for x, want, m in cases:
        assert x**m == want


def test_equality_iff_quotient_is_identity():
    rng = random.Random(19)
    for system in ALL_SYSTEMS:
        for _ in range(40):
            x, y = random_element(system, rng), random_element(system, rng)
            assert (x == y) == (x * y.inv()).is_identity()


def test_system_mismatch_raises():
    with pytest.raises(SystemMismatch):
        mul(Element.identity(V), Element.identity(make_system("T")))


def _conjugate_oracle(x, f):
    return f.inv() * x * f


@pytest.mark.parametrize("key", ALL_KEYS)
def test_fd_conjugates_match_two_products(key):
    system = make_system(key)
    ball = enumerate_fd_ball(system, 3 if system.d == 2 else 2)
    assert not ball.truncated
    rng = random.Random(47)
    xs = [random_element(system, rng, max_carets=4) for _ in range(32)]
    xs += rng.sample(enumerate_fd_ball(system, 4 if system.d == 2 else 3).elements, 8)
    assert any(x.in_fd() for x in xs)
    if not key.startswith("F"):
        assert any(not x.in_fd() for x in xs)
    for x in xs:
        got = list(fd_conjugates(x, ball.elements))
        assert got == [_conjugate_oracle(x, f) for f in ball.elements]
    # conjugators in any order, repeated, and off the ball
    fs = [fd_generator(system, i) for i in range(4)] + list(ball.elements[::-1])
    fs += [fs[0] * fs[1].inv(), fs[2] ** 3, fs[0]]
    for x in xs[:4]:
        assert list(fd_conjugates(x, fs)) == [_conjugate_oracle(x, f) for f in fs]


def _grafted_conjugate(x, f):
    """Reference for the unreduced f^-1 x f: x expanded over f's left tree A,
    and the expansions from A to each tree replayed on f's right tree."""
    t = x.triple()
    for k in expansion_path(t.U, tree_union(t.U, f.T)):
        t = expand_triple(t, k)
    for j in expansion_path(t.T, tree_union(t.T, f.T)):
        t = expand_left(t, j)

    def replay(s):
        b = f.U
        for k in expansion_path(f.T, s):
            b = expand_at(b, k)
        return b

    return Triple(x.sys, replay(t.T), t.g, replay(t.U))


@pytest.mark.parametrize("key", ALL_KEYS)
def test_fd_conjugates_reduce_exactly_the_triples_that_collapse(key, monkeypatch):
    # the inputs of test_fd_conjugates_match_two_products
    system = make_system(key)
    ball = enumerate_fd_ball(system, 3 if system.d == 2 else 2)
    rng = random.Random(47)
    xs = [random_element(system, rng, max_carets=4) for _ in range(32)]
    xs += rng.sample(enumerate_fd_ball(system, 4 if system.d == 2 else 3).elements, 8)
    reduced = []
    kernel = thompson._reduce

    def spy(system, T, g, U):
        reduced.append(Triple(system, T, g, U))
        return kernel(system, T, g, U)

    monkeypatch.setattr(thompson, "_reduce", spy)
    cases = []
    for x in xs:
        conjugates = fd_conjugates(x, ball.elements)
        for f in ball.elements:
            calls = len(reduced)
            next(conjugates)
            cases.append((x, f, reduced[-1] if len(reduced) > calls else None))
    monkeypatch.undo()  # reduce_triple below reaches the kernel too
    shortcuts, plans = 0, {}
    for x, f, r in cases:
        t = _grafted_conjugate(x, f)
        if r is None:  # the plan says: already reduced
            assert reduce_triple(t) is t
            shortcuts += 1
        else:
            # the kernel starts from t collapsed at the first pair whose need B has
            if (x, f.T) not in plans:
                plans[x, f.T] = _conjugation_plan(x, f.T)[3]
            carets = removable_carets(f.U)
            k, j, g0 = next(site for need, site in plans[x, f.T].items() if need <= carets)
            assert r == Triple(system, collapse_at(t.T, j), g0, collapse_at(t.U, k))
            assert reduce_triple(t) is not t
    assert shortcuts and reduced


def test_one_kernel_reduces_triples_coset_keys_and_conjugates(monkeypatch):
    assert not hasattr(thompson, "expand_left")
    kernel, callers = thompson._reduce, []

    def spy(system, T, g, U, rng=None):
        callers.append("coset" if T is None else "pair")
        return kernel(system, T, g, U, rng)

    system = make_system("prod:F2:id,swap")  # about half its conjugates collapse
    x = random_element(system, random.Random(5), max_carets=3)
    t = expand_triple(x.triple(), 1)
    ball = enumerate_fd_ball(system, 3)
    monkeypatch.setattr(thompson, "_reduce", spy)
    assert reduce_triple(t) == x.triple() and callers == ["pair"]
    _, h, Q = kernel(system, None, x.inv().g, x.T)
    assert thompson.coset_key(x) == (Q, h) and callers == ["pair", "coset"]
    conjugates = list(fd_conjugates(x, ball.elements))
    assert callers.count("pair") > 1 and len(conjugates) == len(ball.elements)


def _conjugation_plan(x, A):
    """Oracle for _conjugation_plans(x)(A): x expanded over A from x itself,
    split with split_forest, and the collapses that can ever apply, each
    need with its first (k, j, g0) in site order."""
    system = x.sys
    t = x.triple()
    for k in expansion_path(t.U, tree_union(t.U, A)):
        t = expand_triple(t, k)
    for j in expansion_path(t.T, tree_union(t.T, A)):
        t = expand_left(t, j)
    thompson._check_middle(system, t.n, t.g)
    left, left_sites = split_forest(t.T, A)
    right, right_sites = split_forest(t.U, A)
    n_small = t.n - (system.d - 1)
    needs = {}
    for k in sorted(right_sites):
        g0 = system.try_unclone(n_small, k, t.g)
        if g0 is not None:
            j = perm_apply(system.rho(n_small, g0), k)
            if j in left_sites:
                needs.setdefault(right_sites[k] | left_sites[j], (k, j, g0))
    return left, t.g, right, needs, frozenset().union(*needs)


@pytest.mark.parametrize("key", ALL_KEYS)
def test_plans_from_the_parent_match_the_plan_from_x(key):
    system = make_system(key)
    ball = enumerate_fd_ball(system, 4 if system.d == 2 else 3)
    trees_a = list(dict.fromkeys(f.T for f in ball.elements))
    rng = random.Random(53)
    xs = [random_element(system, rng, max_carets=3) for _ in range(6)]
    collapses = 0
    for x in xs:
        want = {A: _conjugation_plan(x, A) for A in trees_a}
        collapses += sum(bool(plan[3]) for plan in want.values())
        # ball order reaches each parent first; reversed, one tree the whole chain
        for order in (trees_a, trees_a[::-1]):
            plan = thompson._conjugation_plans(x)
            got = {A: plan(A.depths) for A in order}
            assert got == want
            assert all(list(got[A][3]) == list(want[A][3]) for A in order)  # site order
    assert collapses


@pytest.mark.parametrize("key", ALL_KEYS)
def test_conjugate_count_counts_the_distinct_conjugates(key):
    # against two products per conjugator; on prod: and psi: keys the most conjugates reduce
    system = make_system(key)
    ball = enumerate_fd_ball(system, 4 if system.d == 2 else 3)
    for x in sample_nontrivial_elements(system, 6, random.Random(59), max_carets=3):
        assert conjugate_count(x, ball) == len({f.inv() * x * f for f in ball.elements})


@pytest.mark.parametrize("key", ALL_KEYS)
def test_conjugate_keys_ignore_conjugator_order_and_shape_caches(key):
    system = make_system(key)
    fs = list(enumerate_fd_ball(system, 4 if system.d == 2 else 3).elements)
    rng = random.Random(67)
    shuffled = rng.sample(fs, len(fs))  # plans reused across non-consecutive left trees
    caches = (trees._widths, trees._tree_carets, trees.root_subtrees, thompson._parent_cut)
    for x in sample_nontrivial_elements(system, 4, rng, max_carets=3):
        want = Counter(fd_conjugates(x, fs))
        assert sum(want.values()) == len(fs)
        assert Counter(fd_conjugates(x, shuffled)) == want
        for cache in caches:
            cache.cache_clear()
        assert Counter(fd_conjugates(x, fs)) == want
    # cached values are shared by every caller, so none may be mutable
    assert trees.root_subtrees.cache_info().currsize
    for t in dict.fromkeys(f.T for f in fs if not f.T.is_leaf):
        kids = trees.root_subtrees(system.d, t.depths)
        assert type(kids) is tuple and all(type(kid) is tuple for kid in kids)
        assert trees.root_subtrees(system.d, t.depths) is kids
        i, parent = thompson._parent_cut(system.d, t.depths)
        assert type(parent) is tuple and len(parent) == t.leaf_count - (system.d - 1)


def test_fd_conjugates_replay_no_expansion_path(monkeypatch):
    ball = enumerate_fd_ball(V, 4)
    xs = sample_nontrivial_elements(V, 4, random.Random(61), max_carets=3)
    want = [list(fd_conjugates(x, ball.elements)) for x in xs]

    def refuse(*args):
        raise AssertionError("called")

    for module in (trees, thompson):
        for name in ("tree_union", "expansion_path", "expand_left", "expand_triple"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    assert not hasattr(trees, "split_forest") and not hasattr(thompson, "split_forest")
    assert [list(fd_conjugates(x, ball.elements)) for x in xs] == want


def test_fd_conjugates_reject_conjugators_outside_fd():
    x = fd_generator(V, 0)
    swap = Element(V, caret(2), cycle_perm(2, (1, 2)), caret(2))
    with pytest.raises(ValueError, match="not in F_d") as exc:
        list(fd_conjugates(x, [fd_generator(V, 1), swap]))
    assert not isinstance(exc.value, SystemMismatch)
    with pytest.raises(SystemMismatch):
        list(fd_conjugates(x, [fd_generator(make_system("T"), 1)]))


def test_in_fd_examples():
    x = Element(V, expand_at(caret(2), 1), perm_identity(3), expand_at(caret(2), 2))
    assert x.in_fd()
    assert Element.identity(V).is_identity() and Element.identity(V).in_fd()
    swap = Element(V, caret(2), cycle_perm(2, (1, 2)), caret(2))
    assert not swap.in_fd()


def test_fd_membership_is_representative_independent():
    # expanding a trivial-middle triple never creates a nontrivial middle,
    # and expanding the swap triple to depth 3 never trivializes it
    rng = random.Random(23)
    x = fd_generator(V, 0)
    for _ in range(50):
        t = x.triple()
        for _ in range(5):
            t = expand_triple(t, rng.randint(1, t.n))
        assert t.g == perm_identity(t.n)
    frontier = [Triple(V, caret(2), cycle_perm(2, (1, 2)), caret(2))]
    for _ in range(3):
        nxt = []
        for t in frontier:
            for k in range(1, t.n + 1):
                e = expand_triple(t, k)
                assert e.g != perm_identity(e.n)
                nxt.append(e)
        frontier = nxt


@pytest.mark.parametrize("dd,key", [(2, "F"), (2, "V"), (3, "F:3")])
def test_powers_closed_form_matches_multiplication(dd, key):
    system = make_system(key)
    rng = random.Random(29)
    for _ in range(40):
        T = random_tree(dd, rng.randint(1, 3), rng)
        n = T.leaf_count
        if n < 2:
            continue
        k = rng.randint(1, n - 1)
        l = rng.randint(k + 1, n)
        x = Element(
            system,
            expand_at(T, k),
            system.family.identity(n + dd - 1),
            expand_at(T, l),
        )
        acc = Element.identity(system)
        for m in range(1, 7):
            acc = acc * x
            assert powers_closed_form(system, T, k, l, m) == acc


def test_powers_at_the_depth_cap_compare_equal():
    system = make_system("prod:Z3:id,inv")
    x = powers_closed_form(system, right_spine(2, 2), 1, 3, 399)
    y = Element(system, parse_tree(tree_text(x.T), 2), x.g, parse_tree(tree_text(x.U), 2))
    assert x.T is not y.T and x == y and hash(x) == hash(y)


def test_powers_closed_form_validates():
    with pytest.raises(IndexError):
        powers_closed_form(V, caret(2), 2, 1, 2)
    with pytest.raises(ValueError):
        powers_closed_form(V, caret(2), 1, 2, 0)


@pytest.mark.parametrize("key", ALL_KEYS)
def test_composite_inverse_closed_form(key):
    system = make_system(key)
    d = system.d
    fam = system.family
    rng = random.Random(31)
    for _ in range(80):
        n = rng.randint(1, 4)
        g = fam.sample(n, rng)
        ks = []
        size = n
        for _ in range(rng.randint(1, 5)):
            ks.append(rng.randint(1, size))
            size += d - 1
        value, alphas = composite_inverse_closed_form(system, n, g, ks)
        direct = g
        size = n
        for k in ks:
            direct = system.clone(size, k, direct)
            size += d - 1
        assert value == fam.inv(size, direct)
        if system.pure:
            assert alphas == ks


def test_composite_inverse_single_step_twist():
    g = cycle_perm(2, (1, 2))
    value, alphas = composite_inverse_closed_form(V, 2, g, [1])
    assert alphas == [2]  # rho(g) carries position 1 to 2
    assert value == V.family.inv(3, V.clone(2, 1, g))


def test_composite_inverse_range_error():
    with pytest.raises(IndexError):
        composite_inverse_closed_form(V, 2, perm_identity(2), [3])


def test_pi_is_homomorphism_on_stabilizer_system():
    system = make_system("Vhat")
    rng = random.Random(37)
    for _ in range(200):
        x, y = random_element(system, rng), random_element(system, rng)
        assert pi_to_Vd(x * y) == pi_to_Vd(x) * pi_to_Vd(y)
        assert pi_to_Vd(x.inv()) == pi_to_Vd(x).inv()


def test_pi_fixes_fd_tree_pairs():
    system = make_system("psi:Z3:id,id")
    x = fd_generator(system, 1)
    image = pi_to_Vd(x)
    assert image.T == x.T and image.U == x.U and image.in_fd()


def test_kernel_membership():
    system = make_system("prod:Z3:id,id")
    rng = random.Random(41)
    for _ in range(40):
        T = random_tree(2, rng.randint(0, 3), rng)
        g = system.family.sample(T.leaf_count, rng)
        assert in_kernel_Kd(Element(system, T, g, T))
    assert not in_kernel_Kd(fd_generator(system, 0))
    assert not in_kernel_Kd(Element(V, caret(2), cycle_perm(2, (1, 2)), caret(2)))


def test_kernel_needs_full_compatibility_flag():
    system = make_system("V")
    # no mutation API; simulate via a stub system
    class NotCompatible:
        name = "stub"
        d = 2
        fully_compatible = False
    x = Element.identity(system)
    stub = _element(NotCompatible(), x.T, x.g, x.U)
    with pytest.raises(UnsupportedError):
        pi_to_Vd(stub)


@pytest.mark.parametrize("dd,key", [(2, "F"), (3, "F:3"), (2, "V"), (2, "psi:Z3:id,id")])
def test_generator_relations(dd, key):
    system = make_system(key)
    for k in range(0, 5):
        for l in range(k + 1, 5):
            xl, xk = fd_generator(system, l), fd_generator(system, k)
            assert xl * xk == xk * fd_generator(system, l + dd - 1)


def test_generators_are_reduced_fd_elements():
    for i in range(4):
        x = fd_generator(V, i)
        assert x.in_fd() and not x.is_identity()


def test_endpoint_character_examples():
    assert endpoint_slope_character(Element.identity(V)) == (0, 0)
    x0 = fd_generator(V, 0)
    # left tree deepens the first leaf, right tree deepens the last
    assert endpoint_slope_character(x0) == (1, -1)
    with pytest.raises(ValueError):
        endpoint_slope_character(Element(V, caret(2), cycle_perm(2, (1, 2)), caret(2)))


def test_endpoint_character_is_additive():
    system = make_system("F")
    rng = random.Random(43)
    for _ in range(200):
        x, y = random_element(system, rng), random_element(system, rng)
        cx, cy = endpoint_slope_character(x), endpoint_slope_character(y)
        cxy = endpoint_slope_character(x * y)
        assert cxy == (cx[0] + cy[0], cx[1] + cy[1])


def test_endpoint_character_kills_commutators():
    system = make_system("F")
    rng = random.Random(47)
    for _ in range(100):
        x, y = random_element(system, rng), random_element(system, rng)
        assert endpoint_slope_character(commutator(x, y)) == (0, 0)


@pytest.mark.parametrize("key", ALL_KEYS)
def test_element_text_roundtrip(key):
    system = make_system(key)
    rng = random.Random(53)
    for _ in range(50):
        x = random_element(system, rng)
        assert parse_element(system, element_text(x)) == x


def test_element_text_shape():
    x = fd_generator(V, 0)
    assert element_text(x) == "[((..).) ; [1,2,3] ; (.(..))]"
    with pytest.raises(ValueError):
        parse_element(V, "not an element")
