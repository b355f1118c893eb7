import random
from itertools import product
from operator import itemgetter

import pytest
from hypothesis import given, strategies as st

from cloning_systems import cantor
from cloning_systems.analysis import enumerate_system_ball, sample_nontrivial_elements
from cloning_systems.cantor import (
    Automaton,
    AutomatonElement,
    CantorWord,
    PrefixMap,
    _is_complete_prefix_code,
    _normalize_rules,
    cantor_word_text,
    from_tree_pair,
    full_reflection,
    identity_element,
    is_order_preserving,
    parse_cantor_word,
    rule_table_text,
    tail_equivalence_violations,
    tail_equivalent,
)
from cloning_systems.cloning import make_system
from cloning_systems.groups import UnsupportedError, cycle_perm, perm_identity
from cloning_systems.thompson import Element, fd_generator, random_element
from cloning_systems.trees import caret

V = make_system("V")
# the systems whose middles permute leaves, so from_tree_pair applies
PERMUTATION_KEYS = ("F", "T", "V", "Vhat", "F:3", "T:3", "V:3", "Vhat:3")


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

def test_cantor_word_canonical_forms():
    assert CantorWord((), (1, 2, 1, 2)).per == (1, 2)
    assert CantorWord((1,), (2, 1)) == CantorWord((), (1, 2))
    assert CantorWord((1, 2), (2,)) == CantorWord((1,), (2,))
    assert cantor_word_text(CantorWord((1,), (2,))) == "1(2)"
    assert parse_cantor_word("21(12)") == CantorWord((2, 1), (1, 2))


def test_cantor_word_letters_and_drop():
    w = parse_cantor_word("12(31)")
    assert w.prefix(6) == (1, 2, 3, 1, 3, 1)
    assert w.drop(2) == parse_cantor_word("(31)")
    assert w.drop(3) == parse_cantor_word("(13)")


@given(
    st.lists(st.integers(1, 3), max_size=5),
    st.lists(st.integers(1, 3), min_size=1, max_size=4),
    st.integers(0, 10),
)
def test_cantor_word_drop_consistent_with_letters(pre, per, k):
    w = CantorWord(tuple(pre), tuple(per))
    dropped = w.drop(k)
    assert all(dropped.letter(i) == w.letter(i + k) for i in range(20))


def test_cantor_word_rejects_empty_period():
    with pytest.raises(ValueError):
        CantorWord((1,), ())


def test_cantor_word_refuses_bool_letters():
    # True == 1, yet CantorWord((True, 2), (2,)) would print as the unparseable True(2)
    for pre, per in (((True, 2), (2,)), ((), (1, False))):
        with pytest.raises(ValueError, match="^bad letter (True|False)$"):
            CantorWord(pre, per)


@pytest.mark.parametrize(
    "text, message",
    [
        ("12", "bad point text '12'; expected pre(period)"),
        ("1()", "empty period in '1()'"),
        ("1(x)", "bad letter in point text '1(x)'"),
        ("0(1)", "bad letter in point text '0(1)'"),
    ],
)
def test_point_text_refusals_name_the_text(text, message):
    with pytest.raises(ValueError) as exc:
        parse_cantor_word(text)
    assert str(exc.value) == message


def test_tail_equivalence():
    assert tail_equivalent(parse_cantor_word("111(21)"), parse_cantor_word("(12)"))
    assert not tail_equivalent(parse_cantor_word("(1)"), parse_cantor_word("(2)"))
    assert tail_equivalent(parse_cantor_word("2(1)"), parse_cantor_word("(1)"))


# ---------------------------------------------------------------------------
# automaton elements
# ---------------------------------------------------------------------------

def test_full_reflection_action():
    h = full_reflection(2)
    out, section = h.apply_finite((1, 1, 2))
    assert out == (2, 2, 1)
    assert section.equals(h)


def test_full_reflection_is_involution():
    for d in (2, 3, 4):
        h = full_reflection(d)
        assert (h * h).is_identity()
        assert not h.is_identity()
        assert h.inv().equals(h)


def test_identity_element_is_identity():
    assert identity_element(3).is_identity()
    e = identity_element(2)
    assert e.apply_finite((1, 2, 1)) == ((1, 2, 1), e)


def test_automaton_validation():
    with pytest.raises(ValueError):
        Automaton(2, {"s": ((1, 1), ("s", "s"))})  # not a permutation
    with pytest.raises(ValueError):
        Automaton(2, {"s": ((1, 2), ("s", "t"))})  # transition leaves state set


@pytest.mark.parametrize("rho", [(2, True), (2.0, 1), ("a", 1), (1, 2, 3)])
def test_automaton_outputs_are_int_permutations_of_the_alphabet(rho):
    # (2, True) sorts to [1, 2]; (2.0, 1) and ("a", 1) made __init__ raise TypeError
    states = {"s": (rho, ("e", "e")), "e": ((1, 2), ("e", "e"))}
    with pytest.raises(ValueError, match=r"^state 's': output is not a permutation$"):
        Automaton(2, states)


@pytest.mark.parametrize("bad", [True, 1.0, "a", None])
def test_letters_that_are_not_ints_are_refused(bad):
    # True == 1 and 1.0 == 1 passed the range test; "a" and None raised TypeError
    message = rf"^letter {bad!r} out of range 1\.\.2$"
    with pytest.raises(ValueError, match=message):
        identity_element(2).apply_finite((bad, 2))
    with pytest.raises(ValueError, match=message):
        identity_element(2).apply_finite((1, bad))
    for e in (identity_element(2), full_reflection(2)):
        with pytest.raises(ValueError, match=message):
            e.step(bad)
        with pytest.raises(ValueError, match=message):
            e.apply_finite((2, bad))


def _is_trivial_state(machine, name):
    """Oracle: the per-call predicate that Automaton.trivial replaced."""
    rho, delta = machine.states[name]
    return rho == perm_identity(machine.d) and all(t == name for t in delta)


def _is_involutive_state(machine, name, assumed=frozenset()):
    """Oracle: q.q is the identity by the wreath recursion.  Its section at
    a is delta(rho(a)) . delta(a), so q qualifies when rho is an involution,
    delta(a) == delta(rho(a)) and that state qualifies too; states on the
    current path are assumed to (the greatest fixed point)."""
    if name in assumed:
        return True
    rho, delta = machine.states[name]
    return all(
        rho[rho[a - 1] - 1] == a
        and delta[a - 1] == delta[rho[a - 1] - 1]
        and _is_involutive_state(machine, delta[a - 1], assumed | {name})
        for a in range(1, machine.d + 1)
    )


def _named_reflection(d, name):
    """The full reflection as a machine whose one state is called name:
    equal in action to full_reflection(d), and an equal machine only when
    name is h0."""
    machine = Automaton(d, {name: (tuple(range(d, 0, -1)), (name,) * d)})
    return AutomatonElement(d, ((machine, name, 1),))


def _random_automaton(d, rng):
    """1-4 states; outputs and transitions lean to the identity and to loops."""
    names = [f"s{i}" for i in range(rng.randint(1, 4))]
    states = {}
    for name in names:
        rho = list(range(1, d + 1))
        if rng.random() < 0.5:
            rng.shuffle(rho)
        delta = [name if rng.random() < 0.7 else rng.choice(names) for _ in range(d)]
        states[name] = (rho, delta)
    return Automaton(d, states)


@pytest.mark.parametrize("d", (2, 3))
def test_trivial_states_match_the_per_state_predicate(d):
    odometer = Automaton(2, {"a": ((2, 1), ("e", "a")), "e": ((1, 2), ("e", "e"))})
    rng = random.Random(53 + d)
    machines = [full_reflection(d).word[0][0], odometer]
    machines += [_random_automaton(d, rng) for _ in range(300)]
    seen = {True: 0, False: 0}
    involutive = 0
    for machine in machines:
        expected = {n for n in machine.states if _is_trivial_state(machine, n)}
        assert machine.trivial == expected
        assert machine.involutions == {
            n for n in machine.states if _is_involutive_state(machine, n)
        }
        for name in machine.states:
            trivial = _is_trivial_state(machine, name)
            seen[trivial] += 1
            involutive += not trivial and name in machine.involutions
            if machine.d == d:
                # q.q is empty exactly when q is trivial or an involution
                element = AutomatonElement(d, ((machine, name, 1), (machine, name, 1)))
                assert (element.word == ()) == (trivial or name in machine.involutions)
    assert min(seen.values()) >= 50
    assert involutive >= 50


def test_word_entry_naming_an_unknown_state_raises():
    odometer = Automaton(2, {"a": ((2, 1), ("e", "a")), "e": ((1, 2), ("e", "e"))})
    for machine in (odometer, full_reflection(2).word[0][0]):
        with pytest.raises(KeyError):
            AutomatonElement(2, ((machine, "b", 1),))


@pytest.mark.parametrize(
    "make",
    [
        lambda: CantorWord((1,), (2,)),
        lambda: full_reflection(2).word[0][0],
        lambda: full_reflection(2),
        lambda: PrefixMap.identity(2),
    ],
    ids=["CantorWord", "Automaton", "AutomatonElement", "PrefixMap"],
)
def test_cantor_values_refuse_new_attributes(make):
    # fields are read-only by contract; __slots__ still refuses new ones
    with pytest.raises(AttributeError):
        make().extra = 1


def test_adding_machine_has_infinite_order_elements():
    # binary odometer: 1 -> 2 with carry into the next level
    odo = Automaton(2, {"a": ((2, 1), ("e", "a")), "e": ((1, 2), ("e", "e"))})
    a = AutomatonElement(2, ((odo, "a", 1),))
    assert not a.is_identity()
    assert not (a * a).is_identity()
    assert (a * a.inv()).is_identity()
    out, _ = a.apply_finite((1, 1, 1))
    assert out == (2, 1, 1)
    out2, _ = (a * a).apply_finite((1, 1, 1))
    assert out2 == (1, 2, 1)


def test_identity_test_raises_past_the_section_cap(monkeypatch):
    # a and b are the same odometer under two names, so a b^-1 is the
    # identity, but only exploring its sections (itself and the empty word)
    # shows it
    odo_a = Automaton(2, {"a": ((2, 1), ("e", "a")), "e": ((1, 2), ("e", "e"))})
    odo_b = Automaton(2, {"b": ((2, 1), ("f", "b")), "f": ((1, 2), ("f", "f"))})
    a = AutomatonElement(2, ((odo_a, "a", 1),))
    b = AutomatonElement(2, ((odo_b, "b", 1),))
    assert (a * b.inv()).is_identity() and a.equals(b)
    monkeypatch.setattr(cantor, "MAX_SECTION_WORDS", 1)
    with pytest.raises(UnsupportedError, match="section budget"):
        (a * b.inv()).is_identity()
    with pytest.raises(UnsupportedError, match="section budget"):
        a.equals(b)
    # syntactically equal words are equal without an identity test
    monkeypatch.setattr(AutomatonElement, "is_identity", None)
    ab = a * b.inv()
    assert ab.equals(AutomatonElement(2, ab.word))


@pytest.mark.parametrize("sign", (0, 2, -3, 1.5))
def test_automaton_words_refuse_signs_other_than_one_and_minus_one(sign):
    machine = full_reflection(2).word[0][0]
    with pytest.raises(ValueError, match=rf"^bad sign {sign!r}; expected 1 or -1$"):
        AutomatonElement(2, ((machine, "h0", 1), (machine, "h0", sign)))
    for good in (1, -1):
        assert AutomatonElement(2, ((machine, "h0", good),)).word == ((machine, "h0", good),)


def test_word_simplification_cancels_inverse_pairs():
    h = full_reflection(2)
    assert (h * h.inv()).word == ()
    # equal machines cancel even when they are distinct objects
    other = full_reflection(2)
    assert other.word[0][0] is not h.word[0][0]
    assert (h * other.inv()).word == ()
    assert AutomatonElement(2, h.word + other.inv().word).word == ()


def test_word_simplification_cancels_involution_pairs():
    for d in (2, 3, 4):
        h = full_reflection(d)
        for word in (h.word * 2, h.inv().word * 2, h.word + h.inv().word):
            assert AutomatonElement(d, word).word == ()
        assert (h * h).word == () and (h.inv() * h.inv()).word == ()
        # an equal machine built again cancels; an unequal one does not,
        # though it acts alike
        assert (h * _named_reflection(d, "h0")).word == ()
        assert len((h * _named_reflection(d, "k0")).word) == 2
    # flips only at the root; a mutual pair q -> p -> q flipping at even levels
    root = Automaton(2, {"s": ((2, 1), ("e", "e")), "e": ((1, 2), ("e", "e"))})
    mutual = Automaton(2, {"q": ((2, 1), ("p", "p")), "p": ((1, 2), ("q", "q"))})
    odometer = Automaton(2, {"a": ((2, 1), ("e", "a")), "e": ((1, 2), ("e", "e"))})
    # sections equal at 1 and 2, but the section is the odometer
    over_odometer = Automaton(
        2, {"s": ((2, 1), ("a", "a")), "a": ((2, 1), ("e", "a")), "e": ((1, 2), ("e", "e"))}
    )
    assert root.involutions == {"s", "e"} and mutual.involutions == {"q", "p"}
    assert odometer.involutions == over_odometer.involutions == {"e"}
    for machine, name, other in ((root, "s", "e"), (mutual, "q", "p"), (mutual, "p", "q")):
        assert AutomatonElement(2, ((machine, name, 1),) * 2).word == ()
        # cancellations cascade: q p p q is empty
        word = ((machine, name, 1), (machine, other, 1), (machine, other, 1), (machine, name, 1))
        assert AutomatonElement(2, word).word == ()
    for machine, name in ((odometer, "a"), (over_odometer, "s")):
        twice = AutomatonElement(2, ((machine, name, 1),) * 2)
        assert len(twice.word) == 2 and not twice.is_identity()
    # a state named like an involution of another machine stays
    for pair in (((root, "s", 1), (over_odometer, "s", 1)),
                 ((over_odometer, "s", 1), (root, "s", 1))):
        assert len(AutomatonElement(2, pair).word) == 2


def _entry_image(machine, name, sign, word):
    """Image of a finite word under one signed state, read off its table."""
    out = []
    for letter in word:
        rho, delta = machine.states[name]
        if sign < 0:
            letter = rho.index(letter) + 1
            out.append(letter)
        else:
            out.append(rho[letter - 1])
        name = delta[letter - 1]
    return tuple(out)


@pytest.mark.parametrize("d", (2, 3))
def test_simplified_words_act_like_their_entries(d):
    rng = random.Random(83 + d)
    words = _words_up_to(d, 5)
    involution_pairs = shortened = 0
    for _ in range(150):
        machines = [_random_automaton(d, rng), full_reflection(d).word[0][0]]
        entries = [(m, n) for m in machines for n in m.states]
        raw = []
        for _ in range(rng.randint(0, 6)):
            # repeat the previous state half the time, so pairs form
            m, n = raw[-1][:2] if raw and rng.random() < 0.5 else rng.choice(entries)
            raw.append((m, n, rng.choice((1, -1))))
        involution_pairs += any(
            a[:2] == b[:2] and a[2] == b[2] and a[1] in a[0].involutions - a[0].trivial
            for a, b in zip(raw, raw[1:])
        )
        e = AutomatonElement(d, raw)
        shortened += len(e.word) < len(raw)
        for w in words:
            image = w
            for entry in reversed(raw):
                image = _entry_image(*entry, image)
            assert e.apply_finite(w)[0] == image
    assert involution_pairs >= 30 and shortened >= 50


def test_odometer_map_with_infinite_carry():
    # the binary odometer increments with carry; on 222... the carry never
    # stops, which exercises the period-cycle detection in apply
    odo = Automaton(2, {"a": ((2, 1), ("e", "a")), "e": ((1, 2), ("e", "e"))})
    a = AutomatonElement(2, ((odo, "a", 1),))
    f = PrefixMap(2, (((), (), a),))
    assert f.apply(parse_cantor_word("(1)")) == parse_cantor_word("2(1)")
    assert f.apply(parse_cantor_word("(2)")) == parse_cantor_word("(1)")
    assert f.apply(parse_cantor_word("22(1)")) == parse_cantor_word("112(1)")
    assert f.invert().apply(parse_cantor_word("(1)")) == parse_cantor_word("(2)")
    for text in ("(1)", "2(1)", "(12)", "121(2)"):
        p = parse_cantor_word(text)
        assert f.invert().apply(f.apply(p)) == p


# ---------------------------------------------------------------------------
# prefix maps
# ---------------------------------------------------------------------------

def _reflection_map(d=2):
    return PrefixMap(d, (((), (), full_reflection(d)),))


def test_prefix_map_checks_state_arity():
    with pytest.raises(ValueError, match="^state arity mismatch$"):
        PrefixMap(2, (((), (), identity_element(3)),))
    with pytest.raises(ValueError, match="^state arity mismatch$"):
        PrefixMap(3, (((), (), full_reflection(2)),))


def test_compose_refuses_tables_of_different_arity():
    binary = from_tree_pair(fd_generator(V, 0))
    ternary = from_tree_pair(fd_generator(make_system("V:3"), 0))
    for f, g in ((binary, ternary), (ternary, binary), (_reflection_map(3), binary)):
        with pytest.raises(ValueError, match="^arity mismatch$"):
            f.compose(g)


def test_prefix_map_validates_codes():
    ident = identity_element(2)
    with pytest.raises(ValueError):
        PrefixMap(2, (((1,), (1,), ident),))  # incomplete domain
    with pytest.raises(ValueError):
        PrefixMap(
            2, (((1,), (1,), ident), ((2,), (1, 1), ident))
        )  # range not a code


def test_identity_map_apply():
    f = PrefixMap.identity(2)
    for text in ("(1)", "12(21)", "(112)"):
        w = parse_cantor_word(text)
        assert f.apply(w) == w


def test_reflection_map_reverses_constant_words():
    h = _reflection_map(3)
    assert h.apply(parse_cantor_word("(1)")) == parse_cantor_word("(3)")
    assert h.apply(parse_cantor_word("(13)")) == parse_cantor_word("(31)")
    assert h.compose(h).is_identity()


def test_swap_map_from_tree_pair():
    x = Element(V, caret(2), cycle_perm(2, (1, 2)), caret(2))
    f = from_tree_pair(x)
    assert rule_table_text(f) == "1 -> 2 [id]\n2 -> 1 [id]"
    assert f.apply(parse_cantor_word("1(2)")) == parse_cantor_word("2(2)")
    assert f.apply(parse_cantor_word("(1)")) == parse_cantor_word("2(1)")


def test_generator_map_table():
    f = from_tree_pair(fd_generator(V, 0))
    assert rule_table_text(f) == "1 -> 11 [id]\n21 -> 12 [id]\n22 -> 2 [id]"


def test_from_tree_pair_identity():
    assert from_tree_pair(Element.identity(V)).is_identity()


def test_from_tree_pair_needs_permutation_middles():
    system = make_system("prod:Z3:id,id")
    with pytest.raises(UnsupportedError):
        from_tree_pair(Element.identity(system))


@pytest.mark.parametrize("key", PERMUTATION_KEYS)
def test_compose_then_invert_is_identity(key):
    system = make_system(key)
    rng = random.Random(3)
    for _ in range(60):
        x = random_element(system, rng)
        f = from_tree_pair(x)
        assert f.compose(f.invert()).is_identity()
        assert f.invert().compose(f).is_identity()


@pytest.mark.parametrize("key", PERMUTATION_KEYS)
def test_compose_matches_tree_pair_multiplication(key):
    system = make_system(key)
    rng = random.Random(5)
    for _ in range(300):
        x, y = random_element(system, rng), random_element(system, rng)
        assert from_tree_pair(x * y).equals(from_tree_pair(x).compose(from_tree_pair(y)))


@pytest.mark.parametrize("key", PERMUTATION_KEYS)
def test_invert_matches_tree_pair_inverse(key):
    system = make_system(key)
    rng = random.Random(7)
    for _ in range(100):
        x = random_element(system, rng)
        assert from_tree_pair(x.inv()).equals(from_tree_pair(x).invert())


def test_pow_matches_repeated_composition():
    for x in sample_nontrivial_elements(V, 6, random.Random(8), max_carets=3):
        f = acc = from_tree_pair(x)
        for m in range(1, 13):
            assert from_tree_pair(x**m).equals(acc)
            acc = acc.compose(f)


def test_apply_respects_composition():
    rng = random.Random(9)
    points = [parse_cantor_word(t) for t in ("(1)", "(2)", "1(2)", "(12)", "221(121)")]
    for _ in range(60):
        f = from_tree_pair(random_element(V, rng))
        g = from_tree_pair(random_element(V, rng))
        h = _reflection_map()
        for p in points:
            assert f.compose(g).apply(p) == f.apply(g.apply(p))
            assert h.compose(f).apply(p) == h.apply(f.apply(p))


def _assert_valid_table(f):
    """f passes the checks of PrefixMap(...), which it was built without:
    both codes are complete, and the public constructor accepts the rules
    and keeps their order, so they are sorted by domain word."""
    assert _is_complete_prefix_code([u for u, _, _ in f.rules], f.d), f
    assert _is_complete_prefix_code([v for _, v, _ in f.rules], f.d), f
    assert PrefixMap(f.d, f.rules).rules == f.rules


def test_codes_stay_complete_under_compose_and_invert():
    # compose, invert and normalize build their tables unchecked; check each
    # table of a deep composition against the public constructor's checks
    rng = random.Random(11)
    acc = PrefixMap.identity(2)
    _assert_valid_table(acc)
    for _ in range(25):
        f = from_tree_pair(random_element(V, rng))
        acc = acc.compose(f)
        for table in (f, acc, acc.invert(), acc.normalize()):
            _assert_valid_table(table)
    assert acc.invert().invert().equals(acc)


@pytest.mark.parametrize("key", PERMUTATION_KEYS)
def test_unchecked_tables_pass_the_public_checks(key):
    system = make_system(key)
    rng = random.Random(41)
    h = _reflection_map(system.d)
    for _ in range(40):
        fx = from_tree_pair(random_element(system, rng))
        fy = from_tree_pair(random_element(system, rng))
        for table in (
            fx,
            fx.compose(fy),
            fx.invert(),
            _split_rule(fx, rng.randrange(len(fx.rules))).normalize(),
            h.compose(fx).compose(h),
            h.compose(fx.compose(fy)).compose(h).invert(),
        ):
            _assert_valid_table(table)


def test_only_the_public_constructor_checks_codes(monkeypatch):
    calls = []
    check = cantor._is_complete_prefix_code

    def counting(words, d):
        calls.append(d)
        return check(words, d)

    monkeypatch.setattr(cantor, "_is_complete_prefix_code", counting)
    rng = random.Random(43)
    for key in PERMUTATION_KEYS:
        system = make_system(key)
        h = _reflection_map(system.d)
        assert len(calls) == 2
        calls.clear()
        x, y = random_element(system, rng), random_element(system, rng)
        fx, fy = from_tree_pair(x), from_tree_pair(y)
        composed = fx.compose(fy)
        assert from_tree_pair(x * y).equals(composed)
        assert from_tree_pair(x.inv()).equals(fx.invert())
        conj = h.compose(composed).compose(h).normalize()
        assert conj.equals(h.compose(fx).compose(h).compose(h.compose(fy).compose(h)))
        assert PrefixMap.identity(system.d).is_identity()
        assert calls == []
        for table in (fx, composed, conj):
            PrefixMap(table.d, table.rules)
            assert calls == [system.d, system.d]
            calls.clear()


def test_normalization_merges_sibling_rules():
    ident = identity_element(2)
    expanded = PrefixMap(
        2, (((1,), (1,), ident), ((2, 1), (2, 1), ident), ((2, 2), (2, 2), ident))
    )
    assert expanded.equals(PrefixMap.identity(2))
    x = from_tree_pair(fd_generator(V, 0))
    roundtrip = x.compose(x.invert())
    assert len(roundtrip.rules) == 1


def test_normalization_merges_reflection_children():
    h = full_reflection(2)
    table = PrefixMap(
        2,
        (
            ((1,), (2,), AutomatonElement(2, ((h.word[0][0], "h0", 1),))),
            ((2,), (1,), AutomatonElement(2, ((h.word[0][0], "h0", 1),))),
        ),
    ).normalize()
    assert len(table.rules) == 1
    assert table.equals(_reflection_map())


def test_order_preserving_iff_fd():
    rng = random.Random(13)
    for _ in range(200):
        x = random_element(V, rng)
        assert is_order_preserving(from_tree_pair(x)) == x.in_fd()
    assert not is_order_preserving(_reflection_map())
    swap = Element(V, caret(2), cycle_perm(2, (1, 2)), caret(2))
    assert not is_order_preserving(from_tree_pair(swap))


def test_tail_equivalence_violations():
    h = _reflection_map()
    one = parse_cantor_word("(1)")
    mixed = parse_cantor_word("(12)")
    assert tail_equivalence_violations(h, [one]) == [one]
    # 121212... reflects to 212121..., which is a rotation: tails agree
    assert tail_equivalence_violations(h, [mixed]) == []
    rng = random.Random(17)
    points = [parse_cantor_word(t) for t in ("(1)", "12(21)", "(112)")]
    for _ in range(50):
        f = from_tree_pair(random_element(V, rng))
        assert tail_equivalence_violations(f, points) == []


def test_reflection_conjugates_fd_to_order_preserving():
    h = _reflection_map()
    rng = random.Random(19)
    for _ in range(50):
        x = random_element(V, rng)
        if not x.in_fd():
            continue
        conj = h.invert().compose(from_tree_pair(x)).compose(h)
        assert is_order_preserving(conj)


def test_apply_rejects_letters_outside_the_alphabet():
    f = from_tree_pair(fd_generator(V, 0))
    # "(3)" matches no domain word; "22(13)" matches the rule at 22 first
    for text in ("(3)", "1(3)", "22(13)"):
        with pytest.raises(ValueError, match=r"^letter 3 out of range 1\.\.2$"):
            f.apply(parse_cantor_word(text))


def test_prefix_map_refuses_bool_letters():
    # a bool letter passes every set and Kraft test as 1, yet prints as True
    ident = identity_element(2)
    with pytest.raises(ValueError, match="domain"):
        PrefixMap(2, (((True,), (2,), ident), ((2,), (1,), ident)))
    with pytest.raises(ValueError, match="domain"):  # True beside a 1 the set keeps
        PrefixMap(
            2, (((1, 1), (1,), ident), ((True, 2), (2, 1), ident), ((2,), (2, 2), ident))
        )
    with pytest.raises(ValueError, match="range"):
        PrefixMap(2, (((1,), (True,), ident), ((2,), (2,), ident)))


@pytest.mark.parametrize("bad", ["a", None, 1.0])
def test_prefix_map_checks_letters_before_sorting_the_rules(bad):
    # "a" and None do not compare with an int, so sorting first raised TypeError
    ident = identity_element(2)
    with pytest.raises(ValueError, match=r"^domain words do not form a complete prefix code$"):
        PrefixMap(2, (((bad,), (1,), ident), ((2,), (2,), ident)))
    with pytest.raises(ValueError, match=r"^range words do not form a complete prefix code$"):
        PrefixMap(2, (((1,), (2,), ident), ((2,), (bad,), ident)))


def test_prefix_map_equality_distinguishes():
    f = from_tree_pair(fd_generator(V, 0))
    g = from_tree_pair(fd_generator(V, 1))
    assert not f.equals(g)
    assert f.equals(f)


def test_prefix_map_rejects_letters_outside_the_alphabet():
    ident = identity_element(2)
    for bad in (0, 3):
        # {1, bad} is prefix-free with Kraft sum 1, yet the cone at 2 is uncovered
        with pytest.raises(ValueError, match="domain"):
            PrefixMap(2, (((1,), (1,), ident), ((bad,), (2,), ident)))
        with pytest.raises(ValueError, match="domain"):
            PrefixMap(
                2, (((1,), (1,), ident), ((2,), (2,), ident), ((bad,), (1, 1), ident))
            )
        with pytest.raises(ValueError, match="range"):
            PrefixMap(
                2,
                (
                    ((1,), (1,), ident),
                    ((2, 1), (2,), ident),
                    ((2, 2), (bad,), ident),
                ),
            )


# ---------------------------------------------------------------------------
# differential tests against the table algorithms they replaced
# ---------------------------------------------------------------------------

def _reference_is_complete_prefix_code(words, d):
    """Split the words by first letter and recurse into each bucket."""
    if len(words) == 1:
        return words[0] == ()
    if any(not w for w in words):
        return False
    for a in range(1, d + 1):
        bucket = [w[1:] for w in words if w[0] == a]
        if not bucket or not _reference_is_complete_prefix_code(bucket, d):
            return False
    return True


def _reference_equals(f, g):
    """Rewrite both tables over the leaves of the union of their domain code
    trees, then compare the rewritten rules one by one."""
    prefixes = {u[:i] for u, _, _ in f.rules + g.rules for i in range(len(u))}
    words = []

    def walk(w):
        if w in prefixes:
            for a in range(1, f.d + 1):
                walk(w + (a,))
        else:
            words.append(w)

    walk(())

    def refine(table):
        out = []
        for w in words:
            u, v, s = next(r for r in table.rules if w[: len(r[0])] == r[0])
            image, section = s.apply_finite(w[len(u) :])
            out.append((v + image, section))
        return out

    return all(
        v1 == v2 and s1.equals(s2) for (v1, s1), (v2, s2) in zip(refine(f), refine(g))
    )


def _general_step(e, letter):
    """The wreath recursion entry by entry, with no identity shortcut."""
    if not 1 <= letter <= e.d:
        raise ValueError(f"letter {letter} out of range 1..{e.d}")
    out = letter
    new_word = []
    for machine, name, sign in reversed(e.word):
        rho, delta = machine.states[name]
        if sign > 0:
            nxt = delta[out - 1]
            out = rho[out - 1]
        else:
            j = rho.index(out) + 1
            nxt = delta[j - 1]
            out = j
        new_word.append((machine, nxt, sign))
    new_word.reverse()
    return out, AutomatonElement(e.d, new_word)


def _general_apply_finite(e, word):
    out = []
    for letter in word:
        o, e = _general_step(e, letter)
        out.append(o)
    return tuple(out), e


def _general_mul(a, b):
    if a.d != b.d:
        raise ValueError("arity mismatch")
    return AutomatonElement(a.d, a.word + b.word)


def _general_inv(e):
    return AutomatonElement(e.d, tuple((m, n, -s) for m, n, s in reversed(e.word)))


def _general_is_identity(e):
    seen = {e.word}
    frontier = [e]
    while frontier:
        cur = frontier.pop()
        for i in range(1, cur.d + 1):
            out, sec = _general_step(cur, i)
            if out != i:
                return False
            if sec.word not in seen:
                seen.add(sec.word)
                frontier.append(sec)
    return True


def _general_equals(a, b):
    return _general_is_identity(_general_mul(a, _general_inv(b)))


def _random_elements(d, rng, count):
    """The identity, words that cancel to it, and random signed words over
    two random automata, some of them repeated as equal copies."""
    machines = [_random_automaton(d, rng), _random_automaton(d, rng)]
    entries = [(m, n) for m in machines for n in m.states]
    elements = [identity_element(d)]
    for _ in range(count):
        length = rng.randint(0, 3)
        word = [(*rng.choice(entries), rng.choice((1, -1))) for _ in range(length)]
        e = AutomatonElement(d, word)
        elements.append(e)
        if rng.random() < 0.2:
            elements.append(AutomatonElement(d, e.word + _general_inv(e).word))
        if rng.random() < 0.2:
            elements.append(AutomatonElement(d, e.word))
    return elements


@pytest.mark.parametrize("d", (2, 3))
def test_identity_fast_paths_match_the_general_recursion(d):
    rng = random.Random(41 + d)
    elements = _random_elements(d, rng, 120)
    assert sum(not e.word for e in elements) >= 10
    # the adding machine's carry-free letters step into its trivial state
    carry = ((*range(2, d + 1), 1), ("e",) * (d - 1) + ("a",))
    adder = Automaton(d, {"a": carry, "e": (range(1, d + 1), "e" * d)})
    elements += [
        AutomatonElement(d, [(adder, "a", s)] * k) for s in (1, -1) for k in (1, 2, 3)
    ]
    # two reflections of unequal machines: no pair cancels, and every step
    # leaves the word as it is
    h, k = full_reflection(d), _named_reflection(d, "k0")
    elements += [h * k, k * h.inv(), h * k * h]
    steps = {"inverse one-entry": 0, "into trivial": 0, "unchanged multi-entry": 0}
    for e in elements:
        for letter in range(1, d + 1):
            out, section = e.step(letter)
            assert (out, section) == _general_step(e, letter)
            if section.word == e.word:
                assert section is e
                steps["unchanged multi-entry"] += len(e.word) > 1
            steps["inverse one-entry"] += len(e.word) == 1 and e.word[0][2] < 0
            steps["into trivial"] += bool(e.word) and not section.word
        for _ in range(3):
            word = tuple(rng.randint(1, d) for _ in range(rng.randint(0, 5)))
            assert e.apply_finite(word) == _general_apply_finite(e, word)
        assert e.inv() == _general_inv(e)
        assert e.is_identity() == _general_is_identity(e)
    equal = 0
    for a, b in zip(elements, elements[1:] + elements[:1]):
        for x, y in ((a, b), (b, a), (a, a), (a, identity_element(d))):
            assert x * y == _general_mul(x, y)
            assert x.equals(y) == _general_equals(x, y)
            equal += x.equals(y)
    assert len(elements) < equal < 4 * len(elements)
    assert min(steps.values()) >= 2, steps


@pytest.mark.parametrize("d", (2, 3))
def test_full_reflection_steps_to_itself(d):
    h = full_reflection(d)
    for letter in range(1, d + 1):
        out, section = h.step(letter)
        assert out == d + 1 - letter and section is h
    assert h.apply_finite((1, d, 1))[1] is h


def test_internal_words_skip_the_public_checks(monkeypatch):
    rng = random.Random(59)
    odometer = Automaton(2, {"a": ((2, 1), ("e", "a")), "e": ((1, 2), ("e", "e"))})
    elements = _random_elements(2, rng, 40) + [
        full_reflection(2),
        AutomatonElement(2, ((odometer, "a", 1), (odometer, "a", -1), (odometer, "a", 1))),
    ]
    h = _reflection_map(2)
    maps = [from_tree_pair(random_element(V, rng)) for _ in range(10)]
    calls = []
    init = AutomatonElement.__init__

    def counting(self, d, word=()):
        calls.append(d)
        init(self, d, word)

    monkeypatch.setattr(AutomatonElement, "__init__", counting)
    for a, b in zip(elements, elements[1:]):
        a.step(1), a.apply_finite((2, 1, 2)), a.inv(), a * b, a.is_identity()
        a.equals(b), b.equals(a * b * b.inv())
    for f, g in zip(maps, maps[1:]):
        h.compose(f).compose(h).compose(g).invert().equals(g)
    assert calls == []
    AutomatonElement(2, elements[-1].word)
    assert calls == [2]


@pytest.mark.parametrize("d", (2, 3))
def test_identity_element_returns_itself_and_checks_letters(d):
    e = identity_element(d)
    h = full_reflection(d)
    assert e.step(d)[0] == d and e.step(d)[1] is e
    assert e.apply_finite((1, d, 1))[1] is e
    assert e.inv() is e
    assert h * e is h and e * h is h
    for bad in (0, d + 1):
        message = rf"^letter {bad} out of range 1\.\.{d}$"
        with pytest.raises(ValueError, match=message):
            e.step(bad)
        with pytest.raises(ValueError, match=message):
            e.apply_finite((1, bad))


def _words_up_to(d, length):
    return [w for n in range(length + 1) for w in product(range(1, d + 1), repeat=n)]


@pytest.mark.parametrize("d, length", [(2, 3), (3, 2)])
def test_complete_prefix_code_matches_recursive_split(d, length):
    words = _words_up_to(d, length)
    complete, trees = 0, 1  # complete codes of depth <= L: 1 + (those of depth < L)^d
    for _ in range(length):
        trees = 1 + trees**d
    for mask in range(1, 2 ** len(words)):
        subset = [w for i, w in enumerate(words) if mask >> i & 1]
        expected = _reference_is_complete_prefix_code(subset, d)
        assert _is_complete_prefix_code(subset, d) == expected, subset
        complete += expected
    assert complete == trees


def _split_rule(f, k):
    """An equal table with rule k expanded into its d children."""
    u, v, s = f.rules[k]
    children = []
    for a in range(1, f.d + 1):
        out, section = s.step(a)
        children.append((u + (a,), v + (out,), section))
    return PrefixMap(f.d, f.rules[:k] + tuple(children) + f.rules[k + 1 :])


def _random_tables(key, rng, count):
    system = make_system(key)
    h = _reflection_map(system.d)
    tables = []
    for _ in range(count):
        f = from_tree_pair(random_element(system, rng))
        tables.append(f)
        tables.append(h.invert().compose(f).compose(h))
    return tables


@pytest.mark.parametrize("key", ["V", "T", "Vhat", "V:3"])
def test_equals_matches_common_refinement(key):
    rng = random.Random(key)
    tables = _random_tables(key, rng, 40)
    equal = unequal = 0
    for f, g in zip(tables, tables[1:] + tables[:1]):
        variants = [
            (f, g),
            (f, _split_rule(f, rng.randrange(len(f.rules)))),
            (_split_rule(f, 0), _split_rule(g, len(g.rules) - 1)),
            (f.compose(g), g.invert().invert().compose(f.normalize())),
            (f, PrefixMap(f.d, [(u, v, s * full_reflection(f.d)) for u, v, s in f.rules])),
        ]
        # a single rule at () against a deep table, in both orders, so that
        # each side of the merge pass waits while the other leaves its cone
        for single in (PrefixMap.identity(f.d), _reflection_map(f.d)):
            deep = single
            for _ in range(rng.randint(3, 8)):
                deep = _split_rule(deep, rng.randrange(len(deep.rules)))
            variants += [(single, deep), (deep, single), (single, g), (f, single)]
        for a, b in variants:
            expected = _reference_equals(a, b)
            assert a.equals(b) == expected == b.equals(a)
            equal += expected
            unequal += not expected
    assert equal >= 40 and unequal >= 40


@pytest.mark.parametrize("key", ["V", "Vhat", "V:3"])
def test_rule_at_matches_linear_scan(key):
    rng = random.Random(23)
    for f in _random_tables(key, rng, 30):
        depth = max(len(u) for u, _, _ in f.rules)
        for _ in range(20):
            word = tuple(rng.randint(1, f.d) for _ in range(rng.randint(0, depth + 2)))
            expected = next((r for r in f.rules if word[: len(r[0])] == r[0]), None)
            assert f.rule_at(word) == expected
        shortest = min(len(u) for u, _, _ in f.rules)
        if shortest:
            for word in _words_up_to(f.d, shortest - 1):
                assert f.rule_at(word) is None


def _reference_normalize_rules(rules, d):
    """Merge the first mergeable sibling group in domain order, then start
    again from scratch, until no group merges."""
    rules = sorted(rules, key=lambda r: r[0])
    changed = True
    while changed:
        changed = False
        by_parent = {}
        for rule in rules:
            if rule[0]:
                by_parent.setdefault(rule[0][:-1], []).append(rule)
        for parent, group in by_parent.items():
            if len(group) != d:
                continue
            group = sorted(group, key=lambda r: r[0])
            if [r[0][-1] for r in group] != list(range(1, d + 1)):
                continue
            if any(not r[1] for r in group):
                continue
            v = group[0][1][:-1]
            if any(r[1][:-1] != v for r in group):
                continue
            last = [r[1][-1] for r in group]
            merged = _reference_try_merge(group, last, d)
            if merged is not None:
                rules = [r for r in rules if not (r[0] and r[0][:-1] == parent)]
                rules.append((parent, v, merged))
                rules.sort(key=lambda r: r[0])
                changed = True
                break
    return rules


def _reference_try_merge(group, last, d):
    """Try the identity, then each signed single state of the group."""
    candidates = [identity_element(d)]
    seen_entries = set()
    for _, _, s in group:
        for machine, name, _ in s.word:
            if (id(machine), name) not in seen_entries:
                seen_entries.add((id(machine), name))
                candidates.append(AutomatonElement(d, ((machine, name, 1),)))
                candidates.append(AutomatonElement(d, ((machine, name, -1),)))
    for cand in candidates:
        if cand.root_perm() != tuple(last):
            continue
        if all(cand.step(a)[1].equals(s_a) for a, (_, _, s_a) in enumerate(group, 1)):
            return cand
    return None


@pytest.mark.parametrize("key", ["V", "T", "Vhat", "F", "V:3", "T:3", "Vhat:3"])
def test_normalize_matches_restarting_loop(key):
    rng = random.Random(29)
    h = _reflection_map(make_system(key).d)
    merges = 0
    for f in _random_tables(key, rng, 20):
        for table in (f, h.compose(f)):
            for _ in range(rng.randint(1, 12)):
                table = _split_rule(table, rng.randrange(len(table.rules)))
            rules = list(table.rules)
            rng.shuffle(rules)
            expected = _reference_normalize_rules(rules, table.d)
            assert sorted(_normalize_rules(rules, table.d)) == expected
            merges += len(rules) - len(expected)
    assert merges >= 100


def _reference_worklist_normalize(rules, d):
    """The dict/set worklist the stack pass replaced: revisit the parent of
    every merged group until no group merges; the result is unsorted."""
    table = {u: (v, s) for u, v, s in rules}
    todo = {u[:-1] for u in table if u}
    while todo:
        parent = todo.pop()
        children = [parent + (a,) for a in range(1, d + 1)]
        if not all(c in table for c in children):
            continue
        group = [(c, *table[c]) for c in children]
        v = group[0][1][:-1]
        if any(not w or w[:-1] != v for _, w, _ in group):
            continue
        merged = _reference_try_merge(group, [w[-1] for _, w, _ in group], d)
        if merged is not None:
            for c in children:
                del table[c]
            table[parent] = (v, merged)
            if parent:
                todo.add(parent[:-1])
    return [(u, v, s) for u, (v, s) in table.items()]


def _reference_compose(f, g):
    """f . g as it was computed: rule_at for each rule of g, the general
    wreath recursion, the worklist normalize, then a sort."""
    out = []
    stack = list(g.rules)
    while stack:
        u, v, s = stack.pop()
        hit = f.rule_at(v)
        if hit is None:
            for a in range(1, f.d + 1):
                o, section = _general_step(s, a)
                stack.append((u + (a,), v + (o,), section))
            continue
        w_plus, w_minus, t = hit
        image, t_section = _general_apply_finite(t, v[len(w_plus) :])
        out.append((u, w_minus + image, _general_mul(t_section, s)))
    return sorted(_reference_worklist_normalize(out, f.d), key=itemgetter(0))


def _reference_invert(f):
    rules = [(v, u, _general_inv(s)) for u, v, s in f.rules]
    return sorted(_reference_worklist_normalize(rules, f.d), key=itemgetter(0))


@pytest.mark.parametrize("key", PERMUTATION_KEYS)
def test_compose_invert_normalize_match_the_worklist_oracle(key):
    rng = random.Random(f"stack {key}")
    tables = _random_tables(key, rng, 12)
    h = _reflection_map(tables[0].d)
    merged = searched = 0
    for f, g in zip(tables, tables[1:] + tables[:1]):
        # unnormal tables: rules split into their children
        split_f, split_g, split_hf = f, g, h.compose(f)
        for _ in range(rng.randint(1, 6)):
            split_f = _split_rule(split_f, rng.randrange(len(split_f.rules)))
            split_g = _split_rule(split_g, rng.randrange(len(split_g.rules)))
            split_hf = _split_rule(split_hf, rng.randrange(len(split_hf.rules)))
        for a, b in (
            (f, g), (g, f), (f, f.invert()), (h, f), (f, h),
            (split_f, split_g), (split_f, h), (h, split_g), (split_hf, split_g),
        ):
            assert a.compose(b).rules == tuple(_reference_compose(a, b))
        for table in (f, split_f, split_g, split_hf):
            assert table.invert().rules == tuple(_reference_invert(table))
            normal = table.normalize()
            assert normal.rules == tuple(
                sorted(_reference_worklist_normalize(table.rules, table.d))
            )
            merges = len(table.rules) - len(normal.rules)
            merged += merges
            searched += merges * any(s.word for _, _, s in normal.rules)
    # reflected children, under reversed letters, merge through the search
    assert merged >= 50 and searched >= 20


@pytest.mark.parametrize("d", (2, 3))
def test_identity_fast_paths_fire_only_on_empty_words(d):
    h = full_reflection(d)
    # the identity, but not the empty word: two reflections of unequal
    # machines do not cancel, and every step leaves the word as it is
    hh = h * _named_reflection(d, "k0")
    e = identity_element(d)
    assert len(hh.word) == 2 and hh.is_identity()
    system = make_system(f"V:{d}")
    rng = random.Random(67 + d)
    f = from_tree_pair(random_element(system, rng))
    while len(f.rules) < 3:
        f = from_tree_pair(random_element(system, rng))
    ident, twice, reflect = (PrefixMap(d, (((), (), s),)) for s in (e, hh, h))
    f_twice = PrefixMap(d, [(u, v, hh) for u, v, _ in f.rules])
    f_reflect = PrefixMap(d, [(u, v, h) for u, v, _ in f.rules])
    # equals: h0 k0 acts as the identity; an empty word on one side only
    # still needs the other side's section
    for a, b in ((twice, ident), (f_twice, f), (_split_rule(twice, 0), ident)):
        assert a.equals(b) and b.equals(a)
    for a, b in ((reflect, ident), (f_reflect, f), (f_reflect, f_twice)):
        assert not a.equals(b) and not b.equals(a)
    # compose: a section h0 k0 is applied and multiplied in, so it stays
    for a, b in ((twice, f), (f_twice, f), (f, f_twice), (f_twice, f_reflect)):
        assert a.compose(b).rules == tuple(_reference_compose(a, b))
    assert all(s == hh for _, _, s in twice.compose(f).rules)
    # normalize: children h0 k0 in order merge to the empty word, as
    # _try_merge decides; in reverse order they do not merge
    for states in ([hh] * d, [e] + [hh] * (d - 1), [hh] + [e] * (d - 1)):
        for letters in (range(1, d + 1), range(d, 0, -1)):
            rules = [((a,), (b,), s) for a, b, s in zip(range(1, d + 1), letters, states)]
            expected = _reference_normalize_rules(rules, d)
            assert _normalize_rules(rules, d) == expected
            assert (expected == [((), (), e)]) == (letters == range(1, d + 1))


@pytest.mark.parametrize("d", (2, 3))
def test_identity_fast_paths_skip_the_section_work(d, monkeypatch):
    system = make_system(f"V:{d}")
    rng = random.Random(71 + d)
    f, g = (from_tree_pair(random_element(system, rng)) for _ in range(2))
    calls = []
    for name in ("apply_finite", "is_identity", "root_perm"):
        method = getattr(AutomatonElement, name)

        def counting(self, *args, _name=name, _method=method):
            calls.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(AutomatonElement, name, counting)
    # tables with only empty sections: no section is applied, compared or
    # searched, and the identity merges still happen
    assert len(f.compose(f.invert()).rules) == 1
    assert f.compose(g).equals(f.compose(g).normalize())
    assert _split_rule(f, 0).normalize().rules == f.rules
    assert calls == []
    # the fast paths are internal; the public identity still checks letters
    with pytest.raises(ValueError, match=rf"^letter {d + 1} out of range 1\.\.{d}$"):
        identity_element(d).apply_finite((1, d + 1))
    assert calls == ["apply_finite"]
    calls.clear()
    h = _reflection_map(d)
    h.compose(f).equals(f.compose(h))
    _split_rule(h, 0).normalize()
    assert {"apply_finite", "root_perm"} <= set(calls)


@pytest.mark.parametrize(
    "key, radius", [("F", 3), ("T", 3), ("V", 3), ("Vhat", 3),
                    ("F:3", 2), ("T:3", 2), ("V:3", 2), ("Vhat:3", 2)],
)
def test_tree_pair_tables_are_already_normal(key, radius):
    system = make_system(key)
    rng = random.Random(31)
    ball = enumerate_system_ball(system, radius)
    for x in ball + [random_element(system, rng) for _ in range(100)]:
        rules = from_tree_pair(x).rules
        assert PrefixMap(system.d, _reference_normalize_rules(rules, system.d)).rules == rules


def _per_letter_is_complete_prefix_code(words, d):
    """Check each letter of each word, then split by first letter."""
    if any(a not in range(1, d + 1) for w in words for a in w):
        return False
    return _reference_is_complete_prefix_code(list(words), d)


@pytest.mark.parametrize("d", [2, 3])
def test_letter_check_matches_per_letter_scan(d):
    rng = random.Random(37)
    words = _words_up_to(d, 2)
    rejected = 0
    for _ in range(3000):
        code = rng.sample(words, rng.randint(1, 6))
        if rng.random() < 0.5:
            k = rng.randrange(len(code))
            if code[k]:
                i = rng.randrange(len(code[k]))
                bad = rng.choice((0, d + 1, rng.randint(1, d)))
                code[k] = code[k][:i] + (bad,) + code[k][i + 1 :]
        expected = _per_letter_is_complete_prefix_code(code, d)
        assert _is_complete_prefix_code(code, d) == expected, code
        rejected += not expected
    assert 0 < rejected < 3000
