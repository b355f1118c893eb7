import json
import random
import tracemalloc

import pytest

from cloning_systems import analysis
from cloning_systems.analysis import (
    MAX_BALL_LEAVES,
    conjugate_count,
    coset_orbit_count,
    enumerate_fd_ball,
    enumerate_system_ball,
    mixing_witness,
    normalizes_up_to,
    sample_nontrivial_elements,
)
from cloning_systems.experiments import (
    EVIDENCE_EXHAUSTIVE,
    EVIDENCE_SAMPLED,
    ExperimentReport,
    fpf,
)
from cloning_systems.cloning import BUILTIN_SYSTEM_KEYS, make_system
from cloning_systems.groups import cycle_perm
from cloning_systems.thompson import (
    Element,
    SystemMismatch,
    _element,
    coset_key,
    fd_generator,
    parse_element,
    random_element,
)
from cloning_systems.trees import (
    caret,
    collapse_at,
    expand_at,
    leaf,
    parse_tree,
    removable_carets,
    tree_text,
    trees_with_carets,
)
from test_thompson import ALL_KEYS

V = make_system("V")
PROD = make_system("prod:Z3:id,id")
PSI = make_system("psi:Z3:id,id")


def test_ball_radius_one_is_identity_only():
    for system in (V, make_system("V:3")):
        ball = enumerate_fd_ball(system, 1)
        assert len(ball.elements) == 1
        assert ball.elements[0].is_identity()


def test_ball_radius_two_contains_first_generator():
    ball = enumerate_fd_ball(V, 2)
    x0 = fd_generator(V, 0)
    assert len(ball.elements) == 3
    assert x0 in ball.elements and x0.inv() in ball.elements


def test_ball_contains_identity_and_is_inverse_closed():
    for L in (2, 3):
        ball = enumerate_fd_ball(V, L)
        elems = set(ball.elements)
        assert Element.identity(V) in elems
        assert all(x.inv() in elems for x in elems)


def test_ball_elements_are_reduced_and_distinct():
    ball = enumerate_fd_ball(V, 3)
    assert len(set(ball.elements)) == len(ball.elements)
    rng = random.Random(0)
    from cloning_systems.thompson import reduce_triple

    for x in ball.elements:
        r = reduce_triple(x.triple(), rng=rng)
        assert (r.T, r.g, r.U) == (x.T, x.g, x.U)


def test_ball_sizes_before_reduction_follow_shape_counts():
    # pairs with equal caret counts, before dropping reducible ones
    from cloning_systems.trees import removable_carets, trees_with_carets

    for L in (2, 3):
        total = 0
        reduced = 0
        for c in range(L + 1):
            shapes = trees_with_carets(2, c)
            total += len(shapes) ** 2
            reduced += sum(
                1
                for T in shapes
                for U in shapes
                if not (removable_carets(T) & removable_carets(U))
            )
        assert total == sum(len(trees_with_carets(2, c)) ** 2 for c in range(L + 1))
        assert len(enumerate_fd_ball(V, L).elements) == reduced


def _pairwise_fd_ball(system, radius):
    """The ball as the pairwise loop built it, rescanning U for every (T, U)."""
    from cloning_systems.trees import trees_with_carets

    out = []
    for carets in range(radius + 1):
        shapes = trees_with_carets(system.d, carets)
        ident = system.family.identity(carets * (system.d - 1) + 1)
        for T in shapes:
            for U in shapes:
                if not removable_carets(T) & removable_carets(U):
                    out.append(_element(system, T, ident, U))
    return out


@pytest.mark.parametrize(
    "key, radius", [("F", 4), ("V", 4), ("V:3", 3), ("prod:F2:id,swap", 4)]
)
def test_ball_scans_each_shape_once_in_pairwise_order(key, radius, monkeypatch):
    from cloning_systems import analysis
    from cloning_systems.trees import trees_with_carets

    system = make_system(key)
    expected = _pairwise_fd_ball(system, radius)
    scanned = []

    def counting(t):
        scanned.append(t)
        return removable_carets(t)

    monkeypatch.setattr(analysis, "removable_carets", counting)
    ball = enumerate_fd_ball(system, radius)
    assert ball.elements == tuple(expected) and not ball.truncated
    shapes = [t for c in range(radius + 1) for t in trees_with_carets(system.d, c)]
    assert scanned == shapes


def _cap_refusal(radius):
    return f"^the F_d ball of radius {radius} passes the cap of {MAX_BALL_LEAVES} tree leaves; "


@pytest.mark.parametrize(
    "key, radius, admitted",
    [("V", 6, True), ("V", 7, False), ("V:3", 4, True), ("V:3", 5, False), ("V:10", 3, True)],
)
def test_ball_cap_bounds_the_tree_leaves_held(key, radius, admitted):
    if not admitted:
        with pytest.raises(ValueError, match=_cap_refusal(radius)):
            enumerate_fd_ball(make_system(key), radius)
        return
    ball = enumerate_fd_ball(make_system(key), radius)
    held = sum(x.T.leaf_count + x.U.leaf_count for x in ball.elements)
    assert held <= MAX_BALL_LEAVES


def test_ball_truncation_guard(monkeypatch):
    from cloning_systems import analysis

    # a refused ball is decided by its leaf bound alone: no tree is built
    monkeypatch.setattr(analysis, "trees_with_carets", None)
    for system, radius in ((V, 7), (make_system("V:100000"), 2)):
        with pytest.raises(ValueError, match=_cap_refusal(radius)) as exc:
            enumerate_fd_ball(system, radius)
        assert type(exc.value) is ValueError


@pytest.mark.parametrize("key, radius", [("V", 0), ("V", 3), ("V:3", 2), ("prod:Z3:id,inv", 2)])
def test_every_ball_reads_whole_and_refuses_to_be_marked_truncated(key, radius):
    ball = enumerate_fd_ball(make_system(key), radius)
    assert ball.truncated is False
    with pytest.raises(AttributeError):
        ball.truncated = True
    assert ball.truncated is False


@pytest.mark.parametrize("enumerate_ball", [enumerate_fd_ball, enumerate_system_ball])
def test_both_ball_enumerators_refuse_a_negative_radius(enumerate_ball):
    with pytest.raises(ValueError, match="^radius must be >= 0$"):
        enumerate_ball(V, -1)


def test_conjugate_count_identity():
    for L in (1, 2, 3):
        assert conjugate_count(Element.identity(V), enumerate_fd_ball(V, L)) == 1


def test_conjugate_count_fixed_element_in_identity_products():
    x = Element(PROD, leaf(2), (1,), leaf(2))
    for L in (1, 2, 3, 4):
        assert conjugate_count(x, enumerate_fd_ball(PROD, L)) == 1


def test_conjugate_count_grows_for_the_swap():
    x = Element(V, caret(2), cycle_perm(2, (1, 2)), caret(2))
    counts = [conjugate_count(x, enumerate_fd_ball(V, L)) for L in (1, 2, 3, 4)]
    assert counts == sorted(counts)
    assert all(a < b for a, b in zip(counts, counts[1:]))
    assert counts[0] == 1


def test_conjugate_count_monotone_in_radius():
    rng = random.Random(1)
    balls = [enumerate_fd_ball(V, L) for L in (1, 2, 3)]
    for _ in range(10):
        x = random_element(V, rng)
        counts = [conjugate_count(x, b) for b in balls]
        assert counts == sorted(counts)


def test_conjugate_count_one_iff_ball_centralizes():
    rng = random.Random(2)
    ball = enumerate_fd_ball(V, 3)
    for _ in range(15):
        x = random_element(V, rng)
        commutes_all = all(f * x == x * f for f in ball.elements)
        assert (conjugate_count(x, ball) == 1) == commutes_all


def test_normalizer_passes_on_fd_elements():
    rng = random.Random(3)
    for system in (V, PROD):
        ball = enumerate_fd_ball(system, 3)
        for i in range(3):
            x = fd_generator(system, i)
            ok, _ = normalizes_up_to(x, ball)
            assert ok


def test_normalizer_constant_tuples_pass():
    ball = enumerate_fd_ball(PROD, 3)
    for g in (1, 2):
        for tree in (caret(2), expand_at(caret(2), 2)):
            n = tree.leaf_count
            x = Element(PROD, tree, (g,) * n, tree)
            ok, _ = normalizes_up_to(x, ball)
            assert ok


def test_normalizer_nonconstant_tuple_fails_with_witness():
    ball = enumerate_fd_ball(PROD, 3)
    x = Element(PROD, caret(2), (1, 0), caret(2))
    ok, witness = normalizes_up_to(x, ball)
    assert not ok and witness is not None
    assert not (x.inv() * witness * x).in_fd() or not (x * witness * x.inv()).in_fd()


def test_normalizer_v_swap_fails():
    ball = enumerate_fd_ball(V, 3)
    x = Element(V, caret(2), cycle_perm(2, (1, 2)), caret(2))
    ok, witness = normalizes_up_to(x, ball)
    assert not ok and witness is not None
    ok1, _ = normalizes_up_to(x, ball, one_sided=True)
    assert not ok1


def _product_normalizes_up_to(x, ball, one_sided=False):
    """The normalizer check by products: x^-1 f x and x f x^-1 tested in F_d."""
    xi = x.inv()
    for f in ball.elements:
        if not (xi * f * x).in_fd():
            return False, f
        if not one_sided and not (x * f * xi).in_fd():
            return False, f
    return True, None


def test_normalizer_matches_the_product_oracle():
    second_direction = 0
    for key in ALL_KEYS:
        system = make_system(key)
        ball = enumerate_fd_ball(system, 3 if system.d == 2 else 2)
        rng = random.Random(key)
        xs = [random_element(system, rng) for _ in range(8)]
        if key == "V:3":
            # x^-1 f x is in F_d and x f x^-1 is not, at this first failing f
            xs.append(parse_element(system, "[((...)..) ; [1,3,4,5,2] ; (.(...).)]"))
        for x in xs:
            for one_sided in (False, True):
                got = normalizes_up_to(x, ball, one_sided=one_sided)
                assert got == _product_normalizes_up_to(x, ball, one_sided)
            ok, f = normalizes_up_to(x, ball)
            if not ok and (x.inv() * f * x).in_fd():
                second_direction += 1
    assert second_direction >= 1


def test_counts_refuse_a_ball_of_another_system():
    x = fd_generator(V, 0)
    ball = enumerate_fd_ball(make_system("T"), 2)
    for check in (conjugate_count, coset_orbit_count, normalizes_up_to):
        with pytest.raises(SystemMismatch):
            check(x, ball)
    # no ball past the cap reaches a count: over an empty one the counts
    # would read 0 and the normalizer check would pass
    with pytest.raises(ValueError, match=_cap_refusal(7)) as exc:
        enumerate_fd_ball(V, 7)
    assert type(exc.value) is ValueError


def test_coset_orbit_identity_class():
    for x in (fd_generator(V, 0), fd_generator(V, 1), Element.identity(V)):
        for L in (1, 2, 3):
            assert coset_orbit_count(x, enumerate_fd_ball(V, L)) == 1


def test_coset_orbit_fixed_element():
    x = Element(PROD, leaf(2), (2,), leaf(2))
    for L in (1, 2, 3):
        assert coset_orbit_count(x, enumerate_fd_ball(PROD, L)) == 1


def test_coset_orbit_grows_for_the_swap():
    x = Element(V, caret(2), cycle_perm(2, (1, 2)), caret(2))
    counts = [coset_orbit_count(x, enumerate_fd_ball(V, L)) for L in (1, 2, 3)]
    assert all(a < b for a, b in zip(counts, counts[1:]))
    assert counts[0] == 1


def test_coset_equality_is_equivalence_relation():
    rng = random.Random(5)
    x = Element(V, caret(2), cycle_perm(2, (1, 2)), caret(2))
    ball = enumerate_fd_ball(V, 2)
    translates = [f * x for f in ball.elements]

    def same_coset(a, b):
        return (a.inv() * b).in_fd()

    for a in translates:
        assert same_coset(a, a)
        for b in translates:
            assert same_coset(a, b) == same_coset(b, a)
            for c in translates[:3]:
                if same_coset(a, b) and same_coset(b, c):
                    assert same_coset(a, c)


def _coset_orbit_oracle(x, ball):
    """The quadratic count: compare each translate with every representative."""
    rep_invs = []
    for f in ball.elements:
        y = f * x
        if not any((ri * y).in_fd() for ri in rep_invs):
            rep_invs.append(y.inv())
    return len(rep_invs)


def _shuffled_coset_key(y, rng):
    """coset_key with the sites of each pass tried in a random order."""
    yi = y.inv()
    system, h, Q = yi.sys, yi.g, yi.U
    while True:
        n_small = Q.leaf_count - (system.d - 1)
        sites = list(removable_carets(Q))
        rng.shuffle(sites)
        for k in sites:
            h0 = system.try_unclone(n_small, k, h)
            if h0 is not None:
                h, Q = h0, collapse_at(Q, k)
                break
        else:
            return Q, h


def _key_case(key):
    """A system, its F_d ball (radius 3 at d = 2, 2 at d = 3) and random elements.

    The elements lie outside F_d except in F and F:3, where every element
    is in F_d.
    """
    system = make_system(key)
    ball = enumerate_fd_ball(system, 3 if system.d == 2 else 2)
    rng = random.Random(key)
    xs = sample_nontrivial_elements(
        system, 4, rng, max_carets=3, require_non_fd=not key.startswith("F")
    )
    return system, ball, xs


@pytest.mark.parametrize("key", ALL_KEYS)
def test_coset_orbit_count_matches_the_oracle(key):
    _, ball, xs = _key_case(key)
    for x in xs:
        assert coset_orbit_count(x, ball) == _coset_orbit_oracle(x, ball)


@pytest.mark.parametrize("key", ALL_KEYS)
def test_coset_key_is_constant_on_cosets(key):
    _, ball, xs = _key_case(key)
    for y in xs:
        assert all(coset_key(y * f) == coset_key(y) for f in ball.elements)


@pytest.mark.parametrize("key", ALL_KEYS)
def test_coset_key_separates_cosets(key):
    _, ball, xs = _key_case(key)
    for x in xs[:2]:
        translates = [f * x for f in ball.elements]
        keys = [coset_key(a) for a in translates]
        for a, ka in zip(translates, keys):
            ai = a.inv()
            for b, kb in zip(translates, keys):
                assert (ka == kb) == (ai * b).in_fd()


@pytest.mark.parametrize("key", ALL_KEYS)
def test_coset_key_does_not_depend_on_site_order(key):
    _, ball, xs = _key_case(key)
    rng = random.Random(17)
    for x in xs:
        for f in ball.elements:
            y = f * x
            assert _shuffled_coset_key(y, rng) == coset_key(y)


def test_mixing_witness_commuting_pair():
    # caret base tree with the nontrivial entry in slot 2, grafts at leaf 1
    res = mixing_witness(
        PSI,
        caret(2),
        (1,),
        (0, 1),
        parse_tree("(.(..))", 2),
        parse_tree("((..).)", 2),
    )
    assert res["commutes"] and res["f_nontrivial"]
    assert not res["x"].in_fd()
    assert res["f"].in_fd()


def test_mixing_witness_in_identity_products():
    rng = random.Random(7)
    for _ in range(10):
        from cloning_systems.trees import leaf_words, random_tree

        R = random_tree(2, rng.randint(1, 3), rng)
        words = leaf_words(R)
        v = words[rng.randrange(len(words))]
        g = PROD.family.sample(R.leaf_count, rng)
        res = mixing_witness(
            PROD, R, v, g, parse_tree("(.(..))", 2), parse_tree("((..).)", 2)
        )
        assert res["commutes"]


def test_mixing_witness_trivial_middle():
    # with identity middle x lies in F_d and commutation is automatic
    res = mixing_witness(
        PSI, caret(2), (2,), (0, 0), parse_tree("(.(..))", 2), parse_tree("((..).)", 2)
    )
    assert res["x"].in_fd()
    assert res["commutes"]


def test_mixing_witness_permutation_middles():
    # commutation requires the middle to fix the grafted leaf's index
    from cloning_systems.groups import cycle_perm

    R = expand_at(caret(2), 2)
    grafts = (parse_tree("((..).)", 2), parse_tree("(.(..))", 2))
    good = mixing_witness(V, R, (1,), cycle_perm(3, (2, 3)), *grafts)
    assert good["commutes"] and good["middle_fixes_graft_leaf"]
    bad = mixing_witness(V, R, (1,), cycle_perm(3, (1, 2)), *grafts)
    assert not bad["commutes"] and not bad["middle_fixes_graft_leaf"]


def test_mixing_witness_nonuniform_system_with_quiet_slot():
    # a fresh-copy-twisting system still commutes when the grafted slot
    # holds the identity, so the expansions only ever clone trivial entries
    system = make_system("prod:F2:id,swap")
    res = mixing_witness(
        system,
        caret(2),
        (1,),
        ("", "ab"),
        parse_tree("(.(..))", 2),
        parse_tree("((..).)", 2),
    )
    assert res["commutes"] and res["f_nontrivial"]
    res2 = mixing_witness(
        system,
        caret(2),
        (1,),
        ("ab", ""),
        parse_tree("(.(..))", 2),
        parse_tree("((..).)", 2),
    )
    assert not res2["commutes"]  # the twisted clones hit the live entry


def test_mixing_witness_validates_grafts():
    with pytest.raises(ValueError):
        mixing_witness(PSI, caret(2), (1,), (0, 1), caret(2), caret(2))
    with pytest.raises(ValueError):
        mixing_witness(
            PSI, caret(2), (1,), (0, 1), caret(2), expand_at(caret(2), 1)
        )


def test_fpf_suite_cyclic():
    report = fpf(make_system("prod:Z3:id,inv"), 0, n=3, m=5)
    assert report.verdict == "pass"
    assert report.evidence == EVIDENCE_EXHAUSTIVE
    assert all(report.series["checks"].values())


def test_fpf_suite_free_group():
    report = fpf(make_system("prod:F2:id,swap"), 0, n=3, m=5)
    assert report.verdict == "pass"


def test_fpf_suite_two_torsion_premise_fails():
    report = fpf(make_system("prod:Z2:id,inv"), 0, n=3, m=5)
    assert report.verdict == "premise-failed"
    assert not report.series["checks"]["premise_fixed_point_free"]


@pytest.mark.parametrize("group, phi", [("Z2", "inv"), ("Z3", "id")])
def test_fpf_suite_premise_failure_names_a_witness(group, phi):
    report = fpf(make_system(f"prod:{group}:id,{phi}"), 0, n=3, m=5)
    assert report.verdict == "premise-failed"
    assert report.witnesses == ["premise_fixed_point_free fails at 1"]


def test_fpf_suite_rejects_empty_power_range():
    with pytest.raises(ValueError, match="m must be >= 1"):
        fpf(make_system("prod:Z3:id,inv"), 0, n=3, m=0)


def test_report_json_roundtrip():
    report = ExperimentReport(
        experiment="diversity",
        system="V",
        params={"n": 3},
        seed=7,
        series={"witness_found": False},
        witnesses=[],
        verdict="no-witness",
        evidence=EVIDENCE_EXHAUSTIVE,
        runtime_ms=12,
    )
    doc = json.loads(report.to_json())
    assert ExperimentReport.from_dict(doc).to_dict() == report.to_dict()
    stable = report.to_json(include_runtime=False)
    assert "runtime_ms" not in stable


def test_report_from_dict_needs_the_four_identifying_keys():
    doc = {"experiment": "growth", "system": "V", "params": {}, "seed": 3}
    for key in doc:
        with pytest.raises(KeyError, match=key):
            ExperimentReport.from_dict({k: v for k, v in doc.items() if k != key})


def test_report_from_dict_fills_missing_optional_keys_with_defaults():
    doc = {"experiment": "growth", "system": "V", "params": {"radius": 2}, "seed": 3}
    assert ExperimentReport.from_dict(doc) == ExperimentReport(**doc)
    report = ExperimentReport.from_dict({**doc, "verdict": "fail", "runtime_ms": 5})
    assert (report.verdict, report.runtime_ms) == ("fail", 5)
    assert (report.evidence, report.schema_version) == (EVIDENCE_SAMPLED, 1)
    assert report.series == {} and report.witnesses == []


def test_report_from_dict_ignores_unknown_keys():
    doc = {"experiment": "growth", "system": "V", "params": {}, "seed": 3}
    assert ExperimentReport.from_dict({**doc, "metrics": {"products": 9}}) == (
        ExperimentReport.from_dict(doc)
    )


def test_sampler_rejects_trivial_and_respects_filters():
    rng = random.Random(11)
    xs = sample_nontrivial_elements(V, 10, rng)
    assert len(set(xs)) == 10
    assert all(not x.is_identity() for x in xs)
    ys = sample_nontrivial_elements(V, 5, rng, require_non_fd=True)
    assert all(not y.in_fd() for y in ys)


def test_system_ball_enumerates_canonical_elements():
    ball = enumerate_system_ball(V, 1)
    assert len(ball) == len(set(ball))
    assert Element.identity(V) in ball
    swap = Element(V, caret(2), cycle_perm(2, (1, 2)), caret(2))
    assert swap in ball


def _system_ball_oracle(system, radius):
    """The system ball as an Element of every triple, de-duplicated by a set."""
    d = system.d
    seen = set()
    for carets in range(radius + 1):
        n = carets * (d - 1) + 1
        shapes = trees_with_carets(d, carets)
        for T in shapes:
            for U in shapes:
                for g in system.family.iterate(n):
                    seen.add(Element(system, T, g, U))
                    if len(seen) > analysis.MAX_SYSTEM_BALL:
                        raise ValueError("cap")
    return sorted(seen, key=lambda x: (x.n, tree_text(x.T), str(x.g), tree_text(x.U)))


FINITE_KEYS = [key for key in BUILTIN_SYSTEM_KEYS if make_system(key).family.is_finite(1)]


@pytest.mark.parametrize("key, radius", [*((key, 2) for key in FINITE_KEYS), ("Vhat", 3)])
def test_system_ball_matches_the_element_and_set_oracle(key, radius):
    system = make_system(key)
    ball = enumerate_system_ball(system, radius)
    want = _system_ball_oracle(system, radius)
    assert ball == want  # content and order
    assert len(ball) > 1


def test_system_ball_refuses_at_the_oracles_cap(monkeypatch):
    # Vhat at radius 4 has 4262 elements: a cap of 4262 keeps it and one of
    # 4261 refuses it, for the ball and the oracle alike
    vhat = make_system("Vhat")
    size = len(enumerate_system_ball(vhat, 4))
    assert size == 4262
    for build in (enumerate_system_ball, _system_ball_oracle):
        monkeypatch.setattr(analysis, "MAX_SYSTEM_BALL", size)
        assert len(build(vhat, 4)) == size
        monkeypatch.setattr(analysis, "MAX_SYSTEM_BALL", size - 1)
        with pytest.raises(ValueError):
            build(vhat, 4)


def test_system_ball_refuses_before_building_all_of_g_n():
    # radius 1 of V:9 pairs one caret with each of the 9! = 362880 middles
    # of S_9; G_9 is read one element at a time, so the cap stops the loop
    # holding the 20001 elements it has when it refuses (about 7 MB), not 9!
    # tuples
    system = make_system("V:9")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="more than 20000 elements"):
            enumerate_system_ball(system, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
