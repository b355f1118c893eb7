"""Acceptance suite: every criterion prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  All
checks are exact (integer/word algebra); the stated wall-clock budgets are
asserted where the criteria carry one.
"""

import random
import time
from contextlib import contextmanager

from cloning_systems import cantor
from cloning_systems.analysis import (
    conjugate_count,
    coset_orbit_count,
    enumerate_fd_ball,
    enumerate_system_ball,
    mixing_witness,
    normalizes_up_to,
    sample_nontrivial_elements,
)
from cloning_systems.cloning import (
    BUILTIN_SYSTEM_KEYS,
    diversity_witness,
    image_membership,
    make_system,
    standard_symmetric_clone,
    verify_axioms,
)
from cloning_systems.experiments import fpf
from cloning_systems.groups import cycle_perm
from cloning_systems.thompson import (
    Element,
    composite_inverse_closed_form,
    expand_triple,
    fd_generator,
    powers_closed_form,
    random_element,
    reduce_triple,
)
from cloning_systems.trees import caret, expand_at, leaf, parse_tree, random_tree


@contextmanager
def criterion(number, name, budget_s=None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number:02d} [{name}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    within_budget = budget_s is None or elapsed < budget_s
    verdict = "PASS" if within_budget else "FAIL (over time budget)"
    print(f"criterion {number:02d} [{name}]: {verdict} ({elapsed:.1f}s)")
    assert within_budget, f"criterion {number} took {elapsed:.1f}s >= {budget_s}s"


def test_criterion_01_axioms():
    with criterion(1, "axioms exact on all built-in systems", budget_s=30):
        for key in ("F", "T", "V", "Vhat"):
            result = verify_axioms(make_system(key), n_max=4, exhaustive=True)
            assert result["ok"], (key, result)
        for key in (
            "prod:Z3:id,id",
            "prod:Z3:id,inv",
            "psi:Z3:id,id",
            "prod:F2:id,swap",
            "psi:F2:id,swap",
        ):
            result = verify_axioms(make_system(key), n_max=8, budget=1000, seed=0)
            assert result["ok"], (key, result)
            assert all(count >= 1000 for count in result["checked"].values())


def test_criterion_02_symmetric_clone_value():
    with criterion(2, "ternary cloning of the 3-cycle"):
        assert standard_symmetric_clone(
            cycle_perm(3, (1, 2, 3)), 3, 3
        ) == cycle_perm(5, (1, 4, 2, 5, 3))


def test_criterion_03_powers_closed_form():
    with criterion(3, "commutator powers match the closed form", budget_s=60):
        for d, key in ((2, "F"), (3, "F:3")):
            system = make_system(key)
            rng = random.Random(101)
            trees_checked = 0
            while trees_checked < 200:
                T = random_tree(d, rng.randint(1, 5 if d == 2 else 2), rng)
                if T.leaf_count > 6:
                    continue
                trees_checked += 1
                n = T.leaf_count
                for k in range(1, n):
                    for l in range(k + 1, n + 1):
                        x = Element(
                            system,
                            expand_at(T, k),
                            system.family.identity(n + d - 1),
                            expand_at(T, l),
                        )
                        acc = Element.identity(system)
                        for m in range(1, 7):
                            acc = acc * x
                            assert powers_closed_form(system, T, k, l, m) == acc


def test_criterion_04_inverse_propagation():
    with criterion(4, "iterated-cloning inverses match direct inversion"):
        for key in BUILTIN_SYSTEM_KEYS:
            system = make_system(key)
            d = system.d
            fam = system.family
            rng = random.Random(401)
            for _ in range(500):
                n = rng.randint(1, 4)
                g = fam.sample(n, rng)
                ks = []
                size = n
                for _ in range(rng.randint(1, 5)):
                    ks.append(rng.randint(1, size))
                    size += d - 1
                value, _ = composite_inverse_closed_form(system, n, g, ks)
                direct = g
                size = n
                for k in ks:
                    direct = system.clone(size, k, direct)
                    size += d - 1
                assert value == fam.inv(size, direct)


def test_criterion_05_canonical_forms():
    with criterion(5, "expand/reduce round trip and confluence"):
        for key in BUILTIN_SYSTEM_KEYS:
            system = make_system(key)
            rng = random.Random(7)
            for trial in range(500):
                x = random_element(system, rng)
                t = x.triple()
                for _ in range(10):
                    t = expand_triple(t, rng.randint(1, t.n))
                plain = reduce_triple(t)
                shuffled = reduce_triple(t, rng=random.Random(trial))
                assert (plain.T, plain.g, plain.U) == (x.T, x.g, x.U)
                assert (shuffled.T, shuffled.g, shuffled.U) == (x.T, x.g, x.U)


def test_criterion_06_cantor_oracle_equivalence():
    with criterion(6, "tree-pair algebra matches Cantor composition", budget_s=120):
        V = make_system("V")
        ball = enumerate_system_ball(V, 2)
        maps = {x: cantor.from_tree_pair(x) for x in ball}
        identity = Element.identity(V)
        assert maps[identity].is_identity()
        for x in ball:
            assert cantor.from_tree_pair(x.inv()).equals(maps[x].invert())
            assert cantor.is_order_preserving(maps[x]) == x.in_fd()
            for y in ball:
                assert cantor.from_tree_pair(x * y).equals(maps[x].compose(maps[y]))
        rng = random.Random(6)
        for _ in range(500):
            x, y = random_element(V, rng), random_element(V, rng)
            fx, fy = cantor.from_tree_pair(x), cantor.from_tree_pair(y)
            assert cantor.from_tree_pair(x * y).equals(fx.compose(fy))
            assert cantor.is_order_preserving(fx) == x.in_fd()


def test_criterion_07_diversity():
    with criterion(7, "image intersections and witness families"):
        result = diversity_witness(make_system("V"), 3)
        assert result["exhaustive"] and result["witness"] is None
        psi = make_system("psi:Z3:id,id")
        for n in (1, 2, 3):
            result = diversity_witness(psi, n)
            assert result["exhaustive"] and result["witness"] is None
        prod = make_system("prod:Z3:id,id")
        result = diversity_witness(prod, 3)
        w = result["witness"]
        assert w is not None and w == (w[0],) * 4
        swap_system = make_system("prod:F2:id,swap")
        swap = swap_system.monos[1]
        for n in (3, 4):  # odd and even alternating patterns
            result = diversity_witness(swap_system, n, seed=3)
            w = result["witness"]
            assert w is not None
            assert w == tuple(
                w[0] if i % 2 == 0 else swap.apply(w[0]) for i in range(n + 1)
            )
            assert all(image_membership(swap_system, n, k, w) for k in range(1, n + 1))


def test_criterion_08_conjugate_growth():
    with criterion(8, "conjugate counts grow in diverse systems", budget_s=300):
        for key in ("V", "psi:Z3:id,id"):
            system = make_system(key)
            balls = [enumerate_fd_ball(system, L) for L in (1, 2, 3, 4)]
            rng = random.Random(11)
            for x in sample_nontrivial_elements(system, 5, rng):
                counts = [conjugate_count(x, ball) for ball in balls]
                assert all(a < b for a, b in zip(counts, counts[1:])), (key, counts)
        prod = make_system("prod:Z3:id,id")
        fixed = Element(prod, leaf(2), (1,), leaf(2))
        for L in (1, 2, 3, 4):
            assert conjugate_count(fixed, enumerate_fd_ball(prod, L)) == 1


def test_criterion_09_normalizer():
    with criterion(9, "normalizer passes and failures with witnesses"):
        prod = make_system("prod:Z3:id,id")
        ball = enumerate_fd_ball(prod, 3)
        for g in (1, 2):
            for tree in (caret(2), expand_at(caret(2), 1)):
                x = Element(prod, tree, (g,) * tree.leaf_count, tree)
                ok, _ = normalizes_up_to(x, ball)
                assert ok
        bad = Element(prod, caret(2), (1, 0), caret(2))
        ok, witness = normalizes_up_to(bad, ball)
        assert not ok and witness is not None
        V = make_system("V")
        swap = Element(V, caret(2), cycle_perm(2, (1, 2)), caret(2))
        ok, witness = normalizes_up_to(swap, enumerate_fd_ball(V, 3))
        assert not ok and witness is not None


def test_criterion_10_coset_orbit_growth():
    with criterion(10, "coset orbits grow off the base subgroup"):
        for key in ("V", "psi:Z3:id,id"):
            system = make_system(key)
            balls = [enumerate_fd_ball(system, L) for L in (1, 2, 3)]
            rng = random.Random(11)
            for x in sample_nontrivial_elements(system, 5, rng, require_non_fd=True):
                counts = [coset_orbit_count(x, ball) for ball in balls]
                assert all(a < b for a, b in zip(counts, counts[1:])), (key, counts)
        V = make_system("V")
        for x in (fd_generator(V, 0), fd_generator(V, 1) * fd_generator(V, 0).inv()):
            for L in (1, 2, 3):
                assert coset_orbit_count(x, enumerate_fd_ball(V, L)) == 1
        prod = make_system("prod:Z3:id,id")
        fixed = Element(prod, leaf(2), (2,), leaf(2))
        for L in (1, 2, 3):
            assert coset_orbit_count(fixed, enumerate_fd_ball(prod, L)) == 1


def test_criterion_11_mixing_witnesses():
    with criterion(11, "commuting pair and the full reflection"):
        psi = make_system("psi:Z3:id,id")
        result = mixing_witness(
            psi,
            caret(2),
            (1,),
            (0, 1),
            parse_tree("(.(..))", 2),
            parse_tree("((..).)", 2),
        )
        assert result["commutes"] and result["f_nontrivial"]
        h = cantor.full_reflection(2)
        hm = cantor.PrefixMap(2, (((), (), h),))
        assert hm.compose(hm).is_identity()
        ones = cantor.parse_cantor_word("(1)")
        assert cantor.tail_equivalence_violations(hm, [ones]) == [ones]
        V = make_system("V")
        gens = [fd_generator(V, 0), fd_generator(V, 1)]
        ball = {Element.identity(V)}
        frontier = list(ball)
        for _ in range(2):
            new = []
            for b in frontier:
                for g in gens:
                    for e in (g, g.inv()):
                        y = b * e
                        if y not in ball:
                            ball.add(y)
                            new.append(y)
            frontier = new
        for b in ball:
            conj = hm.invert().compose(cantor.from_tree_pair(b)).compose(hm)
            assert cantor.is_order_preserving(conj)


def test_criterion_12_presentation_relations():
    with criterion(12, "generator relations at arity 2 and 3"):
        for d, key in ((2, "F"), (3, "F:3")):
            system = make_system(key)
            for k in range(0, 4):
                for l in range(k + 1, 5):
                    lhs = fd_generator(system, l) * fd_generator(system, k)
                    rhs = fd_generator(system, k) * fd_generator(system, l + d - 1)
                    assert lhs == rhs, (d, k, l)


def test_fpf_suites_supplement():
    # named fixed-point-free example systems behind criteria 7 and 8
    z3 = make_system("prod:Z3:id,inv")
    assert fpf(z3, 0, n=3, m=5).verdict == "pass"
    f2 = make_system("prod:F2:id,swap")
    assert fpf(f2, 0, n=3, m=5).verdict == "pass"
    z2 = make_system("prod:Z2:id,inv")
    assert fpf(z2, 0, n=3, m=5).verdict == "premise-failed"
