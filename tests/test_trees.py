import random
import re
from math import comb

import pytest
from hypothesis import given, strategies as st

from cloning_systems.trees import (
    MAX_TREE_DEPTH,
    Tree,
    _closes,
    _compositions,
    _expand_along,
    _tree,
    agree_away_from,
    caret,
    collapse_at,
    common_expansion,
    expand_at,
    expansion_path,
    forest_sites,
    glue_caret,
    graft,
    graft_forest,
    is_word,
    leaf,
    leaf_index,
    leaf_word,
    leaf_words,
    parse_tree,
    random_tree,
    removable_carets,
    right_spine,
    tree_text,
    tree_union,
    trees_with_carets,
    trivial_leaf,
)


def dominates(big, small):
    """Oracle: big arises from small by expansions."""
    return tree_union(big, small) == big


def transplant(s, a, b):
    """Oracle: graft onto b's leaves, in leaf order, the forest that s hangs
    below a's; s must dominate a, and a and b need the same leaf count."""
    return _tree(b.d, graft_forest(b.depths, split_forest(s, a)[0]))


def split_forest(s, a):
    """Oracle: the trees that s hangs below a's leaves, and where grafting them leaves carets.

    s must dominate a.  Returns (forest, sites): forest[i] holds the leaf
    depths of the tree below leaf i+1 of a, counted from that leaf ((0,)
    where s keeps the leaf).  A removable caret of graft_forest(b.depths, forest),
    for b with a's leaf count, lies inside one of those trees, at its leaf
    index in s, or is a caret of b whose d leaves keep trivial trees.
    sites maps each such leaf index to the carets of b (by first leaf) it
    needs: none, or that one.  One _closes scan: the tree below a leaf of
    depth e ends at the first leaf of s after which at most e nodes stay open.
    """
    d, depths, stem = s.d, s.depths, a.depths
    forest: list[tuple[int, ...]] = []
    sites: dict[int, frozenset[int]] = {}
    start = run = 0  # run: trivial trees in a row
    for p, (e, c) in enumerate(zip(depths, _closes(d, depths))):
        top = stem[len(forest)]
        if p == start and e < top:
            raise ValueError("the tree does not dominate the stem")
        if c and e > top and depths[p - d + 1] == e:
            sites[p - d + 2] = frozenset()
        if e - c <= top:
            run = run + 1 if p == start else 0
            forest.append(tuple([x - top for x in depths[start : p + 1]]))
            start = p + 1
            if run >= d:
                sites[p - d + 2] = frozenset((len(forest) - d + 1,))
    return forest, sites


def test_leaf_and_caret_counts():
    assert leaf(2).leaf_count == 1
    assert caret(2).leaf_count == 2
    assert caret(3).leaf_count == 3
    assert expand_at(leaf(5), 1) == caret(5)


def test_trees_refuse_new_attributes():
    # fields are read-only by contract; __slots__ still refuses new ones
    for t in (leaf(2), caret(3)):
        with pytest.raises(AttributeError):
            t.extra = 1
    assert leaf(2).is_leaf and not caret(3).is_leaf


def test_expand_at_single_caret():
    assert expand_at(leaf(2), 1) == caret(2)
    assert expand_at(leaf(3), 1) == caret(3)


def test_expand_leaf_count_growth():
    t = expand_at(caret(3), 2)
    assert t.leaf_count == 5


def test_expansion_commutation_binary_caret():
    # (T_2)_1 == (T_1)_3 for the binary caret: l=2, k=1, shift l+d-1=3
    t = caret(2)
    assert expand_at(expand_at(t, 2), 1) == expand_at(expand_at(t, 1), 3)


@given(st.integers(2, 4), st.lists(st.integers(0, 10**6), min_size=0, max_size=6), st.data())
def test_expansion_commutation_random(d, seeds, data):
    t = leaf(d)
    for s in seeds:
        t = expand_at(t, s % t.leaf_count + 1)
    n = t.leaf_count
    if n < 2:
        return
    k = data.draw(st.integers(1, n - 1))
    l = data.draw(st.integers(k + 1, n))
    assert expand_at(expand_at(t, l), k) == expand_at(expand_at(t, k), l + d - 1)


def test_expand_out_of_range():
    with pytest.raises(IndexError):
        expand_at(caret(2), 3)
    with pytest.raises(IndexError):
        expand_at(caret(2), 0)


def test_removable_carets_examples():
    assert removable_carets(leaf(2)) == set()
    assert removable_carets(caret(2)) == {1}
    assert removable_carets(caret(4)) == {1}
    # 3-leaf left comb: only the node over leaves 1,2 is a caret
    left_comb = expand_at(caret(2), 1)
    assert removable_carets(left_comb) == {1}


def test_collapse_inverts_expand():
    rng = random.Random(0)
    for _ in range(200):
        d = rng.choice((2, 3))
        t = random_tree(d, rng.randint(0, 4), rng)
        k = rng.randint(1, t.leaf_count)
        assert collapse_at(expand_at(t, k), k) == t


def test_collapse_requires_caret():
    with pytest.raises(ValueError):
        collapse_at(expand_at(caret(2), 1), 2)


@pytest.mark.parametrize("d", [2, 3])
def test_collapse_at_every_small_tree_and_position(d):
    for carets in range(5):
        for t in trees_with_carets(d, carets):
            removable = removable_carets(t)
            for k in range(t.leaf_count + 2):
                if k in removable:
                    assert expand_at(collapse_at(t, k), k) == t
                else:
                    with pytest.raises(ValueError, match=f"no removable caret at leaf {k}"):
                        collapse_at(t, k)


def _closes_removable_carets(t):
    """Oracle: carets by the nesting scan.  A node ending at leaf i whose
    first child is a leaf as deep as leaf i has only leaf children: d - 1
    leaves cannot hold a bigger subtree."""
    d, depths = t.d, t.depths
    return {
        i - d + 2
        for i, c in enumerate(_closes(d, depths))
        if c and depths[i - d + 1] == depths[i]
    }


@pytest.mark.parametrize("d", [2, 3, 4])
def test_cone_alignment_matches_the_closes_oracle(d):
    rng = random.Random(400 + d)
    for carets in range(41):
        for _ in range(3):
            t = random_tree(d, carets, rng)
            want = _closes_removable_carets(t)
            assert removable_carets(t) == want
            depths = t.depths
            for k in range(t.leaf_count + d):  # from 0 to past the end
                if k in want:
                    short = depths[: k - 1] + (depths[k - 1] - 1,) + depths[k + d - 1 :]
                    assert collapse_at(t, k).depths == short
                else:
                    with pytest.raises(ValueError, match=f"^no removable caret at leaf {k}$"):
                        collapse_at(t, k)


def test_leaf_word_index_bijection():
    rng = random.Random(1)
    for _ in range(100):
        d = rng.choice((2, 3, 4))
        t = random_tree(d, rng.randint(0, 5), rng)
        words = leaf_words(t)
        assert len(words) == t.leaf_count
        assert sorted(words) == list(words)  # leaf order is lexicographic
        for k in range(1, t.leaf_count + 1):
            w = leaf_word(t, k)
            assert w == words[k - 1]
            assert leaf_index(t, w) == k


def test_common_expansion_trivial_and_leaf():
    t = random_tree(2, 3, random.Random(2))
    w, pt, pu = common_expansion(t, t)
    assert w == t and pt == [] and pu == []
    w, pt, pu = common_expansion(leaf(2), t)
    assert w == t and pu == []
    cur = leaf(2)
    for k in pt:
        cur = expand_at(cur, k)
    assert cur == t


def test_common_expansion_one_caret_each_side():
    t1 = expand_at(caret(2), 1)
    t2 = expand_at(caret(2), 2)
    w, p1, p2 = common_expansion(t1, t2)
    balanced = expand_at(expand_at(caret(2), 1), 3)
    assert w == balanced
    assert p1 == [3] and p2 == [1]


def test_common_expansion_replay_and_minimality():
    rng = random.Random(3)
    for _ in range(100):
        d = rng.choice((2, 3))
        t = random_tree(d, rng.randint(0, 4), rng)
        u = random_tree(d, rng.randint(0, 4), rng)
        w, pt, pu = common_expansion(t, u)
        cur = t
        for k in pt:
            cur = expand_at(cur, k)
        assert cur == w
        cur = u
        for k in pu:
            cur = expand_at(cur, k)
        assert cur == w
        # minimality: removing any caret of w breaks domination of t or u
        for k in removable_carets(w):
            smaller = collapse_at(w, k)
            assert not (dominates(smaller, t) and dominates(smaller, u))


def _sequential_expansion_path(t, target):
    """Reference: expand the first leaf where target is deeper, until equal."""

    def first_divergent_leaf(cur, goal, offset=0):
        if cur.is_leaf:
            return offset + 1 if not goal.is_leaf else None
        if goal.is_leaf:
            raise ValueError("target does not dominate the tree")
        for a, b in zip(cur.children, goal.children):
            found = first_divergent_leaf(a, b, offset)
            if found is not None:
                return found
            offset += a.leaf_count
        return None

    path = []
    cur = t
    while cur != target:
        k = first_divergent_leaf(cur, target)
        if k is None:
            raise ValueError("target does not dominate the tree")
        path.append(k)
        cur = expand_at(cur, k)
    return path


@pytest.mark.parametrize("d", [2, 3, 4])
def test_expansion_path_matches_sequential_replay(d):
    rng = random.Random(100 + d)
    for _ in range(1500):
        t = random_tree(d, rng.randint(0, 6), rng)
        u = random_tree(d, rng.randint(0, 6), rng)
        w = tree_union(t, u)
        assert expansion_path(t, w) == _sequential_expansion_path(t, w)
        assert expansion_path(u, w) == _sequential_expansion_path(u, w)
        if not dominates(u, t):
            for fn in (expansion_path, _sequential_expansion_path):
                with pytest.raises(ValueError):
                    fn(t, u)


def test_expansion_path_rejects_other_arity():
    with pytest.raises(ValueError):
        expansion_path(leaf(2), caret(3))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_expanding_along_the_expansion_path_rebuilds_the_target(d):
    rng = random.Random(200 + d)
    for _ in range(500):
        t = random_tree(d, rng.randint(0, 6), rng)
        w = t
        for _ in range(rng.randint(0, 8)):
            w = expand_at(w, rng.randint(1, w.leaf_count))
        u = tree_union(t, random_tree(d, rng.randint(0, 6), rng))
        for target in (w, u):
            path = expansion_path(t, target)
            assert _expand_along(t, path) == target
            # the splice is the caret-by-caret replay
            replay = t
            for k in path:
                replay = expand_at(replay, k)
            assert _expand_along(t, path) == replay
    t = random_tree(d, 3, rng)
    assert _expand_along(t, []) == t


def test_agree_away_from_identical_trees_first_leaf():
    t = random_tree(2, 3, random.Random(4))
    found = agree_away_from(t, t)
    assert found is not None
    v, r = found
    assert v == leaf_words(t)[0]


def _brute_force_agree(t, u, max_carets=3):
    # independent search: every prefix tree R, proper leaf v, and graft pair
    d = t.d
    pool = [s for c in range(max_carets + 1) for s in trees_with_carets(d, c)]
    for c in range(max_carets + 1):
        for r in trees_with_carets(d, c):
            for v in leaf_words(r):
                if not v:
                    continue
                for a in pool:
                    if graft(r, v, a) != t:
                        continue
                    for b in pool:
                        if graft(r, v, b) == u:
                            return v
    return None


def test_agree_away_from_disjoint_grafts_has_no_witness():
    t1 = expand_at(caret(2), 1)
    t2 = expand_at(caret(2), 2)
    assert _brute_force_agree(t1, t2) is None
    assert agree_away_from(t1, t2) is None


def test_agree_away_from_matches_brute_force():
    rng = random.Random(5)
    for _ in range(40):
        t = random_tree(2, rng.randint(1, 3), rng)
        u = random_tree(2, rng.randint(1, 3), rng)
        if t.leaf_count != u.leaf_count:
            continue
        ours = agree_away_from(t, u)
        brute = _brute_force_agree(t, u)
        assert (ours is None) == (brute is None)
        if ours is not None:
            v, r = ours
            assert graft(r, v, subtree(t, v)) == t
            assert graft(r, v, subtree(u, v)) == u


def subtree(t, word):
    node = t
    for step in word:
        node = node.children[step - 1]
    return node


def test_grafted_pair_has_witness():
    r = random_tree(2, 2, random.Random(6))
    v = leaf_words(r)[-1]
    t = graft(r, v, expand_at(caret(2), 1))
    u = graft(r, v, expand_at(caret(2), 2))
    found = agree_away_from(t, u)
    assert found is not None


def test_union_is_commutative_and_dominates():
    rng = random.Random(7)
    for _ in range(50):
        t = random_tree(3, rng.randint(0, 3), rng)
        u = random_tree(3, rng.randint(0, 3), rng)
        w = tree_union(t, u)
        assert w == tree_union(u, t)
        assert dominates(w, t) and dominates(w, u)


def test_text_roundtrip():
    rng = random.Random(8)
    for _ in range(100):
        d = rng.choice((2, 3))
        t = random_tree(d, rng.randint(0, 5), rng)
        assert parse_tree(tree_text(t), d) == t
        # every constructor leaves the hash to first use, and it is the hash
        # of (d, depths), so equal trees built different ways are one set entry
        built = [
            Tree(d, (t,) + tuple(Tree(d) for _ in range(d - 1))),
            _tree(d, tuple(e + 1 for e in t.depths) + (1,) * (d - 1)),
            expand_at(t, 1),
            collapse_at(expand_at(t, t.leaf_count), t.leaf_count),
            parse_tree(tree_text(t), d),
        ]
        for u in built:
            assert u._hash is None
            assert hash(u) == hash((u.d, u.depths)) == u._hash
        assert built[0] == built[1] and built[3] == built[4] == t
        assert len({*built, t}) == len({(u.d, u.depths) for u in (*built, t)})
    assert tree_text(leaf(2)) == "."
    assert tree_text(caret(2)) == "(..)"
    assert tree_text(expand_at(caret(2), 1)) == "((..).)"


def test_parse_rejects_garbage():
    for bad in ["", "(", "(.)", "(...))", "(..)x"]:
        with pytest.raises(ValueError):
            parse_tree(bad, 2)


def _left_comb_text(depth):
    return "(" * depth + "." + ".)" * depth


def test_parse_is_iterative_and_caps_the_depth():
    at_cap = parse_tree(_left_comb_text(MAX_TREE_DEPTH), 2)
    assert at_cap.leaf_count == MAX_TREE_DEPTH + 1
    assert leaf_word(at_cap, 1) == (1,) * MAX_TREE_DEPTH
    assert tree_text(at_cap) == _left_comb_text(MAX_TREE_DEPTH)
    # far past the recursion limit: refused by the cap, not by a RecursionError
    for depth in (MAX_TREE_DEPTH + 1, 5000):
        with pytest.raises(ValueError) as exc:
            parse_tree(_left_comb_text(depth), 2)
        assert str(exc.value) == f"tree depth {depth} exceeds the cap of {MAX_TREE_DEPTH}"


def test_equality_walks_trees_at_the_depth_cap():
    comb = _left_comb_text(MAX_TREE_DEPTH)
    # the same comb with the two children of its second-deepest node swapped
    swapped = "(" * (MAX_TREE_DEPTH - 1) + ".(..))" + ".)" * (MAX_TREE_DEPTH - 2)
    a, b, c = (parse_tree(text, 2) for text in (comb, comb, swapped))
    assert a is not b and a == b and a != c
    # a and c have the same leaf depths as a multiset: equality reads their order
    assert sorted(a.depths) == sorted(c.depths)
    # equality does not go through the hash
    for t in (a, b, c):
        t._hash = 0
    assert a == b and a != c


def _replayed_transplant(s, a, b):
    """Reference: replay the expansions that carry a onto s, on b."""
    for k in expansion_path(a, s):
        b = expand_at(b, k)
    return b


@pytest.mark.parametrize("d", [2, 3, 4])
def test_transplant_matches_expansion_replay(d):
    rng = random.Random(200 + d)
    for _ in range(1000):
        c = rng.randint(0, 5)
        a, b = random_tree(d, c, rng), random_tree(d, c, rng)
        s = a
        for _ in range(rng.randint(0, 6)):
            s = expand_at(s, rng.randint(1, s.leaf_count))
        s = tree_union(s, random_tree(d, rng.randint(0, 3), rng))
        assert transplant(s, a, b) == _replayed_transplant(s, a, b)
        assert transplant(s, a, a) == s
        other = random_tree(d, rng.randint(0, 5), rng)
        if not dominates(other, a):
            with pytest.raises(ValueError, match="does not dominate"):
                split_forest(other, a)


def _split_cases(d, rng):
    """(s, a) pairs with s dominating a, and the edge cases by name."""
    cases = []
    for _ in range(150):
        a = random_tree(d, rng.randint(0, 4), rng)
        s = a
        for _ in range(rng.randint(1, 6)):
            s = expand_at(s, rng.randint(1, s.leaf_count))
        cases.append((s, a))
    for c in range(5):
        a = random_tree(d, c, rng)
        cases.append((a, a))  # s == a: every tree of the forest is trivial
        cases.append((a, leaf(d)))  # a single leaf: the forest is s itself
        cases.append((expand_at(expand_at(a, 1), 1), a))  # one nontrivial tree
    return cases


@pytest.mark.parametrize("d", [2, 3])
def test_split_and_graft_match_expansion_replay(d):
    rng = random.Random(300 + d)
    for s, a in _split_cases(d, rng):
        forest, sites = split_forest(s, a)
        assert len(forest) == a.leaf_count and graft_forest(a.depths, forest) == s.depths
        if s == a:
            assert forest == [(0,)] * a.leaf_count
        if a.is_leaf:
            assert forest == [s.depths]
        # the sites every b keeps: the removable carets of s below a leaf of a
        words_a, words_s = leaf_words(a), leaf_words(s)
        assert {k for k, need in sites.items() if not need} == {
            k
            for k in removable_carets(s)
            if any(w == words_s[k - 1][: len(w)] for w in words_a if len(w) < len(words_s[k - 1]))
        }
        # the forest operations of thompson._conjugate_keys, against the cut
        assert forest_sites(d, forest) == sites
        for i, tree in enumerate(forest):  # a leaf of a that s keeps, by its number in s
            k = trivial_leaf(forest, i)
            assert words_s[k - 1] == words_a[i] if tree == (0,) else k == 0
        p = rng.randint(1, s.leaf_count)
        glued = list(forest)
        glue_caret(d, glued, p)
        assert glued == split_forest(expand_at(s, p), a)[0]
        # b: a itself and other shapes with a's leaf count
        same_size = trees_with_carets(d, (a.leaf_count - 1) // (d - 1))
        for b in {a, *rng.sample(same_size, min(4, len(same_size)))}:
            grafted = transplant(s, a, b)
            assert grafted == _replayed_transplant(s, a, b)
            have = removable_carets(b)
            assert removable_carets(grafted) == {k for k, need in sites.items() if need <= have}


def test_arity_checks():
    with pytest.raises(ValueError):
        Tree(1)
    with pytest.raises(ValueError):
        Tree(2, (leaf(2), leaf(3)))
    with pytest.raises(ValueError):
        tree_union(caret(2), caret(3))


def test_right_spine_shape():
    s = right_spine(2, 3)
    assert s.leaf_count == 4
    assert tree_text(s) == "(.(.(..)))"
    assert right_spine(3, 2).leaf_count == 5


def test_trees_with_carets_counts():
    # Catalan for d=2, Fuss-Catalan C(dc, c)/((d-1)c + 1) for every d: the
    # count F(d, c) that the F_d ball's leaf bound squares
    assert [len(trees_with_carets(2, c)) for c in range(6)] == [1, 1, 2, 5, 14, 42]
    assert [len(trees_with_carets(3, c)) for c in range(4)] == [1, 1, 3, 12]
    for d in range(2, 6):
        for c in range(6):
            assert len(trees_with_carets(d, c)) == comb(d * c, c) // ((d - 1) * c + 1)


def _recursive_compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _recursive_compositions(total - first, parts - 1):
            yield (first,) + rest


def test_compositions_match_the_recursive_order():
    for total in range(7):
        for parts in range(1, 8):
            assert list(_compositions(total, parts)) == list(
                _recursive_compositions(total, parts)
            )


def test_trees_with_carets_at_a_large_arity():
    # a composition over d parts no longer recurses d levels deep
    (t,) = trees_with_carets(1200, 1)
    assert t.leaf_count == 1200 and t.depths == (1,) * 1200


def test_graft_rejects_steps_outside_one_to_d():
    for d in (2, 3):
        for step in (0, d + 1):
            with pytest.raises(ValueError, match="is not a leaf address"):
                graft(caret(d), (step,), caret(d))
    with pytest.raises(ValueError, match="internal vertex"):
        graft(expand_at(caret(2), 1), (1,), caret(2))


def test_leaf_indices_refuse_bool_and_float():
    # True == 1 and 1.0 == 1 pass a range test alone
    t = parse_tree("(..)", 2)
    for k in (True, 1.0):
        out_of_range = "^" + re.escape(f"leaf index {k} out of range 1..2") + "$"
        with pytest.raises(IndexError, match=out_of_range):
            expand_at(t, k)
        with pytest.raises(IndexError, match=out_of_range):
            leaf_word(t, k)
        no_caret = "^" + re.escape(f"no removable caret at leaf {k}") + "$"
        with pytest.raises(ValueError, match=no_caret):
            collapse_at(t, k)
    assert expand_at(t, 1) == parse_tree("((..).)", 2)
    assert leaf_word(t, 1) == (1,)
    assert collapse_at(t, 1) == leaf(2)


def test_leaf_addresses_refuse_letters_that_are_not_ints():
    # True == 1 and 1.0 == 1 pass a range test, and "a" fails it with a TypeError
    t = parse_tree("(..)", 2)
    for word in ((True,), (1.0,), ("a",), (1, None)):
        assert not is_word(word, 2)
        with pytest.raises(ValueError, match=r"^.* is not a leaf address$"):
            leaf_index(t, word)
        with pytest.raises(ValueError, match=r"^.* is not a leaf address$"):
            graft(t, word, caret(2))
    assert is_word((), 2) and is_word((1, 2, 3), 3) and not is_word((3,), 2)
    assert graft(t, (1,), caret(2)) == parse_tree("((..).)", 2)


def test_agree_away_from_two_leaves_has_no_proper_vertex():
    assert agree_away_from(leaf(2), leaf(2)) is None


# The recursive node-object algorithms that the flat depth tuples replaced,
# kept as oracles over .children and Tree(d, kids).


def _nested_expand(t, k):
    if t.is_leaf:
        return caret(t.d)
    kids, acc = [], 0
    for c in t.children:
        kids.append(_nested_expand(c, k - acc) if acc < k <= acc + c.leaf_count else c)
        acc += c.leaf_count
    return Tree(t.d, tuple(kids))


def _nested_removable_carets(t, offset=0):
    if t.is_leaf:
        return set()
    if all(c.is_leaf for c in t.children):
        return {offset + 1}
    out = set()
    for c in t.children:
        out |= _nested_removable_carets(c, offset)
        offset += c.leaf_count
    return out


def _nested_union(t, u):
    if t.is_leaf:
        return u
    if u.is_leaf:
        return t
    return Tree(t.d, tuple(_nested_union(a, b) for a, b in zip(t.children, u.children)))


def _nested_collapse(t, k):
    """t with the node over leaves k..k+d-1 made a leaf; None if not a caret."""
    if t.is_leaf:
        return None
    if k == 1 and all(c.is_leaf for c in t.children):
        return Tree(t.d)
    kids, acc = list(t.children), 0
    for i, c in enumerate(kids):
        if acc < k <= acc + c.leaf_count:
            sub = _nested_collapse(c, k - acc)
            if sub is None:
                return None
            kids[i] = sub
            return Tree(t.d, tuple(kids))
        acc += c.leaf_count
    return None


def _oracle_trees(d):
    """Every tree up to 4 carets (3 at d = 4), and random bigger ones."""
    rng = random.Random(300 + d)
    small = [t for c in range(5 if d < 4 else 4) for t in trees_with_carets(d, c)]
    return small + [random_tree(d, rng.randint(5, 15), rng) for _ in range(40)]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_flat_trees_match_nested_oracles(d):
    trees = _oracle_trees(d)
    for t in trees:
        assert t.is_leaf or Tree(d, t.children) == t
        assert parse_tree(tree_text(t), d) == t
        assert removable_carets(t) == _nested_removable_carets(t)
        for k in range(t.leaf_count + 2):
            if 1 <= k <= t.leaf_count:
                assert expand_at(t, k) == _nested_expand(t, k)
            expected = _nested_collapse(t, k)
            if expected is None:
                with pytest.raises(ValueError):
                    collapse_at(t, k)
            else:
                assert collapse_at(t, k) == expected
    for t in trees:
        for u in trees:
            w = _nested_union(t, u)
            assert tree_union(t, u) == w
            assert dominates(t, u) == (w == t)


def test_three_thousand_level_comb_needs_no_recursion():
    depth = 3000
    spine = right_spine(2, depth)  # the right comb
    left = leaf(2)
    for _ in range(depth):
        left = expand_at(left, 1)
    deeper = expand_at(spine, spine.leaf_count)
    assert deeper != spine and collapse_at(deeper, deeper.leaf_count - 1) == spine
    assert removable_carets(deeper) == {deeper.leaf_count - 1}
    w = tree_union(spine, left)
    assert w.leaf_count == 2 * depth and dominates(w, left)
    assert common_expansion(spine, left)[0] == w
    assert transplant(w, left, spine).leaf_count == w.leaf_count
    assert tree_text(spine) == "(." * depth + "." + ")" * depth
    assert leaf_words(left)[0] == (1,) * depth
