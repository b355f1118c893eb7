"""Finite rooted d-ary trees: the combinatorial substrate of tree-pair algebra.

A tree is stored as its leaf depths in left-to-right leaf order.  A full
d-ary tree is exactly that tuple, a complete prefix code: this is the caret
and leaf encoding of Cannon, Floyd and Parry.  Trees are immutable values
with structural equality; leaves are numbered 1..n left to right, and
vertices are addressed by words over {1,..,d} with the root at the empty
word.  The canonical text form is preorder: "." for a leaf, "(c1...cd)" for
a node, e.g. "((..).)" is the binary left comb on 3 leaves, depths (2, 2, 1).
Every operation on a tree is a loop or a splice over the depths and does
not recurse.  Only the enumerator recurses: trees_with_carets, to a depth
equal to its caret count.

Carets are found by cone alignment.  With top the deepest leaf, a leaf at
depth e covers d^(top-e) of the d^top cells at depth top, and its left end
is the sum of the widths to its left.  Leaves i..i+d-1 are the d children
of one node exactly when leaves i and i+d-1 are as deep, at e, and leaf i's
left end is a multiple of d^(top-e+1): then leaf i is the first child of
its parent, the leaves after it up to leaf i+d-1 start inside the parent's
cone, so leaf i+d-1 is a child too, and the d - 2 leaves between fill the
children between only if each is one.  Only tree_text and root_subtrees
scan the nesting itself (_closes).
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement, islice, product
from operator import sub

# deepest tree parse_tree accepts: an input bound on tree texts, which also
# sets fpf's caps on n and m
MAX_TREE_DEPTH = 400


class Tree:
    """A full d-ary tree as its leaf depths; fields are read-only by contract."""

    __slots__ = ("d", "depths", "leaf_count", "is_leaf", "_hash")

    def __new__(cls, d: int, children: tuple = ()):
        if d < 2:
            raise ValueError(f"arity must be >= 2, got {d}")
        if children and len(children) != d:
            raise ValueError(f"node must have exactly {d} children, got {len(children)}")
        for c in children:
            if c.d != d:
                raise ValueError("mixed arities in one tree")
        return _tree(d, tuple(e + 1 for c in children for e in c.depths) or (0,))

    @property
    def children(self) -> tuple:
        """The d subtrees below the root (() for a leaf), cut from the depths."""
        if self.is_leaf:
            return ()
        return tuple(_tree(self.d, kid) for kid in root_subtrees(self.d, self.depths))

    def __hash__(self):
        # computed on first use: most trees a product builds are never hashed
        h = self._hash
        if h is None:
            h = self._hash = hash((self.d, self.depths))
        return h

    def __eq__(self, other):
        if not isinstance(other, Tree):
            return NotImplemented
        return self.d == other.d and self.depths == other.depths

    def __repr__(self):
        return f"Tree({self.d}, {tree_text(self)!r})"


def _tree(d: int, depths: tuple) -> Tree:
    """Trusted constructor, and the one place a tree's fields are set:
    depths must be a complete d-ary prefix code."""
    t = object.__new__(Tree)
    t.d = d
    t.depths = depths
    t.leaf_count = n = len(depths)
    t.is_leaf = n == 1
    t._hash = None
    return t


def _closes(d: int, depths) -> list[int]:
    """Per leaf, how many nodes end at it: the ")"s after it in tree_text.

    One stack scan.  The stack holds the depths of finished subtrees that
    wait for their siblings; it never decreases upward, so d equal entries
    on top are the d children of one node, which then finishes in turn.
    """
    out: list[int] = []
    stack: list[int] = []
    for e in depths:
        stack.append(e)
        while len(stack) >= d and stack[-d] == stack[-1]:
            del stack[1 - d :]
            stack[-1] -= 1
        out.append(e - stack[-1])
    return out


@lru_cache(maxsize=4096)
def root_subtrees(d: int, depths: tuple) -> tuple[tuple[int, ...], ...]:
    """The d subtrees below the root of a tree that is not a leaf, as leaf depths."""
    kids, start = [], 0
    for i, (e, c) in enumerate(zip(depths, _closes(d, depths))):
        if e - c <= 1:  # back at the root: a child ends at leaf i
            kids.append(tuple([x - 1 for x in depths[start : i + 1]]))
            start = i + 1
    return tuple(kids)


@lru_cache(maxsize=1024)
def _widths(d: int, top: int) -> tuple[int, ...]:
    """Per depth e <= top, the cells at depth top below one vertex at depth e."""
    return tuple([d ** (top - e) for e in range(top + 1)])


def _words(d: int, depths) -> Iterator[tuple[int, ...]]:
    """Leaf address words in leaf order, which is lexicographic order."""
    word = [1] * depths[0]
    yield tuple(word)
    for e in islice(depths, 1, None):
        # the next leaf: the next sibling of the deepest vertex that has one
        while word[-1] == d:
            word.pop()
        word[-1] += 1
        word += [1] * (e - len(word))
        yield tuple(word)


def _refine(d: int, a: list, b: list) -> tuple[list[int], list[int]]:
    """Expand depth lists a and b in place to their minimal common expansion.

    Where the two first differ, the shallower leaf must split.  Returns the
    positions split on each side in the order made: leftmost first, each
    new node before its descendants.
    """
    path_a: list[int] = []
    path_b: list[int] = []
    i, n = 0, len(a)
    while i < n:
        x = a[i]
        y = b[i]
        if x == y:
            i += 1
        elif x < y:
            a[i : i + 1] = [x + 1] * d
            path_a.append(i + 1)
            n += d - 1
        else:
            b[i : i + 1] = [y + 1] * d
            path_b.append(i + 1)
    return path_a, path_b


def leaf(d: int) -> Tree:
    return Tree(d)


@lru_cache(maxsize=None)
def caret(d: int) -> Tree:
    """The d-ary caret: one node with d leaf children (shared per arity)."""
    return Tree(d, tuple(Tree(d) for _ in range(d)))


def tree_text(t: Tree) -> str:
    out: list[str] = []
    depth = 0  # nodes open before the next leaf
    for e, c in zip(t.depths, _closes(t.d, t.depths)):
        out.append("(" * (e - depth) + "." + ")" * c)
        depth = e - c
    return "".join(out)


def parse_tree(text: str, d: int) -> Tree:
    """Parse the preorder text form back into a Tree of arity d.

    Trees deeper than MAX_TREE_DEPTH are refused: the cap bounds the work
    that one input can ask for.
    """
    if d < 2:
        raise ValueError(f"arity must be >= 2, got {d}")
    open_nodes: list[int] = []  # children read so far, per open "("
    depths: list[int] = []
    done = False
    for ch in text:
        if done:
            raise ValueError(f"trailing garbage in tree text {text!r}")
        if ch == "(":
            open_nodes.append(0)
            continue
        if ch == ".":
            depths.append(len(open_nodes))
        elif ch == ")" and open_nodes:
            kids = open_nodes.pop()
            if kids != d:
                raise ValueError(f"node must have exactly {d} children, got {kids}")
        else:
            raise ValueError(f"unexpected character {ch!r} in tree text {text!r}")
        if open_nodes:
            open_nodes[-1] += 1
        else:
            done = True
    if open_nodes:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    if not done:
        raise ValueError(f"unexpected end of tree text: {text!r}")
    depth = max(depths)
    if depth > MAX_TREE_DEPTH:
        raise ValueError(f"tree depth {depth} exceeds the cap of {MAX_TREE_DEPTH}")
    return _tree(d, tuple(depths))


def expand_at(t: Tree, k: int) -> Tree:
    """Glue a d-ary caret onto leaf k (1-based); leaf count grows by d-1."""
    if not 1 <= k <= t.leaf_count:
        raise IndexError(f"leaf index {k} out of range 1..{t.leaf_count}")
    depths = t.depths
    return _tree(t.d, depths[: k - 1] + (depths[k - 1] + 1,) * t.d + depths[k:])


def removable_carets(t: Tree) -> set[int]:
    """Leaf indices k such that leaves k..k+d-1 are the d children of one node.

    By cone alignment (see the module docstring): leaves k and k+d-1 are
    as deep, at e, and leaf k's left end is a multiple of d^(top-e+1).
    """
    d, depths = t.d, t.depths
    width = _widths(d, max(depths))
    starts = accumulate(map(width.__getitem__, depths), initial=0)
    return {
        i
        for i, (start, e, last) in enumerate(zip(starts, depths, depths[d - 1 :]), 1)
        if e == last and not start % width[e - 1]
    }


def collapse_at(t: Tree, k: int) -> Tree:
    """Inverse of expand_at: delete the caret whose leaves are k..k+d-1.

    The caret is checked as in removable_carets, on one prefix sum.
    """
    d, depths = t.d, t.depths
    last = k + d - 2  # the caret's last leaf, 0-based
    width = _widths(d, max(depths))
    if not (
        1 <= k
        and last < len(depths)
        and depths[k - 1] == depths[last]
        and not sum(map(width.__getitem__, depths[: k - 1])) % width[depths[last] - 1]
    ):
        raise ValueError(f"no removable caret at leaf {k}")
    return _tree(d, depths[: k - 1] + (depths[last] - 1,) + depths[last + 1 :])


def leaf_words(t: Tree) -> tuple[tuple[int, ...], ...]:
    """Root-to-leaf address words in left-to-right leaf order."""
    return tuple(_words(t.d, t.depths))


def leaf_word(t: Tree, k: int) -> tuple[int, ...]:
    if not 1 <= k <= t.leaf_count:
        raise IndexError(f"leaf index {k} out of range 1..{t.leaf_count}")
    return next(islice(_words(t.d, t.depths), k - 1, None))


def is_word(word, d: int) -> bool:
    """True when every letter is an int in 1..d (no bool, no float)."""
    return all(type(a) is int and 1 <= a <= d for a in word)


def leaf_index(t: Tree, word: tuple[int, ...]) -> int:
    """Inverse of leaf_word; raises if word is not a leaf address of t."""
    v = tuple(word)
    if is_word(v, t.d):
        for k, w in enumerate(_words(t.d, t.depths), start=1):
            if w[: len(v)] == v:
                if len(w) == len(v):
                    return k
                raise ValueError(f"{word} addresses an internal vertex, not a leaf")
            if v[: len(w)] == w:
                break  # v lies below the leaf w
    raise ValueError(f"{word} is not a leaf address")


def graft(t: Tree, word: tuple[int, ...], sub: Tree) -> Tree:
    """Glue `sub` onto the leaf addressed by `word`."""
    k = leaf_index(t, word)
    if sub.d != t.d:
        raise ValueError("mixed arities in one tree")
    depths, e = t.depths, t.depths[k - 1]
    return _tree(t.d, depths[: k - 1] + tuple(e + x for x in sub.depths) + depths[k:])


def tree_union(t: Tree, u: Tree) -> Tree:
    """Leafwise union of shapes: the minimal common expansion."""
    if t.d != u.d:
        raise ValueError("arity mismatch")
    depths = list(t.depths)
    grown, _ = _refine(t.d, depths, list(u.depths))
    return _tree(t.d, tuple(depths)) if grown else t


def expansion_path(t: Tree, target: Tree) -> list[int]:
    """Leaf indices whose successive expansion carries t onto target.

    The carets are added leftmost first: each node of target that is
    internal in target but a leaf of t, taken in preorder, contributes
    (target leaves to its left) + 1.
    """
    if t.d != target.d:
        raise ValueError("arity mismatch")
    path, missing = _refine(t.d, list(t.depths), list(target.depths))
    if missing:
        raise ValueError("target does not dominate the tree")
    return path


def common_expansion(t: Tree, u: Tree) -> tuple[Tree, list[int], list[int]]:
    """Minimal common expansion W with replay paths for both inputs."""
    w = tree_union(t, u)
    return w, expansion_path(t, w), expansion_path(u, w)


# A forest below a tree a lists, per leaf of a, the leaf depths of the tree
# hanging there, counted from that leaf ((0,) where nothing hangs).  Its
# leaves are numbered 1, 2, ... across its trees, as in the grafted tree.


def graft_forest(stem: tuple, forest: list) -> tuple[int, ...]:
    """Leaf depths of the tree with forest[i] glued below leaf i+1 of stem (depths)."""
    # from a list, not a generator: tuple(generator) resizes its result, which
    # then goes back to the free list of another size and piles up there
    return tuple([e + x for e, tree in zip(stem, forest) for x in tree])


def trivial_leaf(forest: list, i: int) -> int:
    """The leaf number of forest[i] when nothing hangs there, else 0."""
    return sum(map(len, forest[:i])) + 1 if len(forest[i]) == 1 else 0


def glue_caret(d: int, forest: list, p: int) -> None:
    """Glue a caret onto leaf p of the forest, in place."""
    for m, tree in enumerate(forest):
        if p <= len(tree):
            forest[m] = tree[: p - 1] + (tree[p - 1] + 1,) * d + tree[p:]
            return
        p -= len(tree)


@lru_cache(maxsize=1024)
def _tree_carets(d: int, depths: tuple) -> frozenset[int]:
    return frozenset(removable_carets(_tree(d, depths)))


def forest_sites(d: int, forest: list) -> dict[int, frozenset[int]]:
    """Where the forest grafted onto some stem b can have removable carets.

    Maps each such leaf number to the carets of b (by first leaf) it needs:
    none for a caret inside a tree of the forest, or the caret of b above d
    trivial trees in a row.
    """
    sites: dict[int, frozenset[int]] = {}
    offset = run = 0  # run: trivial trees in a row
    for m, tree in enumerate(forest, 1):
        if len(tree) == 1:
            run += 1
            if run >= d:
                sites[offset + 2 - d] = frozenset((m + 1 - d,))
        else:
            run = 0
            for r in _tree_carets(d, tree):
                sites[offset + r] = frozenset()
        offset += len(tree)
    return sites


def agree_away_from(t: Tree, u: Tree) -> tuple[tuple[int, ...], Tree] | None:
    """Witness (v, R): both trees arise from R by gluing a tree at R's leaf v.

    Only proper vertices (|v| >= 1) count; leaf addresses of t are tried
    first, in leaf order, then internal vertices in preorder.  Returns None
    when no witness exists.
    """
    if t.d != u.d:
        raise ValueError("arity mismatch")
    if t.leaf_count != u.leaf_count:
        raise ValueError("leaf counts differ")
    runs_t, runs_u = _runs(t), _runs(u)
    shared = [v for v in runs_t if v and v in runs_u]
    shared.sort(key=lambda v: runs_t[v][1] - runs_t[v][0] > 1)  # leaves first
    for v in shared:
        # R is either tree with the leaf run below v cut back to one leaf
        (lo, hi), (lo_u, hi_u) = runs_t[v], runs_u[v]
        r = t.depths[:lo] + (len(v),) + t.depths[hi:]
        if r == u.depths[:lo_u] + (len(v),) + u.depths[hi_u:]:
            return v, _tree(t.d, r)
    return None


def _runs(t: Tree) -> dict[tuple[int, ...], list[int]]:
    """Every vertex word of t, in preorder, with its leaf run [lo, hi) (0-based)."""
    runs: dict[tuple[int, ...], list[int]] = {}
    for i, w in enumerate(_words(t.d, t.depths)):
        for j in range(len(w) + 1):
            runs.setdefault(w[:j], [i, i])[1] = i + 1
    return runs


def right_spine(d: int, carets: int) -> Tree:
    """Spine of `carets` carets, each glued to the last leaf of the previous."""
    if carets < 0:
        raise ValueError("caret count must be >= 0")
    t = Tree(d)
    for _ in range(carets):
        t = expand_at(t, t.leaf_count)
    return t


@lru_cache(maxsize=None)
def trees_with_carets(d: int, carets: int) -> tuple[Tree, ...]:
    """All trees of arity d with exactly the given number of carets."""
    if carets == 0:
        return (Tree(d),)
    out: list[Tree] = []
    for split in _compositions(carets - 1, d):
        for kids in product(*(trees_with_carets(d, c) for c in split)):
            out.append(Tree(d, kids))
    return tuple(out)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """The tuples of `parts` naturals summing to total, in lexicographic order.

    Stars and bars: parts - 1 cuts, non-decreasing in 0..total, split 0..total
    into the parts, and cuts in lexicographic order give parts in that order.
    """
    for cuts in combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(sub, (*cuts, total), (0, *cuts)))


def random_tree(d: int, carets: int, rng) -> Tree:
    """Random tree grown by `carets` expansions at uniformly random leaves."""
    t = Tree(d)
    for _ in range(carets):
        t = expand_at(t, rng.randint(1, t.leaf_count))
    return t
