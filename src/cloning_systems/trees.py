"""Finite rooted d-ary trees: the combinatorial substrate of tree-pair algebra.

A tree is either a single leaf or a node carrying exactly d subtrees.  Trees
are immutable values with structural equality; leaves are numbered 1..n left
to right, and vertices are addressed by words over {1,..,d} with the root at
the empty word.  The canonical text form is preorder: "." for a leaf,
"(c1...cd)" for a node, e.g. "((..).)" is the binary left comb on 3 leaves.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterator, Optional

# deepest tree parse_tree accepts: tree walks recurse per level (tree_union
# two frames a level), which must stay inside Python's default limit of 1000
MAX_TREE_DEPTH = 400


class Tree:
    """A leaf or a node of d subtrees; fields are read-only by contract."""

    __slots__ = ("d", "children", "is_leaf", "leaf_count", "_hash")

    def __init__(self, d: int, children: tuple = ()):
        if d < 2:
            raise ValueError(f"arity must be >= 2, got {d}")
        if children and len(children) != d:
            raise ValueError(f"node must have exactly {d} children, got {len(children)}")
        for c in children:
            if c.d != d:
                raise ValueError("mixed arities in one tree")
        self.d = d
        self.children = tuple(children)
        self.is_leaf = not children
        self.leaf_count = 1 if not children else sum(c.leaf_count for c in children)
        self._hash = hash((d, self.children))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, Tree):
            return NotImplemented
        # an explicit stack: comparing children tuples recurses once per level,
        # which overflows on equal trees well short of MAX_TREE_DEPTH
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if a.d != b.d or a.leaf_count != b.leaf_count or a._hash != b._hash:
                return False
            pairs.extend(zip(a.children, b.children))
        return True

    def __repr__(self):
        return f"Tree({self.d}, {tree_text(self)!r})"


def leaf(d: int) -> Tree:
    return Tree(d)


@lru_cache(maxsize=None)
def caret(d: int) -> Tree:
    """The d-ary caret: one node with d leaf children (shared per arity)."""
    return Tree(d, tuple(Tree(d) for _ in range(d)))


def tree_text(t: Tree) -> str:
    out: list[str] = []
    todo: list = [t]  # trees still to write, and the ")" that closes each node
    while todo:
        node = todo.pop()
        if isinstance(node, str):
            out.append(node)
        elif node.is_leaf:
            out.append(".")
        else:
            out.append("(")
            todo.append(")")
            todo.extend(reversed(node.children))
    return "".join(out)


def parse_tree(text: str, d: int) -> Tree:
    """Parse the preorder text form back into a Tree of arity d.

    Trees deeper than MAX_TREE_DEPTH are refused: most tree operations
    recurse once per level.
    """
    open_nodes: list[list[Tree]] = []  # children read so far, per open "("
    depth = 0
    t = None
    for ch in text:
        if t is not None:
            raise ValueError(f"trailing garbage in tree text {text!r}")
        if ch == "(":
            open_nodes.append([])
            depth = max(depth, len(open_nodes))
            continue
        if ch == ".":
            node = Tree(d)
        elif ch == ")" and open_nodes:
            node = Tree(d, tuple(open_nodes.pop()))
        else:
            raise ValueError(f"unexpected character {ch!r} in tree text {text!r}")
        if open_nodes:
            open_nodes[-1].append(node)
        else:
            t = node
    if open_nodes:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    if t is None:
        raise ValueError(f"unexpected end of tree text: {text!r}")
    if depth > MAX_TREE_DEPTH:
        raise ValueError(f"tree depth {depth} exceeds the cap of {MAX_TREE_DEPTH}")
    return t


def expand_at(t: Tree, k: int) -> Tree:
    """Glue a d-ary caret onto leaf k (1-based); leaf count grows by d-1."""
    if not 1 <= k <= t.leaf_count:
        raise IndexError(f"leaf index {k} out of range 1..{t.leaf_count}")
    return _expand(t, k)


def _expand(t: Tree, k: int) -> Tree:
    if t.is_leaf:
        return caret(t.d)
    kids = []
    acc = 0
    for c in t.children:
        if acc < k <= acc + c.leaf_count:
            kids.append(_expand(c, k - acc))
        else:
            kids.append(c)
        acc += c.leaf_count
    return Tree(t.d, tuple(kids))


def removable_carets(t: Tree) -> set[int]:
    """Leaf indices k such that leaves k..k+d-1 are the d children of one node."""
    out: set[int] = set()

    def walk(node: Tree, offset: int) -> None:
        if node.is_leaf:
            return
        if all(c.is_leaf for c in node.children):
            out.add(offset + 1)
            return
        acc = offset
        for c in node.children:
            walk(c, acc)
            acc += c.leaf_count

    walk(t, 0)
    return out


def collapse_at(t: Tree, k: int) -> Tree:
    """Inverse of expand_at: delete the caret whose leaves are k..k+d-1."""
    word = leaf_word(t, k) if 1 <= k <= t.leaf_count else ()
    if not word or word[-1] != 1 or not all(
        c.is_leaf for c in subtree_at(t, word[:-1]).children
    ):
        raise ValueError(f"no removable caret at leaf {k}")
    return replace_at(t, word[:-1], Tree(t.d))


def leaf_words(t: Tree) -> tuple[tuple[int, ...], ...]:
    """Root-to-leaf address words in left-to-right leaf order."""
    out: list[tuple[int, ...]] = []

    def walk(node: Tree, prefix: tuple[int, ...]) -> None:
        if node.is_leaf:
            out.append(prefix)
            return
        for i, c in enumerate(node.children, start=1):
            walk(c, prefix + (i,))

    walk(t, ())
    return tuple(out)


def leaf_word(t: Tree, k: int) -> tuple[int, ...]:
    if not 1 <= k <= t.leaf_count:
        raise IndexError(f"leaf index {k} out of range 1..{t.leaf_count}")
    word: list[int] = []
    node = t
    kk = k
    while not node.is_leaf:
        acc = 0
        for i, c in enumerate(node.children, start=1):
            if acc < kk <= acc + c.leaf_count:
                word.append(i)
                kk -= acc
                node = c
                break
            acc += c.leaf_count
    return tuple(word)


def leaf_index(t: Tree, word: tuple[int, ...]) -> int:
    """Inverse of leaf_word; raises if word is not a leaf address of t."""
    node = t
    idx = 1
    for step in word:
        if node.is_leaf or not 1 <= step <= t.d:
            raise ValueError(f"{word} is not a leaf address")
        for c in node.children[: step - 1]:
            idx += c.leaf_count
        node = node.children[step - 1]
    if not node.is_leaf:
        raise ValueError(f"{word} addresses an internal vertex, not a leaf")
    return idx


def is_vertex(t: Tree, word: tuple[int, ...]) -> bool:
    node = t
    for step in word:
        if node.is_leaf or not 1 <= step <= t.d:
            return False
        node = node.children[step - 1]
    return True


def subtree_at(t: Tree, word: tuple[int, ...]) -> Tree:
    node = t
    for step in word:
        if node.is_leaf:
            raise ValueError(f"{word} is not a vertex")
        node = node.children[step - 1]
    return node


def replace_at(t: Tree, word: tuple[int, ...], sub: Tree) -> Tree:
    """Replace the whole subtree rooted at vertex `word` with `sub`."""
    if not word:
        return sub
    if t.is_leaf:
        raise ValueError(f"{word} is not a vertex")
    step = word[0]
    kids = list(t.children)
    kids[step - 1] = replace_at(kids[step - 1], word[1:], sub)
    return Tree(t.d, tuple(kids))


def graft(t: Tree, word: tuple[int, ...], sub: Tree) -> Tree:
    """Glue `sub` onto the leaf addressed by `word`."""
    if subtree_at(t, word).is_leaf:
        return replace_at(t, word, sub)
    raise ValueError(f"{word} is not a leaf of the tree")


def vertices(t: Tree) -> tuple[tuple[int, ...], ...]:
    """All vertex words (internal and leaves) in preorder."""
    out: list[tuple[int, ...]] = []

    def walk(node: Tree, prefix: tuple[int, ...]) -> None:
        out.append(prefix)
        for i, c in enumerate(node.children, start=1):
            walk(c, prefix + (i,))

    walk(t, ())
    return tuple(out)


def tree_union(t: Tree, u: Tree) -> Tree:
    """Leafwise union of shapes: the minimal common expansion."""
    if t.d != u.d:
        raise ValueError("arity mismatch")
    if t.is_leaf:
        return u
    if u.is_leaf:
        return t
    return Tree(t.d, tuple(tree_union(a, b) for a, b in zip(t.children, u.children)))


def dominates(big: Tree, small: Tree) -> bool:
    """True if big can be obtained from small by expansions."""
    if small.is_leaf:
        return True
    if big.is_leaf:
        return False
    return all(dominates(a, b) for a, b in zip(big.children, small.children))


def expansion_path(t: Tree, target: Tree) -> list[int]:
    """Leaf indices whose successive expansion carries t onto target.

    The carets are added leftmost first: each node of target that is
    internal in target but a leaf of t, taken in preorder, contributes
    (target leaves to its left) + 1.
    """
    if t.d != target.d:
        raise ValueError("arity mismatch")
    path: list[int] = []

    def walk(node: Tree, goal: Tree, offset: int) -> None:
        if goal.is_leaf:
            if not node.is_leaf:
                raise ValueError("target does not dominate the tree")
            return
        if node.is_leaf:
            path.append(offset + 1)
        # once expanded, a leaf of t has d leaf children; the leaf stands in
        for a, b in zip(node.children or (node,) * node.d, goal.children):
            walk(a, b, offset)
            offset += b.leaf_count

    walk(t, target, 0)
    return path


def common_expansion(t: Tree, u: Tree) -> tuple[Tree, list[int], list[int]]:
    """Minimal common expansion W with replay paths for both inputs."""
    if t.d != u.d:
        raise ValueError("arity mismatch")
    w = tree_union(t, u)
    return w, expansion_path(t, w), expansion_path(u, w)


def transplant(s: Tree, a: Tree, b: Tree) -> Tree:
    """Graft onto b's leaves, in leaf order, the forest that s hangs below a's.

    s must dominate a, so s is a with a tree F_i glued at each leaf i; the
    result is b with F_i glued at its leaf i.  a and b need the same leaf
    count.  Replaying expansion_path(a, s) on b gives the same tree.
    """
    if not s.d == a.d == b.d:
        raise ValueError("arity mismatch")
    if a.leaf_count != b.leaf_count:
        raise ValueError("leaf counts differ")
    forest: list[Tree] = []
    todo = [(s, a)]
    while todo:
        node, stem = todo.pop()
        if stem.is_leaf:
            forest.append(node)
        elif node.is_leaf:
            raise ValueError("the tree does not dominate the stem")
        else:
            todo += zip(node.children[::-1], stem.children[::-1])
    grafts = iter(forest)

    def glue(node: Tree) -> Tree:
        if node.is_leaf:
            return next(grafts)
        return Tree(node.d, tuple(map(glue, node.children)))

    return glue(b)


def agree_away_from(
    t: Tree, u: Tree
) -> Optional[tuple[tuple[int, ...], Tree]]:
    """Witness (v, R): both trees arise from R by gluing a tree at R's leaf v.

    Only proper vertices (|v| >= 1) count; leaf addresses of t are tried
    first, in leaf order, then internal vertices in preorder.  Returns None
    when no witness exists.
    """
    if t.d != u.d:
        raise ValueError("arity mismatch")
    if t.leaf_count != u.leaf_count:
        raise ValueError("leaf counts differ")
    stub = Tree(t.d)
    candidates = [w for w in leaf_words(t) if is_vertex(u, w)]
    candidates += [
        w for w in vertices(t) if w and not subtree_at(t, w).is_leaf and is_vertex(u, w)
    ]
    for v in candidates:
        r1 = replace_at(t, v, stub)
        if r1 == replace_at(u, v, stub):
            return v, r1
    return None


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
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def random_tree(d: int, carets: int, rng) -> Tree:
    """Random tree grown by `carets` expansions at uniformly random leaves."""
    t = Tree(d)
    for _ in range(carets):
        t = expand_at(t, rng.randint(1, t.leaf_count))
    return t
