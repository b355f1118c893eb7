"""Prefix-exchange homeomorphisms of the d-ary Cantor space.

This is an independent model of the tree-pair groups: points are infinite
words over {1..d} (kept eventually periodic so arithmetic stays exact),
tree automorphisms are finite-state automata acting by the wreath recursion
g(i w) = rho(g)(i) . section_i(g)(w), and a homeomorphism is a finite table
of cone-to-cone rules whose domain and range words each form a complete
prefix code.  Tables with trivial states realize the Higman-Thompson group
V_d; adding automaton states gives the groups built over a self-similar
group.  The thompson module's algebra is cross-checked against composition
of these tables.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable
from operator import itemgetter

from .groups import UnsupportedError, is_perm, perm_identity
from .thompson import Element
from .trees import is_word, leaf_words

Word = tuple[int, ...]


# ---------------------------------------------------------------------------
# eventually periodic points of the Cantor space
# ---------------------------------------------------------------------------

class CantorWord:
    """An eventually periodic infinite word: preperiod then repeated period.

    Canonical form: the period is primitive (not a power of a shorter word)
    and the preperiod is as short as possible, letters being absorbed into a
    rotated period whenever they match its tail.  Text form "pre(period)"
    with single-digit letters, e.g. "1(2)" for 1222...  Fields are read-only
    by contract.
    """

    __slots__ = ("pre", "per", "_hash")

    def __init__(self, pre: Iterable[int] = (), per: Iterable[int] = (1,)):
        pre = tuple(pre)
        per = tuple(per)
        if not per:
            raise ValueError("period must be nonempty")
        for letter in pre + per:
            if type(letter) is not int or letter < 1:
                raise ValueError(f"bad letter {letter!r}")
        for width in range(1, len(per)):
            if len(per) % width == 0 and per == per[:width] * (len(per) // width):
                per = per[:width]
                break
        while pre and pre[-1] == per[-1]:
            per = (per[-1],) + per[:-1]
            pre = pre[:-1]
        self.pre = pre
        self.per = per
        self._hash = hash((pre, per))

    def letter(self, i: int) -> int:
        """0-based letter of the infinite word."""
        if i < len(self.pre):
            return self.pre[i]
        return self.per[(i - len(self.pre)) % len(self.per)]

    def prefix(self, k: int) -> Word:
        return tuple(self.letter(i) for i in range(k))

    def drop(self, k: int) -> "CantorWord":
        """The shift: remove the first k letters."""
        if k <= len(self.pre):
            return CantorWord(self.pre[k:], self.per)
        j = (k - len(self.pre)) % len(self.per)
        return CantorWord((), self.per[j:] + self.per[:j])

    def __eq__(self, other):
        if not isinstance(other, CantorWord):
            return NotImplemented
        return self.pre == other.pre and self.per == other.per

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"CantorWord({cantor_word_text(self)!r})"


def cantor_word_text(w: CantorWord) -> str:
    return "".join(str(x) for x in w.pre) + "(" + "".join(str(x) for x in w.per) + ")"


def parse_cantor_word(s: str) -> CantorWord:
    body = s.strip()
    if "(" not in body or not body.endswith(")"):
        raise ValueError(f"bad point text {s!r}; expected pre(period)")
    head, _, tail = body.partition("(")
    per = tail[:-1]
    if not per:
        raise ValueError(f"empty period in {s!r}")
    try:
        return CantorWord(tuple(int(c) for c in head), tuple(int(c) for c in per))
    except ValueError:
        raise ValueError(f"bad letter in point text {s!r}") from None


def tail_equivalent(a: CantorWord, b: CantorWord) -> bool:
    """True when the two infinite words share a common suffix.

    For eventually periodic words this holds exactly when the primitive
    periods are rotations of each other.
    """
    if len(a.per) != len(b.per):
        return False
    doubled = a.per + a.per
    return any(
        doubled[i : i + len(b.per)] == b.per for i in range(len(a.per))
    )


# ---------------------------------------------------------------------------
# self-similar automaton elements
# ---------------------------------------------------------------------------

class Automaton:
    """A finite-state transducer over {1..d}.

    Each state carries an output permutation of the alphabet and one
    successor state per letter.  Transitions must stay inside the state set,
    so the generated group is closed under taking sections by construction.
    `trivial` holds the states that act as the identity (identity output,
    every transition a loop).  `involutions` holds states q with q.q the
    identity by the wreath recursion: the greatest set of states whose
    output is an involution and whose section at a equals the one at
    rho(a) and lies in the set again, since the section of q.q at a is
    delta(rho(a)) . delta(a).  It contains `trivial`.  Fields are read-only
    by contract.
    """

    __slots__ = ("d", "states", "trivial", "involutions", "_hash")

    def __init__(self, d: int, states: dict):
        if d < 2:
            raise ValueError("arity must be >= 2")
        frozen = {}
        for name, (rho, delta) in states.items():
            rho = tuple(rho)
            delta = tuple(delta)
            if len(rho) != d or not is_perm(rho):
                raise ValueError(f"state {name!r}: output is not a permutation")
            if len(delta) != d or any(t not in states for t in delta):
                raise ValueError(f"state {name!r}: transitions leave the state set")
            frozen[name] = (rho, delta)
        self.d = d
        self.states = frozen
        self.trivial = frozenset(
            n for n, s in frozen.items() if s == (perm_identity(d), (n,) * d)
        )
        kept = {
            n for n, (rho, delta) in frozen.items()
            if all(rho[r - 1] == a and delta[r - 1] == delta[a - 1]
                   for a, r in enumerate(rho, 1))
        }
        while dropped := {n for n in kept if not kept.issuperset(frozen[n][1])}:
            kept -= dropped
        self.involutions = frozenset(kept)
        self._hash = hash((d, tuple(sorted((k, v) for k, v in frozen.items()))))

    def __eq__(self, other):
        if not isinstance(other, Automaton):
            return NotImplemented
        return self.d == other.d and self.states == other.states

    def __hash__(self):
        return self._hash


# a word entry is (automaton, state name, sign); sign -1 means the inverse
Entry = tuple[Automaton, str, int]

# most distinct section words AutomatonElement.is_identity explores
MAX_SECTION_WORDS = 100000


class AutomatonElement:
    """A product of automaton states (and their inverses), leftmost applied last.

    The word representation makes composition and inversion free; sections
    are computed entrywise by the wreath recursion, and identity testing
    explores the finitely many reachable section words exactly.  The empty
    word is the identity: its sections, products and inverse are the
    elements at hand, so it costs no allocation and no exploration.  Fields
    are read-only by contract.

    Words are kept simplified: no trivial state, and no adjacent pair of
    one state of equal machines that cancels, either as q.q^-1 or as q.q
    for q in the machine's involutions (see _simplified).

    AutomatonElement(...) checks that every entry has arity d, names a
    state of its machine and has sign 1 or -1, once, where a word enters.
    Sections, products and inverses of checked words only follow
    transitions, concatenate or reverse, so step, *, inv and the tables'
    rules build theirs with _automaton_element, which only simplifies.  A step that leaves the word
    as it is returns the element itself, as every reflection step does.
    """

    __slots__ = ("d", "word")

    def __init__(self, d: int, word: Iterable[Entry] = ()):
        word = [tuple(entry) for entry in word]
        for machine, name, sign in word:
            if machine.d != d:
                raise ValueError("arity mismatch in automaton word")
            if name not in machine.states:
                raise KeyError(name)
            if type(sign) is not int or sign not in (1, -1):
                raise ValueError(f"bad sign {sign!r}; expected 1 or -1")
        self.d = d
        self.word = _simplified(word)

    def step(self, letter: int) -> tuple[int, "AutomatonElement"]:
        """One level of the wreath recursion: output letter and section."""
        # is_word's test, inline: step runs once per letter of every section
        if not (type(letter) is int and 1 <= letter <= self.d):
            raise ValueError(f"letter {letter!r} out of range 1..{self.d}")
        word = self.word
        if len(word) == 1:
            machine, name, sign = word[0]
            rho, delta = machine.states[name]
            if sign > 0:
                out, nxt = rho[letter - 1], delta[letter - 1]
            else:
                out = rho.index(letter) + 1
                nxt = delta[out - 1]
            if nxt == name:
                return out, self
            return out, _automaton_element(self.d, ((machine, nxt, sign),))
        if not word:
            return letter, self
        out = letter
        new_word: list[Entry] = []
        for machine, name, sign in reversed(word):
            rho, delta = machine.states[name]
            if sign > 0:
                out, nxt = rho[out - 1], delta[out - 1]
            else:
                out = rho.index(out) + 1
                nxt = delta[out - 1]
            new_word.append((machine, nxt, sign))
        new_word.reverse()
        if tuple(new_word) == word:
            return out, self
        return out, _automaton_element(self.d, new_word)

    def apply_finite(self, word: Word) -> tuple[Word, "AutomatonElement"]:
        """Image of a finite word together with the section below it."""
        if not self.word and is_word(word, self.d):
            return tuple(word), self
        out: list[int] = []  # step raises on the first bad letter
        cur = self
        for letter in word:
            o, cur = cur.step(letter)
            out.append(o)
        return tuple(out), cur

    def root_perm(self) -> tuple[int, ...]:
        return tuple(self.step(i)[0] for i in range(1, self.d + 1))

    def __mul__(self, other: "AutomatonElement") -> "AutomatonElement":
        """Product: other acts first."""
        if self.d != other.d:
            raise ValueError("arity mismatch")
        if not self.word:
            return other
        if not other.word:
            return self
        return _automaton_element(self.d, self.word + other.word)

    def inv(self) -> "AutomatonElement":
        if not self.word:
            return self
        return _automaton_element(
            self.d, [(m, n, -s) for m, n, s in reversed(self.word)]
        )

    def __eq__(self, other):
        """Syntactic equality of words; use equals() for semantic equality."""
        if not isinstance(other, AutomatonElement):
            return NotImplemented
        return self.d == other.d and self.word == other.word

    def __hash__(self):
        return hash((self.d, self.word))

    def is_identity(self) -> bool:
        """Exact identity test by exploring all reachable sections."""
        if not self.word:
            return True
        seen = {self.word}
        frontier = [self]
        while frontier:
            cur = frontier.pop()
            for i in range(1, cur.d + 1):
                out, sec = cur.step(i)
                if out != i:
                    return False
                if sec.word not in seen:
                    seen.add(sec.word)
                    if len(seen) > MAX_SECTION_WORDS:
                        raise UnsupportedError(
                            "identity test exceeded the section budget"
                        )
                    frontier.append(sec)
        return True

    def equals(self, other: "AutomatonElement") -> bool:
        """Semantic equality: the same action on every infinite word.

        Syntactically equal words are equal at once, without exploring, so
        such a pair never hits the MAX_SECTION_WORDS budget; any
        other pair tests self * other^-1 with is_identity.
        """
        if self.d == other.d and self.word == other.word:
            return True
        return (self * other.inv()).is_identity()

    def __repr__(self):
        return f"AutomatonElement({automaton_element_text(self)!r})"


def _simplified(word: Iterable[Entry]) -> tuple[Entry, ...]:
    """The word without trivial states and adjacent cancelling pairs.

    A pair cancels when both entries name one state of equal machines and
    either their signs are opposite or the state is in the machine's
    involutions, so h.h, h^-1.h^-1 and h.h^-1 all vanish.  Entries keep
    their signs: an involution's h^-1 is not rewritten to h.
    """
    out: list[Entry] = []
    for entry in word:
        machine, name, sign = entry
        if name in machine.trivial:
            continue
        if out:
            pm, pn, ps = out[-1]
            if (
                pn == name
                and (ps == -sign or name in machine.involutions)
                and (pm is machine or pm == machine)
            ):
                out.pop()
                continue
        out.append(entry)
    return tuple(out)


def _automaton_element(d: int, word: Iterable[Entry]) -> AutomatonElement:
    """Trusted constructor: every entry must pass the checks of
    AutomatonElement(...); the word is only simplified."""
    e = object.__new__(AutomatonElement)
    e.d, e.word = d, _simplified(word)
    return e


def identity_element(d: int) -> AutomatonElement:
    return _automaton_element(d, ())


def automaton_element_text(e: AutomatonElement) -> str:
    if not e.word:
        return "id"
    return " ".join(
        name if sign > 0 else f"{name}^-1" for _, name, sign in e.word
    )


def full_reflection(d: int) -> AutomatonElement:
    """The order-reversing automorphism: flips letters at every level."""
    machine = Automaton(
        d, {"h0": (tuple(range(d, 0, -1)), ("h0",) * d)}
    )
    return AutomatonElement(d, ((machine, "h0", 1),))


# ---------------------------------------------------------------------------
# prefix-exchange maps
# ---------------------------------------------------------------------------

Rule = tuple[Word, Word, AutomatonElement]


def _is_complete_prefix_code(words: Iterable[Word], d: int) -> bool:
    """True when the words over {1..d} are prefix-free and their cones cover.

    In sorted order a word that is a prefix of another is a prefix of its
    successor; a prefix-free code is complete exactly when its Kraft sum
    (sum of d^-|w|) is 1.
    """
    words = list(words)
    if not all(is_word(w, d) for w in words):  # before sorting: 1 < "a" raises
        return False
    words.sort()
    if any(b[: len(a)] == a for a, b in zip(words, words[1:])):
        return False
    depth = max(map(len, words), default=0)
    return sum(d ** (depth - len(w)) for w in words) == d**depth


class PrefixMap:
    """A homeomorphism given by finitely many cone-to-cone rules.

    Rule (u, v, s) sends the point u.x to v.s(x).  The domain words and the
    range words each form a complete prefix code, so every point matches
    exactly one rule on each side.  Fields are read-only by contract.

    PrefixMap(...) checks both codes and the arity of every state, then
    sorts the rules by domain word, so a table built from outside values is
    checked once, where it enters.  Tables built from checked ones stay
    valid: compose refines the other table's domain code and its range
    words are the images of a homeomorphism, invert swaps the two codes,
    normalize replaces d sibling rules by their parent on both sides, and
    from_tree_pair takes the leaf words of two trees.  So compose, invert,
    normalize, identity and from_tree_pair build theirs with _prefix_map,
    unchecked.  compose, invert and normalize merge sibling rules in one
    stack pass over the rules sorted by domain word (_normalize_rules),
    whose fixed point does not depend on the input order.
    """

    __slots__ = ("d", "rules")

    def __init__(self, d: int, rules: Iterable[Rule]):
        rules = tuple(rules)
        if not rules:
            raise ValueError("a prefix map needs at least one rule")
        doms = [r[0] for r in rules]
        rngs = [r[1] for r in rules]
        if not _is_complete_prefix_code(doms, d):
            raise ValueError("domain words do not form a complete prefix code")
        if not _is_complete_prefix_code(rngs, d):
            raise ValueError("range words do not form a complete prefix code")
        for _, _, s in rules:
            if s.d != d:
                raise ValueError("state arity mismatch")
        self.d = d
        self.rules = tuple(sorted(rules, key=itemgetter(0)))

    @staticmethod
    def identity(d: int) -> "PrefixMap":
        return _prefix_map(d, (((), (), identity_element(d)),))

    def rule_at(self, word: Word) -> Rule | None:
        """The rule whose domain word is a prefix of word, or None.

        The domain words are sorted and prefix-free, so only the last one
        that is <= word can be a prefix of it.
        """
        i = bisect_right(self.rules, word, key=itemgetter(0))
        if i == 0:
            return None
        rule = self.rules[i - 1]
        return rule if word[: len(rule[0])] == rule[0] else None

    def apply(self, point: CantorWord) -> CantorWord:
        """Image of an eventually periodic point; exact via cycle detection."""
        letters = point.pre + point.per
        if not is_word(letters, self.d):  # a CantorWord's letters are >= 1
            raise ValueError(f"letter {max(letters)} out of range 1..{self.d}")
        depth = max(len(u) for u, _, _ in self.rules)
        dom, rng, state = self.rule_at(point.prefix(depth))
        tail = point.drop(len(dom))
        out_pre, cur = state.apply_finite(tail.pre)
        seen: dict[tuple, int] = {}
        outs: list[int] = []
        idx = 0
        while True:
            key = (cur.word, idx % len(tail.per))
            if key in seen:
                start = seen[key]
                break
            seen[key] = idx
            o, cur = cur.step(tail.per[idx % len(tail.per)])
            outs.append(o)
            idx += 1
        pre = rng + out_pre + tuple(outs[:start])
        return CantorWord(pre, tuple(outs[start:]))

    def compose(self, other: "PrefixMap") -> "PrefixMap":
        """The product self . other (other acts first)."""
        if self.d != other.d:
            raise ValueError("arity mismatch")
        d, mine = self.d, self.rules
        doms = [r[0] for r in mine]
        out: list[Rule] = []
        stack = list(other.rules)
        while stack:
            u, v, s = stack.pop()
            # rule_at's bisect; i = -1 takes the largest word, > v, so no prefix
            i = bisect_right(doms, v) - 1
            w_plus, w_minus, t = mine[i]
            if v[: len(w_plus)] != w_plus:
                for a in range(1, d + 1):
                    o, sec = s.step(a)
                    stack.append((u + (a,), v + (o,), sec))
                continue
            rest = v[len(w_plus) :]
            if t.word:
                if rest:
                    rest, t = t.apply_finite(rest)
                s = t * s
            out.append((u, w_minus + rest, s))
        return _prefix_map(d, _normalize_rules(out, d))

    def __mul__(self, other: "PrefixMap") -> "PrefixMap":
        return self.compose(other)

    def invert(self) -> "PrefixMap":
        return _prefix_map(
            self.d, _normalize_rules([(v, u, s.inv()) for u, v, s in self.rules], self.d)
        )

    def normalize(self) -> "PrefixMap":
        """Canonical table: merge sibling rules that expand a single rule."""
        return _prefix_map(self.d, _normalize_rules(self.rules, self.d))

    def equals(self, other: "PrefixMap") -> bool:
        """Semantic equality: same action on every point.

        Walks the leaves of the union of the two domain code trees in
        lexicographic order and compares both rules' images and sections.
        Both rule tuples are sorted complete prefix codes, so one merge pass
        finds each leaf: it is the longer of the two current domain words,
        whose side then advances, and the other side advances too once its
        next word leaves the current word's cone.
        """
        if self.d != other.d:
            return False
        mine, theirs = self.rules, other.rules
        i = j = 0
        while i < len(mine):  # both codes cover the space, so both end here
            (u1, v1, s1), (u2, v2, s2) = mine[i], theirs[j]
            deeper = len(u1) >= len(u2)
            w = u1 if deeper else u2
            if s1.word or s2.word:
                image1, section1 = s1.apply_finite(w[len(u1) :])
                image2, section2 = s2.apply_finite(w[len(u2) :])
                if v1 + image1 != v2 + image2 or not section1.equals(section2):
                    return False
            elif v1 + w[len(u1) :] != v2 + w[len(u2) :]:
                return False
            if deeper:
                i += 1
                if i == len(mine) or mine[i][0][: len(u2)] != u2:
                    j += 1
            else:
                j += 1
                if j == len(theirs) or theirs[j][0][: len(u1)] != u1:
                    i += 1
        return True

    def is_identity(self) -> bool:
        return self.equals(PrefixMap.identity(self.d))

    def __repr__(self):
        return f"PrefixMap({rule_table_text(self)!r})"


def _prefix_map(d: int, rules: Iterable[Rule]) -> PrefixMap:
    """Trusted constructor: rules must be sorted by domain word and pass the
    checks of PrefixMap(...)."""
    f = object.__new__(PrefixMap)
    f.d, f.rules = d, tuple(rules)
    return f


def _normalize_rules(rules: Iterable[Rule], d: int) -> list[Rule]:
    """Merge sibling rules that are the entry-expansion of a single rule.

    Candidates for the merged state are the identity (taken at once for
    empty sections in order) and the signed single states occurring in the
    sibling rules; this recovers canonical tables after compose/invert
    without searching arbitrary products.  One stack pass over the rules
    sorted by domain word merges bottom-up: siblings are adjacent there, so
    once child d is pushed the top d rules are its group, each merged as
    far as it goes, and a merge can complete only its parent's group,
    checked next.  A rule never changes once it exists, so the fixed point,
    returned sorted by domain word, does not depend on the input order.
    """
    stack = []
    for rule in sorted(rules, key=itemgetter(0)):
        stack.append(rule)
        while stack[-1][0][-1:] == (d,):
            group = stack[-d:]
            parent, v = stack[-1][0][:-1], group[0][1][:-1]
            if any(
                u != parent + (a,) or not w or w[:-1] != v
                for a, (u, w, _) in enumerate(group, 1)
            ):
                break
            merged = _try_merge(
                [s for _, _, s in group], tuple(w[-1] for _, w, _ in group), d
            )
            if merged is None:
                break
            stack[-d:] = [(parent, v, merged)]
    return stack


def _try_merge(
    states: list[AutomatonElement], last: tuple[int, ...], d: int
) -> AutomatonElement | None:
    """The first candidate with root permutation last and sections equal to states."""
    if last == perm_identity(d) and not any(s.word for s in states):
        return states[0]
    entries = {(id(m), n): (m, n) for s in states for m, n, _ in s.word}
    candidates = [identity_element(d)] + [
        _automaton_element(d, ((*e, sign),)) for e in entries.values() for sign in (1, -1)
    ]
    for c in candidates:
        if c.root_perm() == last and all(
            c.step(a)[1].equals(s) for a, s in enumerate(states, start=1)
        ):
            return c
    return None


def rule_table_text(f: PrefixMap) -> str:
    lines = []
    for u, v, s in f.rules:
        du = "".join(str(x) for x in u) or "e"
        dv = "".join(str(x) for x in v) or "e"
        lines.append(f"{du} -> {dv} [{automaton_element_text(s)}]")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# bridges to the tree-pair model
# ---------------------------------------------------------------------------

def from_tree_pair(x: Element) -> PrefixMap:
    """The prefix map of a tree-pair element of a permutation-type system.

    The right tree subdivides the domain, the left tree the range: the cone
    at leaf i of U maps onto the cone at leaf rho(g)(i) of T, with trivial
    automaton part.
    """
    if not x.sys.permutation_type:
        raise UnsupportedError(
            f"{x.sys.name} middles are not leaf permutations; no prefix-map form"
        )
    d = x.sys.d
    sigma = x.sys.rho(x.n, x.g)
    dom = leaf_words(x.U)
    rng = leaf_words(x.T)
    ident = identity_element(d)
    rules = [(u, rng[j - 1], ident) for u, j in zip(dom, sigma)]
    # Already normal: with trivial states only d sibling leaves of U sent in
    # order onto d sibling leaves of T could merge, and that is an in-order
    # block reduce_triple would have collapsed, since an Element is reduced.
    # Already sorted: leaf words run in lexicographic order.
    return _prefix_map(d, rules)


def is_order_preserving(f: PrefixMap) -> bool:
    """True when f preserves the lexicographic order on the Cantor space.

    This holds exactly when every state acts trivially and the range words
    appear in the same order as the domain words; such maps are precisely
    the F_d elements.
    """
    if any(not s.is_identity() for _, _, s in f.rules):
        return False
    rngs = [v for _, v, _ in f.rules]
    return all(a < b for a, b in zip(rngs, rngs[1:]))


def tail_equivalence_violations(
    f: PrefixMap, points: Iterable[CantorWord]
) -> list[CantorWord]:
    """Points whose image has a different infinite tail.

    Any nonempty answer certifies that f lies outside V_d, whose elements
    only ever edit a finite prefix.
    """
    return [p for p in points if not tail_equivalent(p, f.apply(p))]
