"""Regenerate references.json: the benchmark's input corpus and expected outputs.

    python3 perfbench/make_references.py

The corpus comes from a fixed seed, not from the --seed of a benchmark run;
each run draws its inputs from the corpus.  Expected outputs are computed
by the library as it is when this script runs, and each is also checked
here against an independent reference (closed form, Cantor-space
composition, ball size).  Regenerate only when a change to the library is
meant to change an output.
"""

from __future__ import annotations

import json
import random
import sys

import workloads as w

CORPUS_SEED = 20230305


def nontrivial_elements(cs, system, rng, count, carets=(2, 3)):
    """Distinct non-trivial elements built from trees of 2 or 3 carets."""
    out: list = []
    while len(out) < count:
        c = rng.choice(carets)
        T = cs.trees.random_tree(system.d, c, rng)
        U = cs.trees.random_tree(system.d, c, rng)
        x = cs.thompson.Element(system, T, system.family.sample(T.leaf_count, rng), U)
        if not x.is_identity() and x not in out:
            out.append(x)
    return out


def conjugacy_refs(cs, rng) -> dict:
    refs: dict = {}
    for kind, radii in w.CONJUGACY_RADIUS.items():
        refs[kind] = {}
        for key, radius in radii.items():
            system = cs.cloning.make_system(key)
            ball = cs.analysis.enumerate_fd_ball(system, radius)
            assert not ball.truncated
            xs = nontrivial_elements(cs, system, rng, w.CONJUGACY_CORPUS[kind][0])
            entries = []
            for x in xs:
                count = getattr(cs.analysis, kind)(x, ball)
                assert 1 <= count <= len(ball.elements)
                entries.append({"x": cs.thompson.element_text(x), "count": count})
            refs[kind][key] = entries
    return refs


def powers_refs(cs, rng) -> dict:
    refs: dict = {}
    for key in w.POWERS_SYSTEMS:
        system = cs.cloning.make_system(key)
        spine = cs.trees.right_spine(system.d, w.POWERS_SPINE_CARETS)
        pairs = [(k, l) for k in range(1, spine.leaf_count + 1)
                 for l in range(k + 1, spine.leaf_count + 1)]
        plain = rng.sample(pairs, w.POWERS_CORPUS)
        ys = nontrivial_elements(cs, system, rng, w.POWERS_CORPUS, carets=(2,))
        entries = [{"k": k, "l": l, "y": None} for k, l in plain]
        entries += [
            {"k": k, "l": l, "y": cs.thompson.element_text(y)}
            for (k, l), y in zip((rng.choice(pairs) for _ in ys), ys)
        ]
        for e in entries:
            x, y = w.powers_input(cs, system, spine, e)
            e["powers"] = {}
            for m in w.POWERS_EXPONENTS[system.d]:
                p = x ** m
                c = cs.thompson.powers_closed_form(system, spine, e["k"], e["l"], m)
                assert p == (c if y is None else y.inv() * c * y)
                e["powers"][str(m)] = w.digest(cs.thompson.element_text(p))
        refs[key] = entries
    return refs


def cantor_refs(cs, rng) -> dict:
    refs: dict = {}
    for key in w.CANTOR_SYSTEMS:
        system = cs.cloning.make_system(key)
        letters = [cs.thompson.fd_generator(system, i) for i in range(system.d)]
        letters += [g.inv() for g in letters]
        h = w.reflection_map(cs, system.d)

        def word():
            x = cs.thompson.random_element(system, rng, max_carets=3)
            for _ in range(rng.randint(10, 20)):
                x = x * rng.choice(letters)
            return x

        entries = []
        for i in range(w.CANTOR_CORPUS):
            x, y = word(), word()
            reflect = i % 3 == 0
            xy, rules, ok = w.cantor_crosscheck(cs, x, y, h if reflect else None)
            assert ok
            entries.append({
                "x": cs.thompson.element_text(x),
                "y": cs.thompson.element_text(y),
                "reflect": reflect,
                "xy": cs.thompson.element_text(xy),
                "rules": rules,
            })
        refs[key] = entries
    return refs


def main() -> int:
    cs = w.import_library()
    rng = random.Random(CORPUS_SEED)
    refs = {
        "corpus_seed": CORPUS_SEED,
        "conjugacy": conjugacy_refs(cs, rng),
        "powers": powers_refs(cs, rng),
        "cantor": cantor_refs(cs, rng),
    }
    with open(w.REFERENCES, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
