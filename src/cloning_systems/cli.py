"""Config-driven experiment runner.

EXPERIMENTS is the one table of experiments, their parameters and defaults;
each subcommand's flags, config validation and default filling follow from
it.  Every subcommand builds a RunConfig, dispatches to a runner, and emits a
JSON report; reports are byte-identical for identical (config, seed) apart
from the runtime_ms field.  Exit codes: 0 all checked properties hold,
1 a checked property failed (the report carries the witness), 2 usage or
configuration error.  The default seed comes from the DCS_SEED environment
variable when set.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from dataclasses import dataclass, field, fields
from functools import lru_cache, partial
from itertools import chain, product
from typing import Callable, Optional

from . import analysis, cantor, cloning
from .analysis import (
    DEFAULT_MAX_BALL,
    DEFAULT_MAX_LEAVES,
    EVIDENCE_EXHAUSTIVE,
    EVIDENCE_SAMPLED,
    ExperimentReport,
    enumerate_fd_ball,
    enumerate_system_ball,
)
from .cloning import make_system
from .groups import UnsupportedError, perm_apply
from .thompson import element_text, parse_element, random_element
from .trees import caret, expand_at, leaf_index, leaf_words, parse_tree


class ConfigError(ValueError):
    """Invalid run configuration (reported with exit code 2)."""


# The one type of each parameter key, whichever experiments take it.
PARAM_TYPES: dict[str, type] = {
    **dict.fromkeys(("n", "radius", "m", "depth", "budget"), int),
    **dict.fromkeys(("exhaustive", "one_sided"), bool),
    **dict.fromkeys(("property", "tree", "leaf_word", "middle", "graft_a", "graft_b"), str),
    "elements": list,  # of element texts
}
_EXPECTED = {
    int: "a nonnegative integer",
    bool: "true or false",
    str: "a string",
    list: "a list of strings",
}


@dataclass
class RunConfig:
    system: str
    experiment: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    out: Optional[str] = None

    def validate(self) -> None:
        """Reject a malformed config before any work is done."""
        if not isinstance(self.experiment, str) or self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if not isinstance(self.system, str) or not self.system:
            raise ConfigError(f"need a system registry key, got {self.system!r}")
        if type(self.seed) is not int:
            raise ConfigError("seed must be an integer")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError("out must be a file path")
        if not isinstance(self.params, dict):
            raise ConfigError("params must be a JSON object")
        declared = EXPERIMENTS[self.experiment][0]
        for key, val in self.params.items():
            if key not in declared:
                raise ConfigError(f"{self.experiment} takes no parameter {key!r}")
            kind = PARAM_TYPES[key]
            # type() rather than isinstance(): a JSON true is no integer here
            if val is not None and not (
                type(val) is kind
                and (kind is not int or val >= 0)
                and (kind is not list or all(type(t) is str for t in val))
            ):
                raise ConfigError(f"parameter {key} must be {_EXPECTED[kind]}")


def _elements_for(system, params: dict, seed: int):
    if params["elements"]:
        return [parse_element(system, t) for t in params["elements"]]
    elements = analysis.sample_nontrivial_elements(
        system, params["budget"], random.Random(seed)
    )
    if not elements:
        raise ConfigError("no element to check: give --element or a budget >= 1")
    return elements


def _fd_ball(system, radius: int) -> analysis.FdBall:
    """The F_d ball of the radius, refused when a cap cut it short."""
    ball = enumerate_fd_ball(system, radius)
    if ball.truncated:
        raise ConfigError(
            f"the F_d ball of radius {radius} is cut at {DEFAULT_MAX_BALL} elements "
            f"or {DEFAULT_MAX_LEAVES} leaves; use a smaller radius"
        )
    return ball


def run_verify_axioms(system, params: dict, seed: int) -> ExperimentReport:
    result = cloning.verify_axioms(
        system,
        n_max=params["n"],
        exhaustive=params["exhaustive"],
        budget=params["budget"],
        seed=seed,
    )
    report = ExperimentReport(
        params=params,
        series={"checked": result["checked"]},
        verdict="pass" if result["ok"] else "fail",
        evidence=EVIDENCE_EXHAUSTIVE if params["exhaustive"] else EVIDENCE_SAMPLED,
    )
    if not result["ok"]:
        report.witnesses.append(
            f"{result['axiom']} fails at {result['counterexample']}"
        )
    return report


def run_probe(system, params: dict, seed: int) -> ExperimentReport:
    if params["property"] is None:
        raise ConfigError(
            f"probe needs a property, one of {', '.join(cloning.PROBE_PROPERTIES)}"
        )
    result = cloning.probe_property(
        system, params["property"], n_max=params["n"], budget=params["budget"], seed=seed
    )
    report = ExperimentReport(
        params=params,
        series={"verdict_detail": result["verdict"]},
        verdict="fail" if result["verdict"] == "fails" else "pass",
        evidence=EVIDENCE_EXHAUSTIVE
        if result["verdict"] == "holds-exhaustive"
        else EVIDENCE_SAMPLED,
    )
    if result["verdict"] == "fails":
        report.witnesses.append(str(result["counterexample"]))
    return report


def run_diversity(system, params: dict, seed: int) -> ExperimentReport:
    n = params["n"]
    result = cloning.diversity_witness(
        system, n, budget=params["budget"], seed=seed, exhaustive=params["exhaustive"]
    )
    witness = result["witness"]
    report = ExperimentReport(
        params={"n": n, "budget": params["budget"]},
        series={"witness_found": witness is not None},
        verdict="witness" if witness is not None else "no-witness",
        evidence=EVIDENCE_EXHAUSTIVE if result["exhaustive"] else EVIDENCE_SAMPLED,
    )
    if witness is not None:
        report.witnesses.append(
            system.family.to_text(n + system.d - 1, witness)
        )
    return report


def run_growth(count: Callable, system, params: dict, seed: int) -> ExperimentReport:
    """Per-element counts over the F_d balls of radius 1..radius."""
    radius = params["radius"]
    if radius < 1:
        raise ConfigError("radius must be >= 1")
    elements = _elements_for(system, params, seed)
    balls = [_fd_ball(system, L) for L in range(1, radius + 1)]
    series: dict = {"radii": list(range(1, radius + 1))}
    ok = True
    for i, x in enumerate(elements):
        counts = [count(x, ball) for ball in balls]
        series[f"element_{i}"] = counts
        if any(a > b for a, b in zip(counts, counts[1:])):
            ok = False  # monotonicity in the radius is an exact invariant
    return ExperimentReport(
        params={"radius": radius, "count": len(elements)},
        series=series,
        witnesses=[element_text(x) for x in elements],
        verdict="pass" if ok else "fail",
    )


def run_normalizer(system, params: dict, seed: int) -> ExperimentReport:
    radius, one_sided = params["radius"], params["one_sided"]
    if radius < 1:
        raise ConfigError("radius must be >= 1")
    elements = _elements_for(system, params, seed)
    ball = _fd_ball(system, radius)
    series: dict = {"radius": radius, "results": []}
    all_normalize = True
    witnesses = []
    for x in elements:
        ok, failing = analysis.normalizes_up_to(x, ball, one_sided=one_sided)
        series["results"].append(ok)
        witnesses.append(element_text(x))
        if not ok:
            all_normalize = False
            witnesses.append(f"failing conjugator: {element_text(failing)}")
    return ExperimentReport(
        params={"radius": radius, "one_sided": one_sided},
        series=series,
        witnesses=witnesses,
        verdict="pass" if all_normalize else "fail",
    )


def run_mixing(system, params: dict, seed: int) -> ExperimentReport:
    d = system.d
    rng = random.Random(seed)
    if params["tree"]:
        R = parse_tree(params["tree"], d)
    elif system.pure:
        R = caret(d)
    else:
        # non-pure systems need room for a nontrivial middle fixing the leaf
        R = expand_at(caret(d), d)
    if params["leaf_word"]:
        v = tuple(int(c) for c in params["leaf_word"])
    elif system.pure:
        v = (1,)
    else:
        # the last leaf: slightly pure middles fix its index automatically
        v = leaf_words(R)[-1]
    if params["middle"]:
        g = system.family.parse(R.leaf_count, params["middle"])
    else:
        # prefer a nontrivial middle that acts trivially at the graft leaf:
        # for tuple middles, identity in the grafted slot (the expansions
        # then only ever clone identity entries, so commutation holds even
        # without uniformity); for permutation middles, fixing the leaf
        n = R.leaf_count
        pos = leaf_index(R, v)
        identity = system.family.identity(n)
        g = identity
        for _ in range(200):
            cand = system.family.sample(n, rng)
            if isinstance(system, cloning.ProductSystem):
                cand = cand[: pos - 1] + (system.base.identity,) + cand[pos:]
            if cand != identity and perm_apply(system.rho(n, cand), pos) == pos:
                g = cand
                break
    if g == system.family.identity(R.leaf_count):
        raise ConfigError(
            "the middle is the identity, so mixing at leaf word "
            f"{''.join(map(str, v))} checks nothing; give a nontrivial --middle"
        )
    # default grafts: one caret hung on the first vs the last leaf of a caret
    if params["graft_a"]:
        graft_a = parse_tree(params["graft_a"], d)
    else:
        graft_a = expand_at(caret(d), 1)
    if params["graft_b"]:
        graft_b = parse_tree(params["graft_b"], d)
    else:
        graft_b = expand_at(caret(d), d)
    result = analysis.mixing_witness(system, R, v, g, graft_a, graft_b)
    report = ExperimentReport(
        params={
            "tree": params["tree"] or "caret",
            "leaf_word": "".join(str(c) for c in v),
        },
        series={
            "commutes": result["commutes"],
            "f_nontrivial": result["f_nontrivial"],
            "uniform_declared": result["uniform_declared"],
            "middle_fixes_graft_leaf": result["middle_fixes_graft_leaf"],
        },
        witnesses=[element_text(result["x"]), element_text(result["f"])],
        verdict="pass" if result["commutes"] and result["f_nontrivial"] else "fail",
    )
    if not result["commutes"]:
        report.witnesses.append(
            "commutation failed: counterexample to the premises "
            "(uniformity, or a middle acting at the grafted leaf)"
        )
    return report


def run_fpf(system, params: dict, seed: int) -> ExperimentReport:
    return analysis.fpf_suite(system, n=params["n"], m_max=params["m"], seed=seed)


def _random_point(d: int, depth: int, rng) -> "cantor.CantorWord":
    pre = tuple(rng.randint(1, d) for _ in range(rng.randint(0, depth // 2)))
    per = tuple(rng.randint(1, d) for _ in range(rng.randint(1, max(1, depth // 2))))
    return cantor.CantorWord(pre, per)


def run_cantor_crosscheck(system, params: dict, seed: int) -> ExperimentReport:
    if not system.permutation_type:
        raise ConfigError("cantor-crosscheck needs one of the F/T/V/Vhat systems")
    radius, budget, depth = params["radius"], params["budget"], params["depth"]
    rng = random.Random(seed)
    ball = enumerate_system_ball(system, radius)
    rng2 = random.Random(seed + 1)
    sampled = [
        (random_element(system, rng2), random_element(system, rng2))
        for _ in range(budget)
    ]
    points = [_random_point(system.d, depth, rng) for _ in range(8)]
    table = lru_cache(maxsize=None)(cantor.from_tree_pair)  # per element, in this call
    checked = 0
    points_checked = 0
    failures = []
    for x, y in chain(product(ball, repeat=2), sampled):
        fx, fy = table(x), table(y)
        composed = fx.compose(fy)
        if not cantor.from_tree_pair(x * y).equals(composed):
            failures.append((element_text(x), element_text(y)))
            break
        checked += 1
        if checked % 50 == 0:
            for p in points:
                if composed.apply(p) != fx.apply(fy.apply(p)):
                    failures.append((element_text(x), element_text(y)))
                    break
                points_checked += 1
            if failures:
                break
    order_ok = all(cantor.is_order_preserving(table(x)) == x.in_fd() for x in ball)
    inv_ok = all(table(x.inv()).equals(table(x).invert()) for x in ball)
    ok = not failures and order_ok and inv_ok
    report = ExperimentReport(
        params=params,
        series={
            "pairs_checked": checked,
            "points_checked": points_checked,
            "order_preserving_iff_fd": order_ok,
            "inverses_match": inv_ok,
        },
        verdict="pass" if ok else "fail",
    )
    report.witnesses.extend(f"{a} * {b}" for a, b in failures)
    return report


# name -> (parameter defaults, runner).  A parameter left out of a config,
# or given as null, takes its default; one the experiment does not list is
# rejected.  A runner takes (system, params with defaults filled in, seed)
# and returns the report; run() stamps the experiment, system and seed.
EXPERIMENTS: dict[str, tuple[dict, Callable[..., ExperimentReport]]] = {
    "verify-axioms": ({"n": 4, "exhaustive": False, "budget": 1000}, run_verify_axioms),
    "probe": ({"property": None, "n": 4, "budget": 500}, run_probe),
    "diversity": ({"n": 3, "budget": 500, "exhaustive": None}, run_diversity),
    "conjugates": (
        {"radius": 3, "budget": 5, "elements": None},
        partial(run_growth, analysis.conjugate_count),
    ),
    "normalizer": (
        {"radius": 3, "budget": 3, "one_sided": False, "elements": None},
        run_normalizer,
    ),
    "wahp-orbit": (
        {"radius": 3, "budget": 3, "elements": None},
        partial(run_growth, analysis.coset_orbit_count),
    ),
    "mixing": (
        dict.fromkeys(("tree", "leaf_word", "middle", "graft_a", "graft_b")),
        run_mixing,
    ),
    "fpf": ({"n": 3, "m": 5}, run_fpf),
    "cantor-crosscheck": ({"radius": 2, "budget": 100, "depth": 12}, run_cantor_crosscheck),
}


def run(config: RunConfig) -> ExperimentReport:
    """Validate, dispatch, and time one experiment."""
    config.validate()
    start = time.monotonic()
    defaults, runner = EXPERIMENTS[config.experiment]
    params = {
        key: default if config.params.get(key) is None else config.params[key]
        for key, default in defaults.items()
    }
    system = make_system(config.system)
    report = runner(system, params, config.seed)
    report.experiment, report.system = config.experiment, system.name
    report.seed = config.seed
    report.runtime_ms = int((time.monotonic() - start) * 1000)
    return report


# Parameter flags on every subcommand (an experiment rejects those it does not take)
_COMMON_PARAM_HELP = {
    "n": "group level bound",
    "radius": "ball radius: max carets per tree",
    "m": "power / chain length bound",
    "depth": "word depth bound for point checks",
    "budget": "sample budget",
    "exhaustive": "enumerate, not sample",
}


def _add_param_flag(p: argparse.ArgumentParser, key: str, help=None) -> None:
    """The flag for a parameter, in the form its type calls for."""
    kind = PARAM_TYPES[key]
    flag = "--" + key.replace("_", "-")
    if key == "property":
        p.add_argument(key, nargs="?", choices=cloning.PROBE_PROPERTIES)
    elif kind is list:  # repeatable: --element A --element B
        p.add_argument(flag.removesuffix("s"), action="append", dest=key, metavar="TEXT")
    elif kind is bool:
        p.add_argument(flag, action="store_true", default=None, help=help)
    else:
        p.add_argument(flag, type=kind, help=help, metavar="TEXT" if kind is str else None)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--system", help="registry key, e.g. V, Vhat, V:3, psi:Z3:id,id")
    for key, help in _COMMON_PARAM_HELP.items():
        _add_param_flag(p, key, help)
    p.add_argument("--seed", type=int, help="random seed (default $DCS_SEED or 0)")
    p.add_argument("--out", help="write the JSON report to this path")
    p.add_argument("--config", help="JSON config file; flags override its fields")


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a usage error as one ConfigError line."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dcs",
        description="Finite-scale experiments on cloning-system Thompson-like groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (defaults, _) in EXPERIMENTS.items():
        p = sub.add_parser(name, help=f"run the {name} experiment")
        _add_common_flags(p)
        for key in defaults:
            if key not in _COMMON_PARAM_HELP:
                _add_param_flag(p, key)
    p = sub.add_parser("report", help="run an experiment described by --config")
    _add_common_flags(p)
    p.add_argument("--experiment", help="experiment name when no config file is given")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The config file's fields, overridden by the flags that were given."""
    doc: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("params", {}), dict):
        raise ConfigError("a config must be a JSON object, and so must its params")
    names = [f.name for f in fields(RunConfig)]
    unknown = sorted(set(doc) - set(names))
    if unknown:
        raise ConfigError(f"unknown config fields {unknown}")
    flags = {k: v for k, v in vars(args).items() if v is not None}
    if args.command != "report":
        flags["experiment"] = args.command
    merged = {**dict.fromkeys(names), **doc, **{k: flags[k] for k in names if k in flags}}
    merged["params"] = {
        **doc.get("params", {}),
        **{k: v for k, v in flags.items() if k in PARAM_TYPES},
    }
    if merged["seed"] is None:
        merged["seed"] = int(os.environ.get("DCS_SEED") or 0)
    return RunConfig(**merged)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        config = _config_from_args(build_parser().parse_args(argv))
        report = run(config)
        if config.out:
            with open(config.out, "w") as fh:
                fh.write(report.to_json())
        else:
            sys.stdout.write(report.to_json())
    except (ConfigError, ValueError, UnsupportedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.verdict in ("pass", "no-witness", "witness") else 1


if __name__ == "__main__":
    sys.exit(main())
