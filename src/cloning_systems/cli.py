"""Config-driven experiment runner.

EXPERIMENTS is the one table of experiments; each subcommand's flags and
config validation follow from its function's keyword parameters.  Every
subcommand builds a RunConfig, calls its function in the experiments
module, and emits a JSON report; reports are byte-identical
for identical (config, seed) apart from the runtime_ms field.  Exit codes:
0 all checked properties hold, 1 a checked property failed (the report
carries the witness), 2 usage or configuration error.  The default seed
comes from the DCS_SEED environment variable when set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

from . import cloning, experiments
from .cloning import make_system
from .groups import UnsupportedError


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
        declared = EXPERIMENTS[self.experiment].__kwdefaults__
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


# name -> experiment.  An experiment takes (system, seed) and then its
# parameters as keywords, each a PARAM_TYPES key, in the order of its flags;
# a parameter left out of a config, or given as null, takes the keyword's
# default, and one the experiment does not take is rejected.  It returns the
# report; run() stamps the experiment, system and seed.
EXPERIMENTS: dict[str, Callable] = {
    "verify-axioms": experiments.verify_axioms,
    "probe": experiments.probe,
    "diversity": experiments.diversity,
    "conjugates": experiments.conjugates,
    "normalizer": experiments.normalizer,
    "wahp-orbit": experiments.wahp_orbit,
    "mixing": experiments.mixing,
    "fpf": experiments.fpf,
    "cantor-crosscheck": experiments.cantor_crosscheck,
}


def run(config: RunConfig) -> experiments.ExperimentReport:
    """Validate, dispatch, and time one experiment."""
    config.validate()
    start = time.monotonic()
    params = {key: val for key, val in config.params.items() if val is not None}
    system = make_system(config.system)
    report = EXPERIMENTS[config.experiment](system, config.seed, **params)
    report.experiment, report.system = config.experiment, system.name
    report.seed = config.seed
    report.runtime_ms = int((time.monotonic() - start) * 1000)
    return report


# Help for the parameter flags whose name alone says too little
_PARAM_HELP = {
    "n": "group level bound",
    "radius": "ball radius: max carets per tree",
    "m": "power / chain length bound",
    "depth": "word depth bound for point checks",
    "budget": "sample budget",
    "exhaustive": "enumerate, not sample",
}


def _add_param_flag(p: argparse.ArgumentParser, key: str, positional: bool = False) -> None:
    """The flag for a parameter, in the form its type calls for.

    positional makes the property the subcommand's optional positional
    (dcs probe pure), not a flag (dcs report --property pure).
    """
    kind, help = PARAM_TYPES[key], _PARAM_HELP.get(key)
    flag = "--" + key.replace("_", "-")
    if key == "property" and positional:
        p.add_argument(key, nargs="?", choices=cloning.PROBE_PROPERTIES)
    elif key == "property":
        p.add_argument(flag, choices=cloning.PROBE_PROPERTIES)
    elif kind is list:  # repeatable: --element A --element B
        p.add_argument(flag.removesuffix("s"), action="append", dest=key, metavar="TEXT")
    elif kind is bool:
        p.add_argument(flag, action="store_true", default=None, help=help)
    else:
        p.add_argument(flag, type=kind, help=help, metavar="TEXT" if kind is str else None)


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a usage error as one ConfigError line."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    # report's experiment is known only once its config is read, so it takes
    # every parameter; abbreviations are refused, as one could name another flag
    parser = _Parser(
        prog="dcs",
        description="Finite-scale experiments on cloning-system Thompson-like groups.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    rows = {name: fn.__kwdefaults__ for name, fn in EXPERIMENTS.items()}
    for name, params in {**rows, "report": PARAM_TYPES}.items():
        what = f"the {name} experiment" if name in rows else "an experiment described by --config"
        p = sub.add_parser(name, help="run " + what, allow_abbrev=False)
        p.add_argument("--system", help="registry key, e.g. V, Vhat, V:3, psi:Z3:id,id")
        for key in params:
            _add_param_flag(p, key, positional=name == "probe")
        p.add_argument("--seed", type=int, help="random seed (default $DCS_SEED or 0)")
        p.add_argument("--out", help="write the JSON report to this path")
        p.add_argument("--config", help="JSON config file; flags override its fields")
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
        if doc.get("experiment") not in (None, args.command):
            raise ConfigError(
                f"the config is for experiment {doc['experiment']!r}, not {args.command}"
            )
        flags["experiment"] = args.command
    merged = {**dict.fromkeys(names), **doc, **{k: flags[k] for k in names if k in flags}}
    merged["params"] = {
        **doc.get("params", {}),
        **{k: v for k, v in flags.items() if k in PARAM_TYPES},
    }
    if merged["seed"] is None:
        env = os.environ.get("DCS_SEED") or "0"
        try:
            merged["seed"] = int(env)
        except ValueError:
            raise ConfigError(f"DCS_SEED must be an integer, got {env!r}") from None
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
    except (ValueError, UnsupportedError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.verdict in ("pass", "no-witness", "witness") else 1


if __name__ == "__main__":
    sys.exit(main())
