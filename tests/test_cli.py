import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cloning_systems import analysis, cantor, cli, cloning, experiments
from cloning_systems.analysis import MAX_BALL_LEAVES, MAX_SYSTEM_BALL
from cloning_systems.cloning import make_system
from cloning_systems.cantor import CantorWord, PrefixMap
from cloning_systems.cli import (
    EXPERIMENTS,
    PARAM_TYPES,
    ConfigError,
    RunConfig,
    _config_from_args,
    build_parser,
    main,
    run,
)
from cloning_systems.trees import MAX_TREE_DEPTH


def test_benchmark_imports_leave_out_the_experiment_layer():
    # what perfbench/workloads.py imports at set-up; only cli imports experiments,
    # and the layer modules load no dataclasses or typing (-S: no site hook
    # loads them first)
    code = (
        "import sys, cloning_systems; "
        "from cloning_systems import analysis, cantor, cloning, thompson, trees; "
        "print([m for m in ('cloning_systems.experiments', 'dataclasses', 'inspect', "
        "'typing', 're') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_contract_for_every_subcommand(capsys):
    # besides the shared flags, an experiment's help lists the flags of its
    # own parameters and no other; report's lists them all, and no --experiment.
    # probe takes the property as its positional, report as --property
    flag_of = {key: "--" + key.replace("_", "-") for key in PARAM_TYPES}
    flag_of["elements"] = "--element"
    shared = {"--help", "--system", "--seed", "--out", "--config"}
    parser = build_parser()
    rows = {name: fn.__kwdefaults__ for name, fn in EXPERIMENTS.items()}
    for name, params in {**rows, "report": PARAM_TYPES}.items():
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([name, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out))
        own = {flag_of[key] for key in params if (name, key) != ("probe", "property")}
        assert listed == shared | own, name
        assert ("{pure,slightly_pure," in out) == ("property" in params), name


def test_help_through_main_exits_zero_with_the_full_text(capsys):
    for argv in (["--help"], ["diversity", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: dcs") and "--help" in captured.out
        assert captured.err == ""


def test_verify_axioms_pass_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys, "verify-axioms", "--system", "V", "--n", "3", "--exhaustive"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert doc["evidence"] == "exhaustive-proof"
    assert doc["schema_version"] == 1


def test_probe_failure_exit_one(capsys):
    code, out, _ = run_cli(capsys, "probe", "pure", "--system", "V", "--n", "3")
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "fail"
    assert doc["witnesses"]


def test_probe_needs_property(capsys, tmp_path):
    code, _, err = run_cli(capsys, "probe", "--system", "V")
    assert code == 2
    assert "property" in err
    # one line naming the choices, from the flags or from a config
    expected = (
        "error: probe needs a property, one of pure, slightly_pure, "
        "fully_compatible, uniform\n"
    )
    assert err == expected
    config = tmp_path / "probe.json"
    config.write_text(json.dumps({"experiment": "probe", "system": "V"}))
    assert run_cli(capsys, "report", "--config", str(config)) == (2, "", expected)


def test_unknown_system_exit_two(capsys):
    code, _, err = run_cli(capsys, "verify-axioms", "--system", "Q8")
    assert code == 2
    assert "Q8" in err


def test_missing_system_exit_two(capsys):
    code, _, err = run_cli(capsys, "diversity")
    assert code == 2


def test_bad_parameter_rejected_before_compute(capsys):
    code, _, err = run_cli(capsys, "conjugates", "--system", "V", "--radius", "-1")
    assert code == 2


def test_diversity_witness_reported(capsys):
    code, out, _ = run_cli(
        capsys, "diversity", "--system", "prod:Z3:id,id", "--n", "3"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "witness"
    assert doc["witnesses"] == ["(1,1,1,1)"]
    assert doc["evidence"] == "exhaustive-proof"


def test_conjugates_with_explicit_element(capsys):
    code, out, _ = run_cli(
        capsys,
        "conjugates",
        "--system",
        "V",
        "--radius",
        "3",
        "--element",
        "[(..) ; [2,1] ; (..)]",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["series"]["element_0"] == [1, 3, 15]


def test_wahp_orbit_runs(capsys):
    code, out, _ = run_cli(
        capsys,
        "wahp-orbit",
        "--system",
        "V",
        "--radius",
        "2",
        "--element",
        "[(..) ; [2,1] ; (..)]",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["series"]["element_0"] == [1, 3]


def test_normalizer_reports_witness_and_exit_one(capsys):
    code, out, _ = run_cli(
        capsys,
        "normalizer",
        "--system",
        "prod:Z3:id,id",
        "--radius",
        "3",
        "--element",
        "[(..) ; (1,0) ; (..)]",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "fail"
    assert any("failing conjugator" in w for w in doc["witnesses"])


def test_element_with_unequal_leaf_counts_exits_two(capsys):
    code, out, err = run_cli(
        capsys, "normalizer", "--system", "V", "--radius", "2",
        "--element", "[(..) ; [2,1] ; .]",
    )
    assert (code, out, err) == (2, "", "error: leaf counts differ\n")


def test_mixing_default_pair(capsys):
    code, out, _ = run_cli(capsys, "mixing", "--system", "psi:Z3:id,id", "--seed", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["series"]["commutes"] and doc["series"]["f_nontrivial"]


def test_mixing_defaults_work_for_every_builtin_kind(capsys):
    for key in ("V", "V:3", "Vhat", "prod:F2:id,swap", "prod:Z3:id,inv"):
        code, out, _ = run_cli(capsys, "mixing", "--system", key, "--seed", "1")
        assert code == 0, key
        doc = json.loads(out)
        assert doc["series"]["commutes"] and doc["series"]["f_nontrivial"], key
        assert doc["series"]["middle_fixes_graft_leaf"], key


def test_invalid_element_text_exit_two(capsys):
    code, _, err = run_cli(
        capsys, "conjugates", "--system", "V", "--radius", "2",
        "--element", "not an element",
    )
    assert code == 2


@pytest.mark.parametrize(
    "key", ["V", "psi:Z3:id,inv", "prod:Z3:inv,id", "prod:Z3:id,id,inv"]
)
def test_fpf_requires_binary_product_system(capsys, key):
    code, _, err = run_cli(capsys, "fpf", "--system", key)
    assert code == 2
    assert err == "error: fpf expects a system of the form prod:<group>:id,<phi>\n"
    code2, out, _ = run_cli(capsys, "fpf", "--system", "prod:Z3:id,inv")
    assert code2 == 0
    assert json.loads(out)["verdict"] == "pass"


def test_cantor_crosscheck(capsys):
    code, out, _ = run_cli(
        capsys,
        "cantor-crosscheck",
        "--system",
        "V",
        "--radius",
        "1",
        "--budget",
        "20",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["series"]["order_preserving_iff_fd"]
    assert doc["series"]["inverses_match"]


def test_cantor_crosscheck_five_hundred_samples(capsys):
    code, out, _ = run_cli(
        capsys,
        "cantor-crosscheck",
        "--system",
        "V",
        "--radius",
        "1",
        "--budget",
        "500",
        "--seed",
        "7",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert doc["series"]["pairs_checked"] >= 500


def test_cantor_crosscheck_stops_at_the_first_failed_point(capsys, monkeypatch):
    # every apply returns a new point, so each point check disagrees; the
    # run must end at the first one instead of failing every 50th pair
    calls = iter(range(1, 10**6))
    monkeypatch.setattr(
        PrefixMap, "apply", lambda self, p: CantorWord((2,) * next(calls), (1,))
    )
    code, out, _ = run_cli(
        capsys, "cantor-crosscheck", "--system", "V", "--radius", "1", "--budget", "200"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "fail"
    assert len(doc["witnesses"]) == 1
    assert doc["series"]["pairs_checked"] == 50
    assert doc["series"]["points_checked"] == 0


def test_report_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "system": "V",
                "experiment": "conjugates",
                "params": {"radius": 2, "budget": 3},
                "seed": 4,
            }
        )
    )
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "report", "--config", str(cfg), "--out", str(out_path)
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["experiment"] == "conjugates" and doc["seed"] == 4


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"system": "V", "experiment": "diversity", "params": {"n": 2}})
    )
    code, out, _ = run_cli(capsys, "report", "--config", str(cfg), "--n", "3")
    assert code == 0
    assert json.loads(out)["params"]["n"] == 3


def test_a_subcommand_takes_a_config_of_its_own_experiment(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for experiment in ("diversity", None):
        cfg.write_text(json.dumps({"system": "V", "experiment": experiment, "params": {"n": 2}}))
        code, out, err = run_cli(capsys, "diversity", "--config", str(cfg))
        assert (code, err) == (0, "")
        assert json.loads(out)["experiment"] == "diversity"


def test_report_needs_experiment(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "V"}))
    code, _, err = run_cli(capsys, "report", "--config", str(cfg))
    assert code == 2
    assert "experiment" in err


def test_report_takes_the_probe_property_as_a_flag(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "V", "experiment": "probe"}))
    code, out, err = run_cli(capsys, "report", "--config", str(cfg), "--property", "pure")
    assert (code, err) == (1, "")
    assert json.loads(out)["params"]["property"] == "pure"
    # a word after report is no property; --experiment is refused by name
    code, out, err = run_cli(capsys, "report", "--experiment", "diversity", "--system", "V")
    assert (code, out) == (2, "")
    assert err == "error: unrecognized arguments: --experiment diversity\n"


def test_reports_byte_identical_modulo_runtime():
    config = RunConfig(
        system="V", experiment="conjugates", params={"radius": 3, "budget": 4}, seed=9
    )
    first = run(config).to_json(include_runtime=False)
    second = run(config).to_json(include_runtime=False)
    assert first == second


def test_env_seed_default(monkeypatch, capsys):
    monkeypatch.setenv("DCS_SEED", "9")
    code, out, _ = run_cli(capsys, "conjugates", "--system", "V", "--radius", "2", "--budget", "2")
    assert code == 0
    assert json.loads(out)["seed"] == 9


def test_env_seed_that_is_no_integer_exits_two_naming_it(monkeypatch, capsys):
    monkeypatch.setenv("DCS_SEED", "abc")
    code, out, err = run_cli(capsys, "diversity", "--system", "V")
    assert (code, out) == (2, "")
    assert err == "error: DCS_SEED must be an integer, got 'abc'\n"
    # an explicit --seed leaves the variable unread
    assert run_cli(capsys, "diversity", "--system", "V", "--seed", "1")[0] == 0


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(system="V", experiment="nope").validate()
    with pytest.raises(ConfigError):
        RunConfig(system="V", experiment="probe", params={"n": -1}).validate()
    with pytest.raises(ConfigError):
        RunConfig(system="V", experiment="probe", seed="x").validate()
    with pytest.raises(ConfigError, match="^params must be a JSON object$"):
        run(RunConfig(system="V", experiment="conjugates", params=[1]))


def test_unreadable_config_exit_two(capsys):
    code, _, err = run_cli(capsys, "report", "--config", "/no/such/file.json")
    assert code == 2


def test_exhaustive_on_infinite_family_exit_two(capsys):
    code, _, err = run_cli(
        capsys, "verify-axioms", "--system", "prod:F2:id,swap", "--exhaustive"
    )
    assert code == 2
    assert "infinite" in err


# Reports of fixed configs, recorded as
# run(RunConfig(**config)).to_json(include_runtime=False): a report whose bytes
# change fails here.
GOLDEN = json.loads((Path(__file__).parent / "golden_reports.json").read_text())


@pytest.mark.parametrize(
    "case", GOLDEN, ids=[f"{c['config']['experiment']}-{c['config']['system']}" for c in GOLDEN]
)
def test_golden_reports_byte_identical(case):
    assert run(RunConfig(**case["config"])).to_json(include_runtime=False) == case["report"]


def _left_comb_element(depth):
    """[left comb ; (1 2) ; left comb] in V, both trees of the given depth."""
    comb = "(" * depth + "." + ".)" * depth
    middle = ",".join(map(str, [2, 1] + list(range(3, depth + 2))))
    return f"[{comb} ; [{middle}] ; {comb}]"


# (system, --element text) -> what is wrong with it
BAD_ELEMENTS = {
    ("V", "[(..) ; [1,1] ; (..)]"): "middle-not-a-permutation",
    ("V", "[(..) ; [1,x] ; (..)]"): "middle-entry-not-an-int",
    ("V", "[(..) ; (1,2) ; (..)]"): "middle-not-permutation-text",
    ("T", "[((..).) ; [2,1,3] ; ((..).)]"): "middle-outside-the-family",
    ("prod:F2:id,swap", "[(..) ; (1,aA) ; (..)]"): "word-not-freely-reduced",
    ("prod:F2:id,swap", "[(..) ; 1,a ; (..)]"): "bad-tuple-text",
    ("prod:Z3:id,id", "[(..) ; (1,x) ; (..)]"): "tuple-entry-not-a-residue",
    ("psi:Z3:id,id", "[(..) ; (1,0) ; (..)]"): "tuple-outside-the-family",
    ("V", "[(...) ; [1,2,3] ; (...)]"): "wrong-child-count",
    ("V", "[(.x) ; [1,2] ; (..)]"): "bad-tree-character",
}


@pytest.mark.parametrize(
    "doc, argv",
    [
        ({"params": {"elements": [1, 2]}}, ["conjugates", "--system", "V"]),
        ([1], ["conjugates", "--system", "V"]),
        ({"params": [1]}, ["conjugates", "--system", "V"]),
        ({"system": 3}, ["conjugates"]),
        ({"experiment": ["x"], "system": "V"}, ["report"]),
        ({"experiment": "fpf", "system": "V"}, ["conjugates"]),
        ({"experiment": "nonsense", "system": "V"}, ["conjugates"]),
        ({"params": {"radius": True}}, ["conjugates", "--system", "V"]),
        ({"params": {"nn": 3}}, ["conjugates", "--system", "V"]),
        ({"sed": 3}, ["conjugates", "--system", "V"]),
        ({"out": 3}, ["conjugates", "--system", "V"]),
        (None, ["conjugates", "--system", "V", "--m", "3"]),
        (None, ["diversity", "--system", "V", "--radius", "2"]),
        (None, ["mixing", "--system", "V", "--budget", "2"]),
        # abbreviations are refused, even where only one flag would match
        (None, ["mixing", "--system", "V", "--m", "3"]),
        (None, ["mixing", "--system", "V", "--midd", "[2,1,3]"]),
        (None, ["conjugates", "--system", "V", "--rad", "2"]),
        (None, ["report", "--system", "V", "--experiment=diversity"]),
        (None, ["conjugates", "--system", "F", "--radius", "1", "--budget", "100"]),
        (None, ["fpf", "--system", "prod:Z3:id,inv", "--n", "0"]),
        (None, ["verify-axioms", "--system", "V", "--n", "0"]),
        (None, ["verify-axioms", "--system", "V", "--budget", "0"]),
        (None, ["probe", "pure", "--system", "V", "--n", "0"]),
        (None, ["conjugates", "--system", "V", "--radius", "0"]),
        (None, ["conjugates", "--system", "V", "--budget", "0"]),
        (None, ["normalizer", "--system", "V", "--budget", "0"]),
        (None, ["normalizer", "--system", "V", "--radius", "7", "--budget", "1"]),
        (None, ["normalizer", "--system", "V", "--radius", "0", "--budget", "1"]),
        (None, ["fpf", "--system", "prod:Z3:id,inv", "--m", "0"]),
        # one above the largest n and m whose trees stay within MAX_TREE_DEPTH
        (None, ["fpf", "--system", "prod:Z3:id,inv", "--n", "133"]),
        (None, ["fpf", "--system", "prod:Z3:id,inv", "--m", "399"]),
        (
            None,
            ["conjugates", "--system", "V", "--radius", "1",
             "--element", _left_comb_element(MAX_TREE_DEPTH + 1)],
        ),
        (None, ["verify-axioms", "--system", "V:1"]),
        (None, ["mixing", "--system", "T"]),
        (None, ["mixing", "--system", "V", "--middle", "[1,2,3]"]),
        (None, ["mixing", "--system", "V", "--leaf-word", "3", "--middle", "[2,1,3]"]),
        (None, ["mixing", "--system", "V", "--leaf-word", "x"]),
        (None, ["diversity", "--system", "prod:F2:id,swap", "--n", "2", "--budget", "0"]),
        (None, ["probe", "pure", "--system", "prod:F2:id,swap", "--budget", "0"]),
        # parse refusals of --element: groups (middles) and trees
        *(
            (None, ["conjugates", "--system", key, "--radius", "1", "--element", text])
            for key, text in BAD_ELEMENTS
        ),
        # errors argparse finds: a bad flag value, an unknown flag or choice, no command
        (None, ["conjugates", "--radius", "abc"]),
        (None, ["conjugates", "--system", "V", "--bogus", "1"]),
        (None, ["probe", "nonsense", "--system", "V"]),
        (None, ["nosuch"]),
        (None, []),
    ],
    ids=[
        "element-not-text", "doc-list", "params-list", "system-int",
        "experiment-list", "config-for-fpf-on-conjugates", "config-for-nonsense-on-conjugates",
        "bool-for-int", "unknown-param", "unknown-field",
        "out-int", "flag-m-on-conjugates",
        "flag-radius-on-diversity", "flag-budget-on-mixing",
        "abbreviated-flag-m-on-mixing", "abbreviated-flag-middle",
        "abbreviated-flag-radius", "flag-experiment-on-report",
        "budget-beyond-small-elements", "fpf-n-zero", "verify-axioms-n-zero",
        "verify-axioms-budget-zero",
        "probe-n-zero", "conjugates-radius-zero", "conjugates-budget-zero",
        "normalizer-budget-zero", "normalizer-truncated-ball",
        "normalizer-radius-zero", "fpf-m-zero", "fpf-n-past-depth-cap",
        "fpf-m-past-depth-cap", "element-deeper-than-cap",
        "verify-axioms-arity-one", "mixing-no-nontrivial-middle",
        "mixing-identity-middle", "mixing-leaf-word-out-of-range",
        "mixing-leaf-word-not-digits",
        *(f"element-{name}" for name in BAD_ELEMENTS.values()),
        "diversity-budget-zero", "probe-budget-zero",
        "flag-value-not-int", "unknown-flag", "unknown-property", "unknown-command",
        "no-command",
    ],
)
def test_malformed_input_exits_two_with_one_line(tmp_path, capsys, doc, argv):
    if doc is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv = argv + ["--config", str(cfg)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_element_at_the_depth_cap_completes(capsys):
    code, out, err = run_cli(
        capsys, "conjugates", "--system", "V", "--radius", "3",
        "--element", _left_comb_element(MAX_TREE_DEPTH),
    )
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["witnesses"] == [_left_comb_element(MAX_TREE_DEPTH)]
    assert len(report["series"]["element_0"]) == 3


@pytest.mark.parametrize(
    "argv, line",
    [
        (
            ["conjugates", "--system", "V", "--radius", "1", "--element", "[(..) ; [1,x] ; (..)]"],
            "bad permutation text '[1,x]'",
        ),
        (
            ["conjugates", "--system", "prod:Z3:id,id", "--radius", "1",
             "--element", "[(..) ; (1,x) ; (..)]"],
            "'x' is not a residue mod 3",
        ),
        (["mixing", "--system", "V", "--leaf-word", "x"], "leaf word 'x' is not a string of digits"),
    ],
)
def test_bad_entry_refusal_names_the_text(capsys, argv, line):
    assert run_cli(capsys, *argv) == (2, "", f"error: {line}\n")


@pytest.mark.parametrize(
    "argv, radius",
    [
        (["normalizer", "--system", "V", "--radius", "7", "--budget", "1"], 7),
        (["conjugates", "--system", "V:100000", "--radius", "2", "--budget", "1"], 2),
        # refused before sampling, which would build trees of 2 * 10^9 leaves
        (["conjugates", "--system", "V:1000000000", "--radius", "1", "--budget", "1"], 1),
        (["normalizer", "--system", "V:3", "--radius", "20", "--budget", "1"], 20),
    ],
    ids=["V-radius-7", "V:100000-radius-2", "V:1000000000-radius-1", "V:3-radius-20"],
)
def test_truncated_ball_names_the_one_cap_that_cut(capsys, argv, radius):
    assert run_cli(capsys, *argv) == (
        2,
        "",
        f"error: the F_d ball of radius {radius} passes the cap of {MAX_BALL_LEAVES} "
        "tree leaves; use a smaller radius\n",
    )


@pytest.mark.parametrize("system, radius", [("V:21", 2), ("V:41", 1)])
def test_small_balls_of_large_arity_run(capsys, system, radius):
    # 421 elements of trees with at most 41 leaves, and the identity alone
    code, out, err = run_cli(
        capsys, "conjugates", "--system", system, "--radius", str(radius), "--budget", "1"
    )
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["series"]["radii"] == list(range(1, radius + 1))


@pytest.mark.parametrize("name", ["conjugates", "wahp-orbit", "normalizer", "cantor-crosscheck"])
def test_radius_below_one_is_refused_before_any_ball(capsys, monkeypatch, name):
    def refuse(system, radius):
        raise AssertionError(f"built the ball of radius {radius}")

    monkeypatch.setattr(analysis, "enumerate_fd_ball", refuse)
    monkeypatch.setattr(analysis, "enumerate_system_ball", refuse)
    argv = [name, "--system", "V", "--radius", "0", "--budget", "1"]
    assert run_cli(capsys, *argv) == (2, "", "error: radius must be >= 1\n")


@pytest.mark.parametrize(
    "name, key, params",
    [
        ("verify-axioms", "V", {"n": 2}),
        ("probe", "V", {"property": "pure", "n": 2}),
        ("diversity", "V", {"n": 2}),
        ("conjugates", "V", {"radius": 1, "budget": 1}),
        ("normalizer", "V", {"radius": 1, "budget": 1}),
        ("wahp-orbit", "V", {"radius": 1, "budget": 1}),
        ("mixing", "psi:Z3:id,id", {}),
        ("fpf", "prod:Z3:id,inv", {"n": 2, "m": 3}),
        ("cantor-crosscheck", "V", {"radius": 1, "budget": 1}),
    ],
)
def test_a_direct_experiment_call_leaves_the_stamps_to_the_caller(name, key, params):
    # run() stamps experiment, system, seed and runtime_ms; an experiment
    # function called directly, fpf included, leaves them at their defaults
    report = EXPERIMENTS[name](make_system(key), 2, **params)
    assert (report.experiment, report.system, report.seed, report.runtime_ms) == ("", "", 0, 0)
    stamped = run(RunConfig(key, name, params, seed=2))
    assert (stamped.experiment, stamped.system, stamped.seed) == (name, key, 2)
    assert stamped.to_json(include_runtime=False) == dataclasses.replace(
        report, experiment=name, system=key, seed=2
    ).to_json(include_runtime=False)


def test_every_experiment_takes_system_seed_then_its_parameters_as_keywords():
    for name, fn in EXPERIMENTS.items():
        sig = inspect.signature(fn)
        positional = [p.name for p in sig.parameters.values() if p.kind is not p.KEYWORD_ONLY]
        assert positional == ["system", "seed"], name
        assert list(fn.__kwdefaults__) == list(sig.parameters)[2:], name
        assert set(fn.__kwdefaults__) <= set(PARAM_TYPES), name


@pytest.mark.parametrize(
    "name, key",
    [
        ("verify-axioms", "V"),
        ("probe", "V"),
        ("diversity", "V"),
        ("conjugates", "V"),
        ("normalizer", "V"),
        ("wahp-orbit", "V"),
        ("mixing", "psi:Z3:id,id"),
        ("fpf", "prod:Z3:id,inv"),
        ("cantor-crosscheck", "V"),
    ],
)
def test_run_with_no_params_equals_a_direct_call_with_no_keywords(name, key):
    # run() fills in nothing: the keyword defaults are the only defaults
    def outcome(call):
        try:
            report = call()
        except ValueError as exc:  # probe has no default property
            return f"error: {exc}"
        return dataclasses.replace(report, experiment="", system="", runtime_ms=0)

    direct = outcome(lambda: EXPERIMENTS[name](make_system(key), 0))
    assert outcome(lambda: run(RunConfig(key, name, {}))) == direct
    assert name != "probe" or direct.startswith("error: probe needs a property")


def _falling_counts(monkeypatch):
    # a count that falls with the radius breaks the growth series' monotonicity
    monkeypatch.setattr(analysis, "conjugate_count", lambda x, ball: 10 - ball.radius)


def _inverse_tables(monkeypatch):
    # x -> table(x^-1) reverses products, yet keeps order and inverses right
    table = cantor.from_tree_pair
    monkeypatch.setattr(cantor, "from_tree_pair", lambda x: table(x.inv()))


def _moving_points(monkeypatch):
    calls = iter(range(1, 10**6))
    monkeypatch.setattr(
        PrefixMap, "apply", lambda self, p: CantorWord((2,) * next(calls), (1,))
    )


def _images_missing(monkeypatch):
    monkeypatch.setattr(cloning, "in_all_images", lambda system, n, g: False)


def _powers_off_by_one(monkeypatch):
    closed_form = experiments.powers_closed_form
    monkeypatch.setattr(
        experiments,
        "powers_closed_form",
        lambda system, T, i, j, m: closed_form(system, T, i, j, m + (m > 1)),
    )


def _order_always_kept(monkeypatch):
    monkeypatch.setattr(cantor, "is_order_preserving", lambda f: True)


def _inverse_is_self(monkeypatch):
    monkeypatch.setattr(PrefixMap, "invert", lambda self: self)


def _conjugates_repeat(monkeypatch):
    monkeypatch.setattr(experiments, "fd_conjugates", lambda x, fs: [x for _ in fs])


def _everything_uniform(monkeypatch):
    monkeypatch.setattr(cloning, "property_counterexample", lambda *args: None)


def _unpatched(monkeypatch):
    pass


class _BlockTwistV(cloning.SymmetricSystem):
    """V whose clone also swaps the first two leaves of the cloned block.

    rho(clone_k(g)) then permutes leaves inside the cloned block, so the
    system is not fully compatible; no built-in system fails that probe.
    """

    def __init__(self):
        super().__init__("V")

    def clone(self, n, k, g):
        h = list(super().clone(n, k, g))
        h[k - 1], h[k] = h[k], h[k - 1]
        return tuple(h)


def _block_twist(monkeypatch):
    monkeypatch.setattr(cli, "make_system", lambda key: _BlockTwistV())


def _fpf_checks(**failed):
    checks = dict.fromkeys(
        ("premise_involution", "premise_fixed_point_free", "nondiversity_witnesses",
         "spine_powers_closed_form", "conjugates_pairwise_distinct", "non_uniform"),
        True,
    )
    return {"checks": checks | failed}


@pytest.mark.parametrize(
    "patch, argv, failed, witness",
    [
        (
            _falling_counts,
            ["conjugates", "--system", "V", "--radius", "2", "--budget", "1"],
            {},
            "[(.(..)) ; [3,1,2] ; (.(..))]",
        ),
        (
            _inverse_tables,
            ["cantor-crosscheck", "--system", "V", "--radius", "2", "--budget", "0"],
            {"order_preserving_iff_fd": True, "inverses_match": True},
            "[(..) ; [2,1] ; (..)] * [((..).) ; [1,2,3] ; (.(..))]",
        ),
        (
            _moving_points,
            ["cantor-crosscheck", "--system", "V", "--radius", "1", "--budget", "200"],
            {"pairs_checked": 50, "points_checked": 0},
            "[. ; [1] ; .] * [. ; [1] ; .]",
        ),
        (
            _order_always_kept,
            ["cantor-crosscheck", "--system", "V", "--radius", "1", "--budget", "0"],
            {"order_preserving_iff_fd": False, "inverses_match": True},
            "order_preserving_iff_fd fails at [(..) ; [2,1] ; (..)]",
        ),
        (
            # the swap at radius 1 is its own inverse, so the first miss has 3 leaves
            _inverse_is_self,
            ["cantor-crosscheck", "--system", "V", "--radius", "2", "--budget", "0"],
            {"order_preserving_iff_fd": True, "inverses_match": False},
            "inverses_match fails at [((..).) ; [1,2,3] ; (.(..))]",
        ),
        (
            _images_missing,
            ["fpf", "--system", "prod:Z3:id,inv"],
            _fpf_checks(nondiversity_witnesses=False),
            "missing at n=1: (1,2)",
        ),
        (
            _powers_off_by_one,
            ["fpf", "--system", "prod:Z3:id,inv"],
            _fpf_checks(spine_powers_closed_form=False),
            "spine_powers_closed_form fails at m=2",
        ),
        (
            _conjugates_repeat,
            ["fpf", "--system", "prod:Z3:id,inv"],
            _fpf_checks(conjugates_pairwise_distinct=False),
            "conjugates_pairwise_distinct fails at ell=1 and ell=2",
        ),
        (
            _everything_uniform,
            ["fpf", "--system", "prod:Z3:id,inv"],
            _fpf_checks(non_uniform=False),
            "non_uniform fails at n=3: uniform on (1,1,1), (2,2,2)",
        ),
        (
            # the transposition moves the last point
            _unpatched,
            ["probe", "slightly_pure", "--system", "V"],
            {"verdict_detail": "fails"},
            "{'n': 2, 'g': (2, 1), 'rho': (2, 1)}",
        ),
        (
            _block_twist,
            ["probe", "fully_compatible", "--system", "V"],
            {"verdict_detail": "fails"},
            "{'n': 1, 'g': (1,), 'k': 1, 'lhs': (2, 1), 'rhs': (1, 2)}",
        ),
    ],
    ids=[
        "growth-not-monotone", "crosscheck-table-mismatch", "crosscheck-point-mismatch",
        "crosscheck-order", "crosscheck-inverse", "fpf-missing-witness", "fpf-closed-form",
        "fpf-pairwise-distinct", "fpf-non-uniform", "probe-slightly-pure",
        "probe-fully-compatible",
    ],
)
def test_fail_verdict_exits_one_with_a_witness(
    capsys, monkeypatch, patch, argv, failed, witness
):
    # each failing check names its own witness, not only the passing checks'
    patch(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["verdict"] == "fail" and witness in report["witnesses"]
    assert report["series"] | failed == report["series"]


def test_truncated_ball_exits_two_naming_radius_and_cap(capsys):
    # the V ball of radius 7 could hold more than MAX_BALL_LEAVES tree leaves
    code, out, err = run_cli(
        capsys, "conjugates", "--system", "V", "--radius", "7", "--budget", "1"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "radius 7" in err and str(MAX_BALL_LEAVES) in err


def test_system_ball_refusal_names_radius_and_cap(capsys):
    assert run_cli(capsys, "cantor-crosscheck", "--system", "V", "--radius", "4") == (
        2,
        "",
        f"error: the system ball of radius 4 has more than {MAX_SYSTEM_BALL} elements; "
        "use a smaller radius\n",
    )


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
CONFIG_DOCS = JSON_VALUES | st.fixed_dictionaries(
    {},
    optional={
        "system": st.sampled_from(["V", "T", "prod:Z3:id,inv"]) | JSON_VALUES,
        "experiment": st.sampled_from(list(EXPERIMENTS)) | JSON_VALUES,
        "params": st.dictionaries(
            st.sampled_from(list(PARAM_TYPES)) | st.text(max_size=4),
            JSON_VALUES,
            max_size=4,
        )
        | JSON_VALUES,
        "seed": JSON_VALUES,
        "out": JSON_VALUES,
    },
)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(doc=CONFIG_DOCS, command=st.sampled_from(list(EXPERIMENTS) + ["report"]))
def test_config_loader_raises_only_config_error(tmp_path, doc, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    args = build_parser().parse_args([command, "--config", str(cfg)])
    try:
        _config_from_args(args).validate()
    except ConfigError:
        pass


SWEEP_SYSTEMS = [
    "V", "T", "prod:Z3:id,id", "prod:Z3:id,inv", "psi:F2:id,swap", "prod:Z1:id,id"
]


def _sweep_argv(name, system, value):
    """Every integer parameter of the experiment set to value."""
    argv = [name, "--system", system]
    if name == "probe":
        argv.append("pure")
    for key in EXPERIMENTS[name].__kwdefaults__:
        if PARAM_TYPES[key] is int:
            argv += ["--" + key, str(value)]
    return argv


@pytest.mark.parametrize(
    "argv",
    [
        _sweep_argv(name, system, value)
        for name, fn in EXPERIMENTS.items()
        for system in SWEEP_SYSTEMS
        for value in (0, 1, 2)
        if value == 0 or any(PARAM_TYPES[k] is int for k in fn.__kwdefaults__)
    ],
    ids=" ".join,
)
def test_experiment_sweep_exit_codes_keep_their_contract(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == ""
        report = json.loads(out)
        if code == 1:
            assert report["witnesses"], report
