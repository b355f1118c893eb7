import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cloning_systems.analysis import DEFAULT_MAX_BALL
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


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_contract_for_every_subcommand(capsys):
    parser = build_parser()
    for name in list(EXPERIMENTS) + ["report"]:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([name, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--system", "--seed", "--out", "--budget"):
            assert flag in out


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


def test_probe_needs_property(capsys):
    code, _, err = run_cli(capsys, "probe", "--system", "V")
    assert code == 2
    assert "property" in err


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


def test_fpf_requires_binary_product_system(capsys):
    code, _, err = run_cli(capsys, "fpf", "--system", "V")
    assert code == 2
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


def test_report_needs_experiment(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "V"}))
    code, _, err = run_cli(capsys, "report", "--config", str(cfg))
    assert code == 2
    assert "experiment" in err


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


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(system="V", experiment="nope").validate()
    with pytest.raises(ConfigError):
        RunConfig(system="V", experiment="probe", params={"n": -1}).validate()
    with pytest.raises(ConfigError):
        RunConfig(system="V", experiment="probe", seed="x").validate()


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


@pytest.mark.parametrize(
    "doc, argv",
    [
        ({"params": {"elements": [1, 2]}}, ["conjugates", "--system", "V"]),
        ([1], ["conjugates", "--system", "V"]),
        ({"params": [1]}, ["conjugates", "--system", "V"]),
        ({"system": 3}, ["conjugates"]),
        ({"experiment": ["x"], "system": "V"}, ["report"]),
        ({"params": {"radius": True}}, ["conjugates", "--system", "V"]),
        ({"params": {"nn": 3}}, ["conjugates", "--system", "V"]),
        ({"sed": 3}, ["conjugates", "--system", "V"]),
        ({"out": 3}, ["conjugates", "--system", "V"]),
        (None, ["conjugates", "--system", "V", "--m", "3"]),
        (None, ["diversity", "--system", "V", "--radius", "2"]),
        (None, ["mixing", "--system", "V", "--budget", "2"]),
        (None, ["conjugates", "--system", "F", "--radius", "1", "--budget", "100"]),
        (None, ["fpf", "--system", "prod:Z3:id,inv", "--n", "0"]),
        (None, ["verify-axioms", "--system", "V", "--n", "0"]),
        (None, ["probe", "pure", "--system", "V", "--n", "0"]),
        (None, ["conjugates", "--system", "V", "--radius", "0"]),
        (None, ["conjugates", "--system", "V", "--budget", "0"]),
        (None, ["normalizer", "--system", "V", "--budget", "0"]),
        (None, ["normalizer", "--system", "V", "--radius", "7", "--budget", "1"]),
        (None, ["normalizer", "--system", "V", "--radius", "0", "--budget", "1"]),
        (None, ["fpf", "--system", "prod:Z3:id,inv", "--m", "0"]),
        (
            None,
            ["conjugates", "--system", "V", "--radius", "1",
             "--element", _left_comb_element(MAX_TREE_DEPTH + 1)],
        ),
        (None, ["verify-axioms", "--system", "V:1"]),
        (None, ["mixing", "--system", "T"]),
        (None, ["mixing", "--system", "V", "--middle", "[1,2,3]"]),
    ],
    ids=[
        "element-not-text", "doc-list", "params-list", "system-int",
        "experiment-list", "bool-for-int", "unknown-param", "unknown-field",
        "out-int", "flag-m-on-conjugates",
        "flag-radius-on-diversity", "flag-budget-on-mixing",
        "budget-beyond-small-elements", "fpf-n-zero", "verify-axioms-n-zero",
        "probe-n-zero", "conjugates-radius-zero", "conjugates-budget-zero",
        "normalizer-budget-zero", "normalizer-truncated-ball",
        "normalizer-radius-zero", "fpf-m-zero", "element-deeper-than-cap",
        "verify-axioms-arity-one", "mixing-no-nontrivial-middle",
        "mixing-identity-middle",
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


def test_truncated_ball_exits_two_naming_radius_and_cap(capsys):
    # the V ball of radius 7 passes DEFAULT_MAX_BALL elements
    code, out, err = run_cli(
        capsys, "conjugates", "--system", "V", "--radius", "7", "--budget", "1"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "radius 7" in err and str(DEFAULT_MAX_BALL) in err


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
    for key in EXPERIMENTS[name][0]:
        if PARAM_TYPES[key] is int:
            argv += ["--" + key, str(value)]
    return argv


@pytest.mark.parametrize(
    "argv",
    [
        _sweep_argv(name, system, value)
        for name, (defaults, _) in EXPERIMENTS.items()
        for system in SWEEP_SYSTEMS
        for value in (0, 1, 2)
        if value == 0 or any(PARAM_TYPES[k] is int for k in defaults)
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
