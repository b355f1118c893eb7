import importlib.util
import json
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench", Path(__file__).resolve().parent.parent / "tools" / "bench.py"
)
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)


def test_summarize_counts_wins_and_the_all_below_test():
    lower = {"name": "job_s", "better": "lower", "bound": 0.15}
    row = bench.summarize(lower, [1.0, 1.1, 1.2, 1.3], [0.8, 0.9, 1.25, 0.7]).split()
    # medians 1.15 -> 0.85; B won 3 of 4 pairs, and 1.25 is not below every run of A
    assert row[0] == "job_s" and row[1] == "1.1500" and row[3] == "0.8500"
    assert row[5:] == ["0.739", "3/4", "no", "0.15"]
    row = bench.summarize(lower, [1.0, 1.1], [0.8, 0.9]).split()
    assert row[-3:] == ["2/2", "yes", "0.15"]
    higher = {"name": "ratio", "better": "higher"}
    assert bench.summarize(higher, [1.0], [2.0]).split()[-2:] == ["1/1", "yes"]


def fake_compare(monkeypatch, failed_a, failed_b, argv):
    """Run compare on stub revisions; returns (exit status, run lengths used)."""
    spec = {"run_seconds": 7, "workloads": [{"name": "w"}],
            "end_to_end": [{"name": "job_s", "better": "lower", "bound": 0.15}]}

    def export(rev, dest):
        Path(dest).mkdir()
        (Path(dest) / "BENCHMARK.json").write_text(json.dumps(spec))
        return dest

    seconds = []

    def run_once(tree, workload, seed, s):
        seconds.append(s)
        failed = failed_b if tree.endswith("b") else failed_a
        return {"correct": True, "failed": failed, "metrics": {"job_s": {"value": 1.0}}}

    monkeypatch.setattr(bench, "export", export)
    monkeypatch.setattr(bench, "run_once", run_once)
    return bench.main(["compare", "A", "B", "--pairs", "2", *argv]), seconds


def test_compare_runs_the_benchmark_length_and_refuses_more_failures(monkeypatch, capsys):
    assert fake_compare(monkeypatch, 0, 0, []) == (0, [7, 7, 7, 7])
    assert fake_compare(monkeypatch, 0, 0, ["--seconds", "2"]) == (0, [2.0] * 4)
    assert fake_compare(monkeypatch, 1, 1, [])[0] == 0
    assert fake_compare(monkeypatch, 0, 1, [])[0] == 1
    assert "failed A 0 B 2" in capsys.readouterr().out
