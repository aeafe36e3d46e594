"""The benchmark's own checks, at tiny sizes through the command's code path.

    PYTHONPATH=src:. python -m pytest benchmarks/e2e
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from benchmarks.e2e import run
from benchmarks.e2e.tracing import SpanRecorder

SCALE = "0.01"
SERVING = ("nginx-blocking-bastion", "nginx-c10k-cache", "sqlite-fs-bastion")


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


def _result(capsys, *argv):
    code = run.main(["--seed", "8", "--seconds", "0", "--scale", SCALE, *argv])
    out = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(out[-1])


def _assert_metrics(result, wanted):
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))


@pytest.mark.parametrize("workload", SERVING + ("fuzz-differential",))
def test_end_to_end_metrics_emitted_with_units(capsys, spec, workload):
    code, result = _result(capsys, "--workload", workload, "--trace", "0")
    assert code == 0 and result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    _assert_metrics(result, spec["end_to_end"])
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", SERVING + ("fuzz-differential",))
def test_traced_run_reports_every_layer_metric(capsys, spec, workload):
    code, result = _result(capsys, "--workload", workload, "--trace", "1")
    assert code == 0 and result["correct"]
    _assert_metrics(result, spec["per_layer"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert "trace.spans_dropped" in metrics
    # self times of the layer spans add up to the traced run time
    assert metrics["trace.unattributed_share"] <= 0.05


def test_self_times_add_up_and_overflow_is_counted():
    ticks = iter(range(0, 1000, 10))
    recorder = SpanRecorder(limit=2, clock=lambda: next(ticks))
    leaf = recorder.wrap(lambda: None, "leaf")

    def two_leaves():
        leaf()
        leaf()

    recorder.wrap(recorder.wrap(two_leaves, "mid"), "run")()
    total = recorder.inclusive_s("run")
    assert total == pytest.approx(recorder.self_s("run", "mid", "leaf"))
    assert recorder.calls("leaf") == 2
    assert len(recorder.spans) == 2 and recorder.dropped == 2


def test_round_timeout_fails_the_run_and_names_the_seed(capsys, monkeypatch):
    monkeypatch.setattr(run, "ROUND_TIMEOUT_S", 0.001)
    code = run.main(["--workload", "fuzz-differential", "--seed", "5", "--scale", SCALE])
    captured = capsys.readouterr()
    assert code != 0
    assert "seed 5" in captured.err
    assert json.loads(captured.out.strip().splitlines()[-1])["correct"] is False


def test_fails_without_the_program_sources(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(root, "benchmarks", "e2e"), tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fuzz-differential",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
