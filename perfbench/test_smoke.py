"""Tests of the benchmark itself, on tiny shapes (seconds, not minutes).

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_reports_every_declared_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if trace:
        assert 0 < result["metrics"]["trace.coverage"]["value"] <= 1
    else:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_missing_package_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "train-sgmn", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture
def los_angeles_time(monkeypatch):
    monkeypatch.setenv("TZ", "America/Los_Angeles")
    time.tzset()
    yield
    monkeypatch.undo()
    time.tzset()


def test_simulated_stamps_read_as_utc_across_a_dst_change(tmp_path, los_angeles_time):
    # US daylight saving time began on 1970-04-26, inside the simulated
    # series, which starts at epoch 0.
    rows = [f"1970-04-26T{hour:02d}:{minute:02d}:00,0.5"
            for hour in range(0, 5) for minute in range(0, 60, 5)]
    (tmp_path / "speed.csv").write_text("timestamp,sensor_0\n" + "\n".join(rows) + "\n")
    stamps, values = checks.read_simulated_speed(tmp_path / "speed.csv", 1)
    assert values.shape == (len(rows), 1)
    assert set(map(int, (stamps[1:] - stamps[:-1]))) == {checks.STEP_SECONDS}


def test_tracer_skips_a_missing_name():
    tracer = tracing.Tracer()
    tracer.install([("graphmarkov.cli", "no_such_function", "cli.gone"),
                    ("graphmarkov.no_such_module", "f", "gone.f")])
    assert tracer.absent == ["graphmarkov.cli.no_such_function", "graphmarkov.no_such_module.f"]


def test_tracer_records_nesting_and_counts():
    tracer = tracing.Tracer()

    def outer():
        return inner()

    def inner():
        return 1

    outer = tracer._wrap(outer, "a.outer")
    inner = tracer._wrap(inner, "b.inner")
    assert outer() == 1
    (name_a, start_a, end_a, parent_a), (name_b, start_b, end_b, parent_b) = tracer.spans
    assert (name_a, parent_a, name_b, parent_b) == ("a.outer", -1, "b.inner", 0)
    assert start_a <= start_b <= end_b <= end_a
