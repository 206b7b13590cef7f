"""The demo scripts run to completion against the package in this tree."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("train_and_evaluate.py", "simulate_a_network.py", "weight_analysis.py")


@pytest.mark.parametrize("script", DEMOS)
def test_demo_runs(script, tmp_path):
    """Each demo writes only under its working directory's demo_output/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
    assert {p.name for p in tmp_path.iterdir()} <= {"demo_output"}


@pytest.mark.skipif(shutil.which("bash") is None, reason="needs bash")
def test_cli_workflow_runs(tmp_path):
    """The shell demo runs all four subcommands, through the interpreter
    running the tests, and writes only under demo_output/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PATH"] = os.pathsep.join(filter(None, [str(Path(sys.executable).parent), env.get("PATH")]))
    done = subprocess.run(
        ["bash", str(ROOT / "demos" / "cli_workflow.sh")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "== influence" in done.stdout
    assert {p.name for p in tmp_path.iterdir()} <= {"demo_output"}
