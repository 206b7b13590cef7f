"""tools/metr_chain.py runs the simulate → train → eval chain at a small
shape and records every command."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "metr_chain.py"


def chain(tmp_path, *flags, threads="1"):
    env = {**os.environ, "GRAPHMARKOV_THREADS": threads}
    done = subprocess.run(
        [sys.executable, str(TOOL), *flags],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    lines = done.stdout.splitlines()
    return done, lines, json.loads(lines[-1])


def test_small_chain_records_each_command(tmp_path):
    done, lines, record = chain(tmp_path, "--nodes", "6", "--steps", "300", "--n", "2")
    assert done.returncode == 0, done.stderr
    assert lines[0] == "GRAPHMARKOV_THREADS=1"
    assert record["threads"] == "1" and (record["nodes"], record["steps"], record["n"]) == (6, 300, 2)
    commands = record["commands"]
    assert [(c["command"], c["model"]) for c in commands] == [
        ("simulate", None), ("train", "gmn"), ("eval", "gmn"), ("train", "sgmn"), ("eval", "sgmn"),
    ]
    assert all(c["exit"] == 0 and c["seconds"] > 0 and c["peak_rss_mb"] > 0 for c in commands)
    for c in commands:
        if c["command"] == "train":
            assert c["epochs"] >= 1 and len(c["epoch_seconds"]) == c["epochs"]
            assert all(isinstance(s, float) and s >= 0 for s in c["epoch_seconds"])
        else:
            assert "epoch_seconds" not in c
    for c in commands:
        if c["command"] == "eval":
            assert float(c["mae"]) > 0 and float(c["carry_forward_mae"]) > 0
            assert f"MAE {c['mae']}  carry-forward MAE {c['carry_forward_mae']}" in done.stdout
    assert record["seconds"] == round(sum(c["seconds"] for c in commands), 3)
    assert list(tmp_path.iterdir()) == []


def test_stops_at_the_first_failing_command(tmp_path):
    done, _, record = chain(tmp_path, "--nodes", "6", "--steps", "1")
    assert done.returncode == 1
    assert [(c["command"], c["exit"]) for c in record["commands"]] == [("simulate", 1)]
    assert "need at least 2 steps" in done.stderr
