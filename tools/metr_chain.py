"""The north star's end-to-end chain at METR-LA shape: simulate a network,
then train and evaluate each model kind on it.

    python3 tools/metr_chain.py [--nodes 207] [--steps 34272] [--n 10]

The commands run the checkout's own package (src/) as fresh `python3 -m
graphmarkov` processes, one at a time, in a temporary directory that is
removed afterwards:

    simulate --nodes 207 --steps 34272 --seed 7
    train --model {gmn,sgmn} --n 10 --missing-rate 0.1
    eval --residuals hour                                 (each trained model)

GRAPHMARKOV_THREADS is passed through as it is set, and printed first. For
each command the script prints its wall seconds and its peak RSS (the
child's own ru_maxrss, from os.wait4); for each train, the epochs run and
the seconds of each epoch as train logs them; for each eval, the model's
test MAE and the carry-forward MAE as metrics.csv writes them. It ends with one JSON line of the same record, and exits 1 at
the first command that fails. The shape flags exist so that a smoke test
can run the chain in seconds; a full run takes about a minute on two cores.
"""

import argparse
import csv
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
MODELS = ("gmn", "sgmn")


def commands(work: Path, nodes: int, steps: int, n: int) -> list:
    """(label, model, argv) of each command, in order."""
    sim = work / "simulate"
    chain = [("simulate", None, ["simulate", "--nodes", nodes, "--steps", steps, "--seed", SEED,
                                 "--out", sim])]
    for model in MODELS:
        out = work / model
        chain += [
            ("train", model, ["train", "--model", model, "--n", n, "--missing-rate", "0.1",
                              "--speed", sim / "speed.csv", "--adjacency", sim / "adjacency.csv",
                              "--out", out]),
            ("eval", model, ["eval", "--checkpoint", out / "model.ckpt", "--residuals", "hour",
                             "--out", out]),
        ]
    return [(label, model, [str(a) for a in argv]) for label, model, argv in chain]


def run(argv: list, env: dict, work: Path) -> tuple:
    """Run one command as a fresh process; returns (exit code, wall seconds,
    peak RSS in MB). Its stdout goes to work/stdout.txt and its stderr to
    work/stderr.txt."""
    started = time.perf_counter()
    with open(work / "stdout.txt", "wb") as out, open(work / "stderr.txt", "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "graphmarkov", *argv], env=env,
                                stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024  # Linux reports KiB


def epoch_seconds(log: Path) -> list:
    """The seconds at the end of each `epoch` line train printed."""
    return [float(line.rsplit(None, 1)[-1].rstrip("s"))
            for line in log.read_text().splitlines() if line.startswith("epoch ")]


def maes(metrics: Path) -> dict:
    """The mae cell of each metrics.csv row, as written."""
    with open(metrics, newline="") as fh:
        return {row["which"]: row["mae"] for row in csv.DictReader(fh)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--nodes", type=int, default=207)
    parser.add_argument("--steps", type=int, default=34272)
    parser.add_argument("--n", type=int, default=10, help="history depth")
    args = parser.parse_args(argv)

    threads = os.environ.get("GRAPHMARKOV_THREADS")
    print(f"GRAPHMARKOV_THREADS={threads if threads is not None else '(unset)'}", flush=True)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    record = {"threads": threads, "nodes": args.nodes, "steps": args.steps, "n": args.n,
              "commands": []}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for label, model, argv in commands(work, args.nodes, args.steps, args.n):
            code, seconds, rss = run(argv, env, work)
            entry = {"command": label, "model": model, "exit": code,
                     "seconds": round(seconds, 3), "peak_rss_mb": round(rss, 1)}
            record["commands"].append(entry)
            line = f"{label:8} {model or '':4} {seconds:8.2f} s {rss:8.1f} MB"
            if code:
                print(f"{line}  exit {code}", flush=True)
                print((work / "stderr.txt").read_text().rstrip(), file=sys.stderr)
                break
            if label == "train":
                entry["epochs"] = len((work / model / "history.csv").read_text().splitlines()) - 1
                entry["epoch_seconds"] = epoch_seconds(work / "stdout.txt")
                line += f"  {entry['epochs']} epochs"
            if label == "eval":
                found = maes(work / model / "metrics.csv")
                entry["mae"], entry["carry_forward_mae"] = found["model"], found["baseline"]
                line += f"  MAE {entry['mae']}  carry-forward MAE {entry['carry_forward_mae']}"
            print(line, flush=True)
    record["seconds"] = round(sum(c["seconds"] for c in record["commands"]), 3)
    failed = any(c["exit"] for c in record["commands"])
    print(json.dumps(record))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
