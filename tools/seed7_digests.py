"""Seed-7 digest check: rerun a fixed set of commands on the benchmark's
seed-7 inputs and compare the sha256 of each of their 14 output files with
the committed list in seed7_digests.txt next to this script.

    python3 tools/seed7_digests.py

The commands run the checkout's own package (src/) as `python3 -m
graphmarkov`, one at a time, with GRAPHMARKOV_THREADS=2: the BLAS thread
count sets the summation order in training, and the list was recorded
with 2 threads. The script prints that setting first.

    train --model {gmn,sgmn} --n 10 --missing-rate 0.1   (train-shaped set)
    eval --residuals hour                                 (each trained model)
    influence --k 2                                       (each trained model)
    eval ... --missing-rate 0.1 --seed 7 --split 6:2:2 --n 10 --residuals hour
                                                          (METR-shaped set)
    simulate --nodes 207 --steps 34272 --seed 7

The simulate speed.csv is listed as written with its readings rounded to
4 decimals (`write_speed_csv(..., decimals=4)`), a nonzero reading that
would round to zero as 0.0001, not as the 17-digit repr of each double.

The train-shaped evals read the series their train run saved (series.npz).
After the set, the script deletes gmn/series.npz and runs the gmn eval
again into gmn-csv/, which parses the speed CSV; its metrics.csv and
residuals_hour.csv must match the listed gmn/ digests too.

The inputs come from perfbench/inputs.py and are cached under .seed7/ at
the repository root, apart from the benchmark's own cache, whose eviction
would otherwise drop them. A run takes about 20 s on two cores, input
generation included. Exits 1 when any digest differs from the list, and
prints each differing file as a line of the list, which a change that
alters outputs on purpose puts in the list.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".seed7"
DIGESTS = Path(__file__).resolve().parent / "seed7_digests.txt"
SEED = 7

sys.path.insert(0, str(ROOT / "perfbench"))
import inputs  # noqa: E402


def commands(train: Path, metr: Path, runs: Path) -> list:
    """The argv of each command, in order."""
    argvs = []
    for model in ("gmn", "sgmn"):
        out = runs / model
        argvs += [
            ["train", "--model", model, "--n", "10", "--missing-rate", "0.1",
             "--speed", train / "speed.csv", "--adjacency", train / "adjacency.csv", "--out", out],
            ["eval", "--checkpoint", out / "model.ckpt", "--residuals", "hour", "--out", out],
            ["influence", "--checkpoint", out / "model.ckpt", "--adjacency", train / "adjacency.csv",
             "--k", "2", "--out", out],
        ]
    argvs += [
        ["eval", "--checkpoint", metr / "model.ckpt", "--speed", metr / "speed.csv",
         "--adjacency", metr / "adjacency.csv", "--missing-rate", "0.1", "--seed", str(SEED),
         "--split", "6:2:2", "--n", "10", "--residuals", "hour", "--out", runs / "metr"],
        ["simulate", "--nodes", "207", "--steps", "34272", "--seed", str(SEED),
         "--out", runs / "simulate"],
    ]
    return [[str(a) for a in argv] for argv in argvs]


OUTPUTS = [
    f"{model}/{name}"
    for model in ("gmn", "sgmn")
    for name in ("model.ckpt", "history.csv", "metrics.csv", "residuals_hour.csv", "influence.csv")
] + ["metr/metrics.csv", "metr/residuals_hour.csv", "simulate/speed.csv", "simulate/adjacency.csv"]
# The gmn eval outputs that the run which parses the speed CSV must repeat.
CSV_OUTPUTS = ("metrics.csv", "residuals_hour.csv")


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_digests() -> dict:
    """The committed list, in `sha256sum` format: digest, two spaces, name."""
    digests = {}
    for line in DIGESTS.read_text().splitlines():
        digest, _, name = line.partition("  ")
        digests[name] = digest
    return digests


def main() -> int:
    train, _ = inputs.inputs_for(WORK / "inputs", "train", SEED, inputs.FULL)
    metr, _ = inputs.inputs_for(WORK / "inputs", "metr", SEED, inputs.FULL)
    runs = WORK / "runs"
    shutil.rmtree(runs, ignore_errors=True)
    # The setting under which seed7_digests.txt was recorded.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "GRAPHMARKOV_THREADS": "2"}
    print(f"GRAPHMARKOV_THREADS={env['GRAPHMARKOV_THREADS']}", flush=True)

    def graphmarkov(argv):
        print("graphmarkov", " ".join(argv), flush=True)
        subprocess.run([sys.executable, "-m", "graphmarkov", *argv], env=env, check=True,
                       stdout=subprocess.DEVNULL)

    for argv in commands(train, metr, runs):
        graphmarkov(argv)
    (runs / "gmn" / "series.npz").unlink()
    graphmarkov(["eval", "--checkpoint", str(runs / "gmn" / "model.ckpt"), "--residuals", "hour",
                 "--out", str(runs / "gmn-csv")])

    expected = read_digests()
    actual = {name: sha256(runs / name) for name in OUTPUTS}
    wrong = [name for name in OUTPUTS if actual[name] != expected.get(name)]
    for name in wrong:
        print(f"{actual[name]}  {name}")
    print(f"{len(OUTPUTS) - len(wrong)} of {len(OUTPUTS)} digests match")
    parsed = [name for name in CSV_OUTPUTS if sha256(runs / "gmn-csv" / name) != expected[f"gmn/{name}"]]
    for name in parsed:
        print(f"gmn-csv/{name} differs from the listed gmn/{name}")
    return 1 if wrong or parsed else 0


if __name__ == "__main__":
    sys.exit(main())
