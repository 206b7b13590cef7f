"""Speed CSV ingest on four METR-shaped formats, against the exact reader.

    python3 tools/ingest_formats.py [--seed N]

Writes four 207 x 34,272 speed files into a temporary directory:

    fixed16  16-digit cells (dd.dddddddddddddd), 5% empty, LF line ends,
             as perfbench/inputs.py writes its inputs
    sim4     the `simulate` rollout, each reading rounded to 4 decimals,
             CRLF line ends, as `graphmarkov simulate` writes it
    repr     the same rollout as the shortest repr of each double
             (write_speed_csv without decimals), most cells 17 digits
    mph3     the fixed16 speeds rounded to 3 decimals, as METR-LA exports
             read (64.375)

Each file is read by two fresh processes that run the checkout's own
package (src/), and each prints a line. The first times ingest_csv on the
file and reads its peak resident memory (VmHWM) right after. It then times
a read in which the piece parser turns every piece down, so that the csv
module reads every body row (the exact reader), and checks that the values,
mask and timestamps are the same bytes. The second process reads the file
through a pipe that `cat` fills, and prints its time and VmHWM; it then
checks its bytes against ingest_csv on the file. Exits 1 when any differs.
GRAPHMARKOV_THREADS is passed on as set.
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from graphmarkov import cli, data  # noqa: E402

SENSORS, STEPS = 207, 34272


def write_formats(directory: Path, seed: int) -> list:
    """The four files, written into directory."""
    rng = np.random.default_rng(seed)
    speeds, observed = inputs.traffic_series(rng, inputs.road_graph(rng, SENSORS, False), STEPS)
    inputs.write_speed_csv(directory / "fixed16.csv", speeds, observed)
    graph = cli.random_network(SENSORS, seed)
    spec = cli.random_transition(graph, seed, gamma=0.9, noise_std=0.01)
    rollout = cli.simulate_gmp(graph, spec, steps=STEPS, seed=seed + 1)
    data.write_speed_csv(directory / "sim4.csv", rollout, decimals=4)
    data.write_speed_csv(directory / "repr.csv", rollout)
    mph = data.StateSeries(values=speeds * observed, mask=observed, timestamps=rollout.timestamps)
    data.write_speed_csv(directory / "mph3.csv", mph, decimals=3)
    return [directory / f"{name}.csv" for name in ("fixed16", "sim4", "repr", "mph3")]


def vm_hwm_mb() -> float:
    with open("/proc/self/status") as fh:
        line = next(line for line in fh if line.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024


def turn_down(*args):
    raise ValueError("turned down")


def through_pipe(path: str):
    """ingest_csv of path's bytes, which `cat` writes into a pipe."""
    with subprocess.Popen(["cat", path], stdout=subprocess.PIPE) as cat:
        return data.ingest_csv(f"/dev/fd/{cat.stdout.fileno()}")


def measure(path: str, pipe: bool) -> int:
    """One format, in this process: the line main prints."""
    start = time.perf_counter()
    series = through_pipe(path) if pipe else data.ingest_csv(path)
    seconds = time.perf_counter() - start
    peak = vm_hwm_mb()
    start = time.perf_counter()
    if not pipe:
        data._read_piece = turn_down  # the csv module reads every body row
    other = data.ingest_csv(path)
    other_seconds = time.perf_counter() - start
    same = all(
        getattr(series, name).tobytes() == getattr(other, name).tobytes()
        for name in ("values", "mask", "timestamps")
    )
    size = os.path.getsize(path) / 1e6
    print(
        f"{Path(path).stem:8s} {size:6.1f} MB  {'pipe' if pipe else 'file'} {seconds:6.3f} s  "
        f"VmHWM {peak:6.1f} MB  {'the file' if pipe else 'the exact reader'} {other_seconds:6.3f} s  "
        f"{'bit-identical' if same else 'DIFFERS'}",
        flush=True,
    )
    return 0 if same else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--measure", help=argparse.SUPPRESS)
    parser.add_argument("--pipe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        return measure(args.measure, args.pipe)
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_formats(Path(tmp), args.seed)
        codes = [
            subprocess.run([sys.executable, __file__, "--measure", str(path), *pipe]).returncode
            for path in paths
            for pipe in ([], ["--pipe"])
        ]
    return 1 if any(codes) else 0


if __name__ == "__main__":
    sys.exit(main())
