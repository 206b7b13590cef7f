"""Seeded input generation for the benchmark.

Every file the package under test reads is written here, with numpy and
byte-level CSV code of the benchmark's own, so a change to the package can
never change its own inputs. Generated sets are cached per (input kind,
seed) under the work directory; generation time is never measured.
"""

import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

STEP_SECONDS = 300
START = np.datetime64("2012-03-01T00:00:00", "s")  # METR-LA's first reading
GAMMA = 0.9
NOISE = 0.01
OUTAGE_RATE = 0.05
MPH_LOW, MPH_SPAN = 10.0, 60.0
KNN = 5
DIGITS = 16  # two before the point, fourteen after
CSV_BLOCK = 2048
CACHE_KEEP = 3


@dataclass(frozen=True)
class Shape:
    """Input sizes. `ring` swaps the k-nearest-neighbour road graph for the
    cycle graph of the package's acceptance checks."""

    sensors: int
    train_steps: int
    metr_steps: int
    history: int
    ring: bool


FULL = Shape(sensors=207, train_steps=8640, metr_steps=34272, history=10, ring=False)
SMOKE = Shape(sensors=10, train_steps=400, metr_steps=600, history=10, ring=True)


def road_graph(rng, sensors: int, ring: bool) -> np.ndarray:
    """Binary symmetric adjacency with a zero diagonal. The road-like graph
    joins each random planar point to its KNN nearest neighbours, which
    connects about 3% of pairs at 207 sensors, as METR-LA's adjacency does."""
    adjacency = np.zeros((sensors, sensors))
    if ring:
        idx = np.arange(sensors)
        adjacency[idx, (idx + 1) % sensors] = 1.0
    else:
        points = rng.random((sensors, 2))
        dist = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
        np.fill_diagonal(dist, np.inf)
        nearest = np.argsort(dist, axis=1)[:, :KNN]
        adjacency[np.repeat(np.arange(sensors), KNN), nearest.ravel()] = 1.0
    return np.maximum(adjacency, adjacency.T)


def hop_supports(adjacency: np.ndarray, n: int) -> list:
    """Binary supports of the first n powers of adjacency + identity."""
    step = adjacency + np.eye(adjacency.shape[0])
    reach = step.copy()
    supports = []
    for _ in range(n):
        supports.append(reach > 0)
        reach = ((reach @ step) > 0).astype(np.float64)
    return supports


def traffic_series(rng, adjacency: np.ndarray, steps: int) -> tuple:
    """A damped, graph-supported, row-stochastic process in mph with native
    outages.

    x[t+1] = clip(GAMMA * P x[t] + noise, 0, 1), with P drawn row-stochastic
    on adjacency + identity and x[0] uniform, as the package's own simulator
    rolls it. Readings are mapped to [MPH_LOW, MPH_LOW + MPH_SPAN] mph, so
    none is a literal zero. Returns (speeds, observed) as T x S arrays.
    """
    sensors = adjacency.shape[0]
    raw = rng.random((sensors, sensors)) * (adjacency + np.eye(sensors))
    transition = GAMMA * raw / raw.sum(axis=1, keepdims=True)
    noise = rng.normal(0.0, NOISE, size=(steps, sensors))
    x = np.empty((steps, sensors))
    x[0] = rng.random(sensors)
    for t in range(steps - 1):
        x[t + 1] = np.clip(transition @ x[t] + noise[t + 1], 0.0, 1.0)
    speeds = MPH_LOW + MPH_SPAN * x
    observed = rng.random((steps, sensors)) >= OUTAGE_RATE
    return speeds, observed


def write_speed_csv(path: Path, speeds: np.ndarray, observed: np.ndarray) -> None:
    """Header row, ISO-8601 time column, outages as empty cells, and values
    as dd.dddddddddddddd: about as many characters as a float's repr, so the
    METR-LA-shaped file is ~121 MB like the package's own writer produces.

    Every cell has the same width, so each block of rows is built as one
    byte array and the empty cells are cut out with a mask."""
    steps, sensors = speeds.shape
    if speeds.min() < 10.0 or speeds.max() >= 99.5:
        raise ValueError("speeds must lie in [10, 99.5) mph for the fixed-width writer")
    header = "timestamp," + ",".join(f"sensor_{s}" for s in range(sensors)) + "\n"
    powers = 10 ** np.arange(DIGITS - 1, -1, -1, dtype=np.int64)
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for lo in range(0, steps, CSV_BLOCK):
            hi = min(lo + CSV_BLOCK, steps)
            rows = hi - lo
            stamps = np.datetime_as_string(
                START + np.arange(lo, hi) * np.timedelta64(STEP_SECONDS, "s")
            ).astype("S19").view(np.uint8).reshape(rows, 19)
            fixed = np.rint(speeds[lo:hi] * 10.0 ** (DIGITS - 2)).astype(np.int64)
            digits = (fixed[:, :, None] // powers % 10).astype(np.uint8) + ord("0")
            cells = np.empty((rows, sensors, DIGITS + 2), dtype=np.uint8)
            cells[:, :, 0] = ord(",")
            cells[:, :, 1:3] = digits[:, :, :2]
            cells[:, :, 3] = ord(".")
            cells[:, :, 4:] = digits[:, :, 2:]
            keep = np.ones(cells.shape, dtype=bool)
            keep[:, :, 1:] = observed[lo:hi, :, None]
            block = np.concatenate(
                [stamps, cells.reshape(rows, -1), np.full((rows, 1), ord("\n"), np.uint8)], axis=1
            )
            block_keep = np.concatenate(
                [np.ones((rows, 19), bool), keep.reshape(rows, -1), np.ones((rows, 1), bool)],
                axis=1,
            )
            fh.write(block[block_keep].tobytes())


def write_adjacency_csv(path: Path, adjacency: np.ndarray) -> None:
    with open(path, "w") as fh:
        for row in adjacency.astype(np.int64):
            fh.write(",".join(map(str, row)) + "\n")


def write_gmn_checkpoint(path: Path, rng, adjacency: np.ndarray, n: int) -> None:
    """A gmn model in the package's v1 text format, with seeded weights on
    the hop supports computed here. Each hop's rows are a random
    distribution over its support, shrinking with depth, so the forecast is
    a damped neighbourhood average of the newest readings."""
    sensors = adjacency.shape[0]
    lines = [
        "graphmarkov-model v1",
        "kind=gmn",
        f"size={sensors}",
        f"history={n}",
        "gamma=%.17g" % GAMMA,
        "producer=perfbench",
    ]
    for k, support in enumerate(hop_supports(adjacency, n), start=1):
        weights = rng.random((sensors, sensors)) * support
        weights /= weights.sum(axis=1, keepdims=True) * k
        lines.append(f"[hop_weights {k}]")
        lines.extend(",".join("%.17g" % v for v in row) for row in weights)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _generate(directory: Path, kind: str, seed: int, shape: Shape) -> None:
    rng = np.random.default_rng([seed, 0 if kind == "train" else 1])
    adjacency = road_graph(rng, shape.sensors, shape.ring)
    steps = shape.train_steps if kind == "train" else shape.metr_steps
    speeds, observed = traffic_series(rng, adjacency, steps)
    write_adjacency_csv(directory / "adjacency.csv", adjacency)
    write_speed_csv(directory / "speed.csv", speeds, observed)
    np.save(directory / "observed.npy", observed)
    if kind == "metr":
        write_gmn_checkpoint(directory / "model.ckpt", rng, adjacency, shape.history)


def inputs_for(root: Path, kind: str, seed: int, shape: Shape) -> tuple:
    """Directory holding the (kind, seed) input set, generating it on a
    cache miss, and the digests of its files. `kind` is "train" (the two
    training workloads share inputs) or "metr"."""
    tag = "smoke" if shape is SMOKE else "full"
    directory = root / f"{kind}-{tag}-{seed}"
    done = directory / "digests.json"
    if not done.exists():
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        _generate(directory, kind, seed, shape)
        digests = {p.name: sha256(p) for p in sorted(directory.iterdir())}
        done.write_text(json.dumps(digests, indent=1))
        _evict(root, keep=directory)
    done.touch()
    return directory, json.loads(done.read_text())


def _evict(root: Path, keep: Path) -> None:
    """Bound the cache to CACHE_KEEP sets: a METR-shaped set is ~130 MB."""
    sets = sorted(
        (p for p in root.iterdir() if p.is_dir() and p != keep),
        key=lambda p: (p / "digests.json").stat().st_mtime if (p / "digests.json").exists() else 0.0,
        reverse=True,
    )
    for stale in sets[CACHE_KEEP - 1:]:
        shutil.rmtree(stale, ignore_errors=True)
