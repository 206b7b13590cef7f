"""Output checks for the files the CLI writes.

Each check reads a command's outputs with the benchmark's own parsers and
returns (failures, facts): a list of failure messages, empty when the
outputs are correct, and the values the metrics and the cross-job
determinism checks need. A missing or unparseable file raises OSError or
ValueError, which the caller counts as a failure.
"""

import math
import warnings
from pathlib import Path

import numpy as np

from inputs import STEP_SECONDS, sha256

HISTORY_HEADER = "epoch,train_loss,val_loss,lr"
METRICS_HEADER = "which,mae,rmse,mape,evaluated_count,excluded_zero_truth_count"
HOURS = 24


def split_bounds(steps: int) -> tuple:
    """Train and validation lengths of the CLI's default 6:2:2 split, with
    the package's arithmetic: int(fraction * steps), remainder to test."""
    return int(6 / 10 * steps), int(2 / 10 * steps)


def observed_test_labels(observed: np.ndarray, n: int) -> int:
    """Observed cells among the test-split label steps. Labels keep the
    native outages and ignore injected ones, so this is exact."""
    n_train, n_val = split_bounds(observed.shape[0])
    return int(observed[n_train + n_val + n:].sum())


def check_train(out: Path) -> tuple:
    facts = {}
    checkpoint = out / "model.ckpt"
    if not checkpoint.is_file():
        return ["train wrote no model.ckpt"], facts
    facts["checkpoint_sha256"] = sha256(checkpoint)
    facts["checkpoint_bytes"] = checkpoint.stat().st_size
    facts["history_sha256"] = sha256(out / "history.csv")
    lines = (out / "history.csv").read_text().splitlines()
    if not lines or lines[0] != HISTORY_HEADER or len(lines) < 2:
        return ["history.csv has no header or no epochs"], facts
    val_losses = []
    for k, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        values = [float(c) for c in cells[1:]] if len(cells) == 4 else []
        if cells[0] != str(k) or not values or not all(map(math.isfinite, values)):
            return [f"history.csv row {k} malformed: {line!r}"], facts
        val_losses.append(values[1])
    facts["epochs"] = len(val_losses)
    facts["best_epoch"] = 1 + int(np.argmin(val_losses))
    return [], facts


def check_eval(out: Path, expected_count: int) -> tuple:
    failures, facts = [], {}
    lines = (out / "metrics.csv").read_text().splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        return ["metrics.csv header malformed"], facts
    rows = {}
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 6:
            return [f"metrics.csv row malformed: {line!r}"], facts
        rows[cells[0]] = cells[1:]
    if set(rows) != {"model", "baseline"}:
        return [f"metrics.csv rows are {sorted(rows)}, want model and baseline"], facts
    for label, cells in rows.items():
        mae, rmse, mape = (float(c) for c in cells[:3])
        count = int(cells[3])
        if not all(map(math.isfinite, (mae, rmse, mape))):
            failures.append(f"{label} metrics not finite: {cells}")
        elif mae > rmse:
            failures.append(f"{label} mae {mae} exceeds rmse {rmse}")
        if count != expected_count:
            failures.append(f"{label} evaluated_count {count}, expected {expected_count}")
    facts["test_mae"] = float(rows["model"][0])
    facts["carry_forward_mae"] = float(rows["baseline"][0])

    residual_lines = (out / "residuals_hour.csv").read_text().splitlines()
    counts = [int(line.split(",")[1]) for line in residual_lines[1:]]
    if len(counts) != HOURS or sum(counts) != expected_count:
        failures.append(
            f"residuals_hour.csv has {len(counts)} groups covering {sum(counts)} cells,"
            f" expected {HOURS} covering {expected_count}"
        )
    return failures, facts


def read_simulated_speed(path: Path, sensors: int) -> tuple:
    """Parse the simulator's speed CSV: a header, an ISO-8601 time column
    and `sensors` value columns with no empty cells. Returns (timestamps in
    epoch seconds, T x S values)."""
    lines = path.read_bytes().split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    header, rows = lines[0], lines[1:]
    if header.count(b",") != sensors:
        raise ValueError(f"header has {header.count(b',') + 1} columns, want {sensors + 1}")
    if any(row.count(b",") != sensors for row in rows):
        raise ValueError("ragged data rows")
    # datetime64 reads the package's UTC stamps with no host time zone.
    stamps = np.array([row[:19] for row in rows], dtype="datetime64[s]").astype(np.int64)
    cells = b",".join(row.partition(b",")[2] for row in rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = np.fromstring(cells, sep=",")
        except DeprecationWarning as exc:  # numpy's signal for a cell it cannot parse
            raise ValueError(f"unparseable speed.csv cell: {exc}") from None
    if values.size != len(rows) * sensors:
        raise ValueError(f"parsed {values.size} values, want {len(rows) * sensors}")
    return stamps, values.reshape(len(rows), sensors)


def check_simulate(out: Path, sensors: int, steps: int) -> tuple:
    failures = []
    speed = out / "speed.csv"
    stamps, values = read_simulated_speed(speed, sensors)
    adjacency = np.loadtxt(out / "adjacency.csv", delimiter=",", ndmin=2)
    facts = {"zero_cells": int((values == 0.0).sum())}
    if values.shape != (steps, sensors):
        failures.append(f"speed.csv is {values.shape}, want {(steps, sensors)}")
    if not np.all((values >= 0.0) & (values <= 1.0)):
        failures.append("speed.csv has values outside [0, 1]")
    if not np.all(np.diff(stamps) == STEP_SECONDS):
        failures.append(f"speed.csv timestamps are not {STEP_SECONDS} s apart")
    if adjacency.shape != (sensors, sensors):
        failures.append(f"adjacency.csv is {adjacency.shape}, want {(sensors, sensors)}")
    elif not (
        np.array_equal(adjacency, adjacency.T)
        and np.all((adjacency == 0.0) | (adjacency == 1.0))
        and not np.any(np.diag(adjacency))
    ):
        failures.append("adjacency.csv is not symmetric, binary and zero on the diagonal")
    return failures, facts
