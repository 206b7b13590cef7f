"""Model quality reporting: error metrics in original units, residual
summaries grouped by time of day or day of week, per-vertex influence
scores, and a carry-forward baseline.

Predictions flow through the models in normalized space; scoring converts
the observed entries back to original units first, because the error
magnitudes people compare against are in those units.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import NormStats, _fmt, denormalize

MAPE_TRUTH_FLOOR = 1e-6

HOURS_PER_DAY = 24
DAYS_PER_WEEK = 7
_EPOCH_WEEKDAY = 3  # 1970-01-01 was a Thursday; weekday 0 is Monday.


@dataclass(frozen=True)
class MetricsReport:
    """Aggregate prediction errors over observed truth entries.

    mae and rmse are in original units; mape is a percentage computed only
    over entries whose true value is meaningfully nonzero, with the number
    of excluded near-zero entries reported alongside.
    """

    mae: float
    rmse: float
    mape: float
    evaluated_count: int
    excluded_zero_truth_count: int

    def __post_init__(self):
        if self.evaluated_count <= 0:
            raise ValueError("a metrics report needs at least one evaluated entry")
        if not all(math.isfinite(v) for v in (self.mae, self.rmse, self.mape)):
            raise ValueError(
                f"error metrics must be finite, got mae {self.mae}, rmse {self.rmse}, mape {self.mape}"
            )
        if min(self.mae, self.rmse, self.mape) < 0:
            raise ValueError("error metrics cannot be negative")
        if self.mae > self.rmse * (1.0 + 1e-12) + 1e-15:
            raise ValueError(f"mae {self.mae} exceeds rmse {self.rmse}")


@dataclass(frozen=True)
class ResidualSummary:
    """Residual statistics (truth minus prediction, original units) bucketed
    by a time grouping. Every possible group key gets a row; empty groups
    carry count 0 and NaN statistics."""

    grouping: str
    keys: np.ndarray
    counts: np.ndarray
    means: np.ndarray
    stds: np.ndarray
    q25: np.ndarray
    q50: np.ndarray
    q75: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class InfluenceTable:
    """Per-vertex mean-squared weight mass of one hop's effective linear map.

    ranks[v] is the 1-based position of vertex v when scores are sorted
    descending, ties broken by ascending vertex index.
    """

    scores: np.ndarray
    ranks: np.ndarray
    step: int
    mode: str

    def __post_init__(self):
        if np.any(self.scores < 0):
            raise ValueError("influence scores are mean squares; cannot be negative")
        if sorted(self.ranks) != list(range(1, len(self.scores) + 1)):
            raise ValueError("ranks must be a permutation of 1..S")


def _score(
    pred: np.ndarray, truth: np.ndarray, truth_mask: np.ndarray, stats: NormStats
) -> tuple[MetricsReport, np.ndarray]:
    """metrics' report, and the residuals (truth minus prediction, original
    units) it reduces: one per entry with truth_mask = 1, row-major. Only
    those entries are denormalized."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or pred.shape != truth_mask.shape:
        raise ValueError("pred, truth, and truth_mask must share a shape")
    observed = truth_mask == 1.0
    if not observed.any():
        raise ValueError("no evaluable entries (truth mask is all zero)")
    truth = denormalize(truth[observed], stats)
    residual = truth - denormalize(pred[observed], stats)

    nonzero = np.abs(truth) > MAPE_TRUTH_FLOOR
    if nonzero.any():
        mape = float(np.abs(residual[nonzero] / truth[nonzero]).mean() * 100.0)
    else:
        mape = 0.0
    report = MetricsReport(
        mae=float(np.abs(residual).mean()),
        rmse=float(np.sqrt((residual * residual).mean())),
        mape=mape,
        evaluated_count=residual.size,
        excluded_zero_truth_count=int(residual.size - nonzero.sum()),
    )
    return report, residual


def metrics(
    pred: np.ndarray, truth: np.ndarray, truth_mask: np.ndarray, stats: NormStats
) -> MetricsReport:
    """Score normalized predictions against normalized truth, in original
    units, over the entries with truth_mask = 1. The percentage error also
    drops entries whose true value is within 1e-6 of zero (division blows up
    there) and reports how many were dropped.

    Raises:
        ValueError: shape mismatch or no evaluable entries.
    """
    return _score(pred, truth, truth_mask, stats)[0]


def predict(params, data) -> np.ndarray:
    """Model predictions for a dataset, stacked in order (normalized units),
    evaluated in bounded chunks."""
    return np.concatenate([params.predict(chunk) for chunk in data.chunks()], axis=0)


def evaluate(params, data, stats: NormStats) -> tuple[MetricsReport, np.ndarray]:
    """Run the model over a test set once and score it. Also returns the
    observed residuals (truth minus prediction, original units, row-major),
    which residual_summary groups."""
    return _score(predict(params, data), data.label, data.label_mask, stats)


def persistence_baseline(data, stats: NormStats) -> MetricsReport:
    """Score the carry-forward predictor on the same windows the model sees:
    each window's last observation, 0 for a sensor with none."""
    return metrics(data.value, data.label, data.label_mask, stats)


def residual_summary(
    residual: np.ndarray, truth_mask: np.ndarray, timestamps: np.ndarray, grouping: str
) -> ResidualSummary:
    """Group residuals as evaluate returns them (one per entry with
    truth_mask = 1, row-major) by their row's hour of day or weekday
    (Monday = 0).

    Raises:
        ValueError: unknown grouping, timestamps not matching truth_mask's
            rows one-to-one, or not one residual per observed entry.
    """
    if grouping == "hour":
        n_groups = HOURS_PER_DAY
        keys_per_row = (np.asarray(timestamps) // 3600).astype(np.int64) % HOURS_PER_DAY
    elif grouping == "weekday":
        n_groups = DAYS_PER_WEEK
        days = (np.asarray(timestamps) // 86400).astype(np.int64)
        keys_per_row = (days + _EPOCH_WEEKDAY) % DAYS_PER_WEEK
    else:
        raise ValueError(f"grouping must be 'hour' or 'weekday', got {grouping!r}")

    observed_per_row = np.count_nonzero(np.asarray(truth_mask) == 1.0, axis=1)
    if keys_per_row.shape != observed_per_row.shape:
        raise ValueError("need exactly one timestamp per truth_mask row")
    if residual.shape != (observed_per_row.sum(),):
        raise ValueError("need exactly one residual per observed truth entry")
    # int8 keys: each group's comparison below reads an eighth of int64's bytes.
    entry_keys = np.repeat(keys_per_row.astype(np.int8), observed_per_row)

    keys = np.arange(n_groups)
    counts = np.zeros(n_groups, dtype=np.int64)
    means, stds, q25, q50, q75 = np.full((5, n_groups), np.nan)
    for k in keys:
        chosen = residual[entry_keys == k]
        counts[k] = chosen.size
        if chosen.size:
            means[k] = chosen.mean()
            stds[k] = chosen.std()
            q25[k], q50[k], q75[k] = np.percentile(chosen, [25, 50, 75])
    return ResidualSummary(
        grouping=grouping, keys=keys, counts=counts, means=means, stds=stds,
        q25=q25, q50=q50, q75=q75,
    )


def influence_scores(params, step: int, mode: str = "row") -> InfluenceTable:
    """Mean squared entry of one hop's effective map, per row or per column.

    Row mode scores how strongly a vertex's prediction draws on the rest of
    the network; column mode scores how strongly a vertex feeds the rest.

    Raises:
        ValueError: step outside 1..n, or unknown mode.
    """
    if not 1 <= step <= params.n:
        raise ValueError(f"step {step} outside 1..{params.n}")
    if mode not in ("row", "column"):
        raise ValueError(f"mode must be 'row' or 'column', got {mode!r}")
    axis = 1 if mode == "row" else 0
    scores = (params.step_map(step) ** 2).mean(axis=axis)

    order = np.lexsort((np.arange(scores.size), -scores))
    ranks = np.empty(scores.size, dtype=np.int64)
    ranks[order] = np.arange(1, scores.size + 1)
    return InfluenceTable(scores=scores, ranks=ranks, step=step, mode=mode)


def _ranked(table: InfluenceTable, top: int | None) -> np.ndarray:
    """Vertices in rank order; `top` keeps the highest-ranked ones."""
    return np.argsort(table.ranks)[:top]


def write_metrics_csv(path, reports: dict) -> None:
    """Write labelled metric rows ({'model': ..., 'baseline': ...}) as CSV."""
    with open(path, "w", newline="") as fh:
        fh.write("which,mae,rmse,mape,evaluated_count,excluded_zero_truth_count\n")
        for label, r in reports.items():
            fh.write(
                f"{label},{_fmt(r.mae)},{_fmt(r.rmse)},{_fmt(r.mape)},"
                f"{r.evaluated_count},{r.excluded_zero_truth_count}\n"
            )


def write_residual_csv(path, summary: ResidualSummary) -> None:
    """One row per group; empty groups keep their row with blank statistics."""
    label = summary.grouping
    with open(path, "w", newline="") as fh:
        fh.write(f"{label},count,mean,std,q25,q50,q75\n")
        for i, key in enumerate(summary.keys):
            if summary.counts[i]:
                stats_cells = ",".join(
                    _fmt(a[i]) for a in (summary.means, summary.stds, summary.q25, summary.q50, summary.q75)
                )
            else:
                stats_cells = ",,,,"
            fh.write(f"{key},{summary.counts[i]},{stats_cells}\n")


def write_influence_csv(path, table: InfluenceTable, top: int | None = None) -> None:
    """Rows ordered by rank; `top` truncates to the highest-ranked vertices."""
    with open(path, "w", newline="") as fh:
        fh.write("rank,vertex,score\n")
        for v in _ranked(table, top):
            fh.write(f"{table.ranks[v]},{v},{_fmt(table.scores[v])}\n")


def format_metrics(reports: dict) -> str:
    """Fixed-width comparison table for standard output."""
    lines = [f"{'':<10}{'MAE':>12}{'RMSE':>12}{'MAPE%':>12}{'N':>10}{'excl0':>8}"]
    for label, r in reports.items():
        lines.append(
            f"{label:<10}{r.mae:>12.4f}{r.rmse:>12.4f}{r.mape:>12.4f}"
            f"{r.evaluated_count:>10d}{r.excluded_zero_truth_count:>8d}"
        )
    return "\n".join(lines)


def format_influence(table: InfluenceTable, top: int | None = None) -> str:
    lines = [f"{'rank':>6}{'vertex':>8}{'score':>14}"]
    for v in _ranked(table, top):
        lines.append(f"{table.ranks[v]:>6d}{v:>8d}{table.scores[v]:>14.6e}")
    return "\n".join(lines)
