"""State-sequence ingestion, masking, missing-value injection, normalization,
temporal splitting, and windowing into last-observation datasets.

A state series is a T x S matrix of sensor readings plus a boolean mask of the
same shape; missing readings are zero-filled so that values * mask == values
always holds. Operations never mutate a series; they return new ones.
"""

import csv
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain, islice
from operator import itemgetter, mul

import numpy as np

DEFAULT_STEP_SECONDS = 300.0

_CHUNK_ROWS = 1024  # rows per part of a whole-dataset pass (LastObservations.chunks)


@dataclass(frozen=True)
class NormStats:
    """Affine [0,1] normalization parameters (taken over observed entries)."""

    vmin: float
    vmax: float

    @property
    def span(self) -> float:
        return self.vmax - self.vmin


@dataclass(frozen=True)
class StateSeries:
    """T x S readings with a parallel observation mask, stored as bool.

    values[t, s] is zero wherever mask[t, s] is False. Timestamps are epoch
    seconds, strictly increasing with constant spacing.
    """

    values: np.ndarray
    mask: np.ndarray
    timestamps: np.ndarray

    def __post_init__(self):
        values = _frozen(self.values, np.float64)
        mask = _frozen(self.mask, np.bool_)
        timestamps = _frozen(self.timestamps, np.float64)
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {values.shape}")
        if mask.shape != values.shape:
            raise ValueError(f"mask shape {mask.shape} != values shape {values.shape}")
        if timestamps.shape != (values.shape[0],):
            raise ValueError("timestamps length must equal the number of steps")
        # Only a mask of 0s and 1s survives the cast to bool unchanged.
        if not np.array_equal(mask, self.mask):
            raise ValueError("mask entries must be 0 or 1")
        if np.any(values[~mask] != 0.0):
            raise ValueError("missing entries must be zero-filled")
        if values.shape[0] >= 2:
            gaps = np.diff(timestamps)
            if np.any(gaps <= 0):
                raise ValueError("timestamps must be strictly increasing")
            if np.max(gaps) - np.min(gaps) > 1e-6:
                raise ValueError("timestamps must have constant spacing")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "timestamps", timestamps)

    @property
    def steps(self) -> int:
        return self.values.shape[0]

    @property
    def size(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SplitSpec:
    """Contiguous temporal split fractions (train, validation, test)."""

    train_fraction: float = 0.6
    val_fraction: float = 0.2
    test_fraction: float = 0.2

    def __post_init__(self):
        fracs = (self.train_fraction, self.val_fraction, self.test_fraction)
        if any(not 0.0 < f < 1.0 for f in fracs):
            raise ValueError(f"split fractions must each lie in (0,1), got {fracs}")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ValueError(f"split fractions must sum to 1, got {fracs}")


def _frozen(a, dtype) -> np.ndarray:
    """a as a read-only array of dtype: shared when it and its owner are
    read-only already (a part of another series), else copied."""
    base = getattr(a, "base", None)
    if isinstance(a, np.ndarray) and a.dtype == dtype and not a.flags.writeable and (
        base is None or (isinstance(base, np.ndarray) and not base.flags.writeable)
    ):
        return a
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def synthesize_timestamps(steps: int, step_seconds: float = DEFAULT_STEP_SECONDS) -> np.ndarray:
    """Epoch-0-based timestamps at a fixed interval (default 5 minutes)."""
    return np.arange(steps, dtype=np.float64) * step_seconds


def ingest_csv(path) -> StateSeries:
    """Read a speed CSV into a StateSeries.

    The file may carry an optional header row of sensor IDs and an optional
    first column of ISO-8601 timestamps; both are detected by type-sniffing
    the first two rows/columns. With a time column, a first row whose time
    cell starts with no digit is a header even when its IDs are numeric.
    Empty or whitespace-only cells and literal zeros are treated as missing
    (mask False, value 0). When no timestamp column is present, timestamps
    are synthesized at 5-minute spacing from epoch 0. A UTF-8 byte-order mark
    is stripped.

    The file is read in this process, by numpy's C reader where it can be
    (_read_fast): the csv module reads the header and the first two data
    rows, which _sniff types, and one np.loadtxt parses those data rows and
    every later line. A file that numpy could read otherwise than the csv
    module and float() do, such as one with a whitespace-only cell or a
    quote past the head, and any faulty file, is read again by the exact
    reader (_read_whole) in blocks of _CSV_BLOCK_ROWS rows, which raises the
    error below. Either way memory is set by the series and not by the text
    of the file.

    Raises:
        ValueError: ragged rows, unparseable or non-finite values, or
            non-monotonic timestamps. Row and column numbers count data rows
            and sensor columns from 0.
    """
    values, times = _read_fast(path) or _read_whole(path)
    mask = values != 0.0
    steps = values.shape[0]
    if times is not None:
        if steps >= 2 and np.any(np.diff(times) <= 0):
            raise ValueError(f"speed file {path} has non-monotonic timestamps")
    else:
        times = synthesize_timestamps(steps)
    for a in (values, mask, times):
        a.setflags(write=False)
    return StateSeries(values=values, mask=mask, timestamps=times)


# Rows per block of the speed CSV reader and writer: large enough that the
# per-block overhead vanishes, small enough that a block's cells as Python
# strings (about 25 MB at 207 sensors) stay well below the series itself.
_CSV_BLOCK_ROWS = 2048
_EMPTY_AS_ZERO = {"": "0"}
_after_first = itemgetter(slice(1, None))


def _sniff(path, rows):
    """The time-column flag (0 or 1), the row width and the data rows of a
    speed file's non-empty rows, whose optional header is dropped.

    Raises:
        ValueError: no rows, a header without data rows, or no sensor columns
            (after a check for ragged rows).
    """
    head = list(islice(rows, 2))
    if not head:
        raise ValueError(f"speed file {path} is empty")
    first = 1 if _parse_iso(head[-1][0]) is not None else 0
    width = len(head[0])
    # A time column's header cell starts with no digit, unlike any timestamp,
    # whatever the sensor IDs: `timestamp,773869,…` or a pandas `,773869,…`.
    has_header = (first and not head[0][0].strip()[:1].isdigit()) or any(
        cell.strip() != "" and not _is_float(cell) for cell in head[0][first:]
    )
    if has_header and len(head) == 1:
        raise ValueError(f"speed file {path} has a header but no data rows")
    data = chain(head[1:] if has_header else head, rows)
    if width - first < 1:
        _check_widths(path, width, data)
        raise ValueError(f"speed file {path} has no sensor columns")
    return first, width, data


def _read_whole(path) -> tuple:
    """Values and timestamps (None without a time column) of the file, read
    _CSV_BLOCK_ROWS rows at a time by the csv module and float().

    Raises:
        ValueError: a ragged row anywhere in the file before any bad cell;
            else the first block's bad cell or timestamp (_read_block).
    """
    value_blocks, time_blocks = [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        first, width, rows = _sniff(path, filter(None, _csv_rows(path, fh)))
        for block in iter(lambda: list(islice(rows, _CSV_BLOCK_ROWS)), []):
            try:
                _check_widths(path, width, block)
                t0 = len(value_blocks) * _CSV_BLOCK_ROWS
                values, stamps = _read_block(path, block, first, t0)
            except ValueError:
                _check_widths(path, width, chain(block, rows))
                raise
            value_blocks.append(values)
            time_blocks.append(stamps)
            # Freed before the next block is read, so that only one block of
            # cell strings is alive at a time.
            del block
    values = np.concatenate(value_blocks)
    del value_blocks
    return values, np.concatenate(time_blocks) if first else None


def _read_fast(path) -> tuple | None:
    """Values and timestamps (None without a time column) of the file, its
    lines parsed by one np.loadtxt after _sniff: the head's data rows joined
    back into lines, then every later non-blank line. None when the file is
    faulty or may read otherwise than in _read_whole: a line holds a quote,
    a line break or more characters than the csv field limit, numpy rejects
    a line (as it does a whitespace-only cell), skips one or reads a
    non-finite value, or a timestamp does not parse."""
    stamps = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            first, width, rows = _sniff(path, filter(None, _csv_rows(path, fh)))
            # The head holds at least one data row, so loadtxt never meets an
            # empty input, on which it warns. A comma inside a cell of a head
            # row of the right width adds a cell, which the shape check finds.
            head = list(islice(rows, 2))
            _check_widths(path, width, head)
            body = filter(None, (line.rstrip("\r\n") for line in fh))
            lines = _numeric_lines(chain(map(",".join, head), body), first, stamps)
            values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape != (len(stamps), width - first) or not np.isfinite(values).all():
        return None
    values[values == 0.0] = 0.0
    if not first:
        return values, None
    times = list(map(_parse_iso, stamps))
    return None if None in times else (values, np.array(times))


def _numeric_lines(lines, first, stamps):
    """The lines without their time cell, each empty cell written as 0.
    Each line appends its time cell to stamps, or None without a time
    column.

    Raises:
        ValueError: a line holds a quote, a line break or more characters
            than the csv field limit, or no comma after its time cell.
    """
    limit = csv.field_size_limit()
    for line in lines:
        if '"' in line or "\n" in line or "\r" in line or len(line) > limit:
            raise ValueError
        stamp = None
        if first:
            stamp, comma, line = line.partition(",")
            if not comma:
                raise ValueError
        stamps.append(stamp)
        yield f",{line},".replace(",,", ",0,").replace(",,", ",0,")[1:-1]


def _csv_rows(path, fh):
    """csv.reader's rows of fh; its csv.Error (a field over the size limit,
    as an unbalanced quote makes) raised as a ValueError naming the file."""
    try:
        yield from csv.reader(fh)
    except csv.Error as exc:
        raise ValueError(f"{path}: {exc}") from None


def _check_widths(path, width, rows) -> None:
    widths = {width}
    widths.update(map(len, rows))
    if len(widths) != 1:
        raise ValueError(f"speed file {path} has ragged rows (widths {sorted(widths)})")


def _read_block(path, block, first, t0):
    """Values and timestamps of a block of equal-width rows whose first row
    is data row t0. Empty or whitespace-only cells read as 0 (missing), and
    so does -0.

    Raises:
        ValueError: the block's first bad timestamp, unparseable cell or
            non-finite cell in row-major order (a row's timestamp before its
            cells), with its data row and sensor column.
    """
    cells = list(chain.from_iterable(map(_after_first, block) if first else block))
    try:
        values = _floats(cells)
    except ValueError:
        # float() skips surrounding whitespace, so a whitespace-only cell is
        # the only valid cell that the first pass rejects.
        stripped = list(map(str.strip, cells))
        try:
            values = _floats(stripped)
        except ValueError:
            # Only a bad block gets here: read up to its first unparseable cell.
            end = next(k for k, text in enumerate(stripped) if text and not _is_float(text))
            values = _floats(stripped[:end])
    # Index of the first non-finite cell, else of the first unparseable one
    # (where the parsed prefix ends), else len(cells).
    non_finite = np.flatnonzero(~np.isfinite(values))
    bad = int(non_finite[0]) if non_finite.size else len(values)
    width = len(block[0]) - first
    stamps = None
    if first:
        stamps = list(map(_parse_iso, map(itemgetter(0), block)))
        if None in stamps:
            i = stamps.index(None)
            if i <= bad // width:
                raise ValueError(f"unparseable timestamp {block[i][0]!r} at data row {t0 + i}")
        stamps = np.array(stamps, dtype=np.float64)
    if bad < len(cells):
        i, s = divmod(bad, width)
        if bad < len(values):
            raise ValueError(
                f"speed file {path} has a non-finite value {cells[bad]!r}"
                f" at data row {t0 + i}, column {s}"
            )
        raise ValueError(f"unparseable value {cells[bad]!r} at data row {t0 + i}, column {s}")
    values[values == 0.0] = 0.0
    return values.reshape(len(block), -1), stamps


def _floats(cells) -> np.ndarray:
    """float() of each cell, an empty cell as 0."""
    return np.fromiter(map(float, map(_EMPTY_AS_ZERO.get, cells, cells)), np.float64, len(cells))


def write_speed_csv(path, series: StateSeries, sensor_ids: list[str] | None = None) -> None:
    """Write a StateSeries as a speed CSV with a header row and an ISO-8601
    timestamp column; missing entries become empty cells. Values are written
    as their shortest round-trip repr, in blocks of _CSV_BLOCK_ROWS rows.

    Raises:
        ValueError: sensor_ids of another length than the series' sensors;
            nothing is written.
    """
    if sensor_ids is None:
        sensor_ids = [f"sensor_{s}" for s in range(series.size)]
    if len(sensor_ids) != series.size:
        raise ValueError(f"{len(sensor_ids)} sensor IDs given for {series.size} sensors")
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["timestamp"] + list(sensor_ids))
        for lo in range(0, series.steps, _CSV_BLOCK_ROWS):
            rows = slice(lo, lo + _CSV_BLOCK_ROWS)
            lines = []
            for stamp, values, observed in zip(
                series.timestamps[rows].tolist(),
                series.values[rows].tolist(),
                series.mask[rows].tolist(),
            ):
                stamp = datetime.fromtimestamp(stamp, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")
                # str * True is the repr, str * False the empty cell of a missing entry.
                cells = ",".join(map(mul, map(repr, values), observed))
                lines.append(f"{stamp},{cells}\r\n")
            fh.write("".join(lines))


def inject_missing(series: StateSeries, rate: float, seed: int) -> StateSeries:
    """Drop a random fraction of the currently-observed entries.

    Each observed entry is independently masked out with probability `rate`
    (so the new missing count is binomial). Previously missing entries stay
    missing. Deterministic for a given seed.

    Raises:
        ValueError: rate outside [0, 1).
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"missing rate must lie in [0,1), got {rate}")
    if rate == 0.0:
        return series
    rng = np.random.default_rng(seed)
    drop = (rng.random(series.values.shape) < rate) & series.mask
    mask = series.mask & ~drop
    values = np.where(drop, 0.0, series.values)
    for a in (values, mask):
        a.setflags(write=False)
    return StateSeries(values=values, mask=mask, timestamps=series.timestamps)


def observed_stats(series: StateSeries) -> NormStats:
    """Min/max over observed entries only.

    Raises:
        ValueError: no observed entries, or constant observed values.
    """
    observed = series.values[series.mask]
    if observed.size == 0:
        raise ValueError("series has no observed entries to compute stats from")
    vmin, vmax = float(observed.min()), float(observed.max())
    if vmax == vmin:
        raise ValueError(f"constant series (min == max == {vmin}); cannot normalize")
    return NormStats(vmin=vmin, vmax=vmax)


def normalize(series: StateSeries, stats: NormStats) -> StateSeries:
    """Map observed values through (v - min) / (max - min); missing entries
    stay zero. Pass training-split stats (observed_stats of the training
    part) to normalize validation/test data without leakage."""
    if stats.span == 0:
        raise ValueError("degenerate stats: max equals min")
    values = series.values - stats.vmin
    values /= stats.span
    values[~series.mask] = 0.0
    values.setflags(write=False)
    return StateSeries(values=values, mask=series.mask, timestamps=series.timestamps)


def denormalize(values: np.ndarray, stats: NormStats) -> np.ndarray:
    """Affine inverse of normalize: v * (max - min) + min."""
    return np.asarray(values) * stats.span + stats.vmin


def split(series: StateSeries, spec: SplitSpec) -> tuple[StateSeries, StateSeries, StateSeries]:
    """Contiguous temporal partition train -> validation -> test.

    Boundary indices floor the fractions; the remainder goes to the test
    part.

    Raises:
        ValueError: series too short for a non-empty partition.
    """
    t = series.steps
    n_train = int(spec.train_fraction * t)
    n_val = int(spec.val_fraction * t)
    n_test = t - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise ValueError(f"series of {t} steps too short to split {spec}")
    cuts = (0, n_train, n_train + n_val, t)
    return tuple(
        StateSeries(series.values[lo:hi], series.mask[lo:hi], series.timestamps[lo:hi])
        for lo, hi in zip(cuts, cuts[1:])
    )


@dataclass(frozen=True)
class LastObservations:
    """Forecasting windows, each reduced to its newest observed reading.

    Row k stands for an n-step input window and the step after it. Per
    sensor, value holds the newest observed reading inside the window and lag
    how many steps before the window's newest step it was taken (0..n-1);
    a sensor with no observation in the window has value 0 and lag n. label
    and label_mask are the step after the window. All four are N x S.

    Rows can be taken by any numpy index (`data[rows]`), which keeps n.
    """

    value: np.ndarray
    lag: np.ndarray
    label: np.ndarray
    label_mask: np.ndarray
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("window length must be >= 1")
        if self.value.ndim != 2 or self.value.shape[0] < 1:
            raise ValueError(f"empty dataset or not N x S: value has shape {self.value.shape}")
        for name in ("lag", "label", "label_mask"):
            if getattr(self, name).shape != self.value.shape:
                raise ValueError(f"{name} shape must match value shape {self.value.shape}")
        if np.any((self.lag < 0) | (self.lag > self.n)):
            raise ValueError(f"lags must lie in 0..{self.n}")
        if np.any(self.value[self.lag == self.n] != 0.0):
            raise ValueError("sensors without an observation must have value 0")

    def __len__(self) -> int:
        return self.value.shape[0]

    def __getitem__(self, rows) -> "LastObservations":
        return LastObservations(
            value=self.value[rows],
            lag=self.lag[rows],
            label=self.label[rows],
            label_mask=self.label_mask[rows],
            n=self.n,
        )

    @property
    def size(self) -> int:
        return self.value.shape[1]

    def at_lag(self, i: int) -> np.ndarray:
        """N x S input of the state i steps back: the reading where it is the
        newest observed one, else 0."""
        return np.where(self.lag == i, self.value, 0.0)

    def present_lags(self) -> list:
        """The lags 0..n-1 whose input is not all zeros."""
        return [i for i in range(self.n) if (self.lag == i).any()]

    def chunks(self):
        """The rows in consecutive parts of at most _CHUNK_ROWS rows, in order."""
        for lo in range(0, len(self), _CHUNK_ROWS):
            yield self[lo : lo + _CHUNK_ROWS]

    def squared_error(self, pred: np.ndarray) -> tuple:
        """Squared-error sum and count of the observed labels, and the masked pred - label."""
        diff = (pred - self.label) * self.label_mask
        return float((diff * diff).sum()), float(self.label_mask.sum()), diff


def last_observations(
    series: StateSeries, n: int, observed: np.ndarray | None = None
) -> LastObservations:
    """The T - n windows of n steps over the series, with one forward-fill
    scan over the steps where `observed` is True.

    Window k covers input steps k .. k+n-1 and the label step k+n. Its
    inputs are the series' readings where `observed` (default: the series'
    mask) is True, so a gate with injected gaps hides those readings from the
    inputs; labels and label masks are the series' own. No window reaches
    outside the series.

    Raises:
        ValueError: fewer than n+1 steps; or `observed` not a bool array of
            the series' shape, or True where the series has no reading (the
            first such step and sensor are named).
    """
    if n < 1:
        raise ValueError("window length must be >= 1")
    if series.steps < n + 1:
        raise ValueError(f"need at least {n + 1} steps to window, got {series.steps}")
    if observed is None:
        observed = series.mask
    else:
        observed = np.asarray(observed)
        if observed.dtype != np.bool_ or observed.shape != series.values.shape:
            raise ValueError(
                f"gate must be bool {series.values.shape}, not {observed.dtype} {observed.shape}"
            )
        bad = observed & ~series.mask
        if np.any(bad):
            t, s = np.unravel_index(np.argmax(bad), bad.shape)
            raise ValueError(f"gate is set at step {t}, sensor {s}, where the series has no reading")
    # Step indices in the smallest signed type that holds -1 and series.steps - 1.
    steps = np.arange(series.steps, dtype=np.min_scalar_type(-series.steps))[:, None]
    last = np.where(observed, steps, -1)
    np.maximum.accumulate(last, axis=0, out=last)
    last = last[n - 1 : -1]
    value = np.take_along_axis(series.values, last, axis=0)
    np.subtract(steps[n - 1 : -1], last, out=last)  # last now holds each window's lag
    lag = np.minimum(last, n, out=last).astype(np.min_scalar_type(n))
    value[lag == n] = 0.0
    return LastObservations(
        value=value,
        lag=lag,
        label=series.values[n:],
        label_mask=series.mask[n:],
        n=n,
    )


@dataclass(frozen=True)
class DatasetBundle:
    """Train/val/test windows plus everything needed to interpret them: the
    normalization stats and the label-step timestamps of the test part."""

    train: LastObservations
    val: LastObservations
    test: LastObservations
    stats: NormStats
    test_label_times: np.ndarray


def prepare_datasets(
    series: StateSeries,
    n: int,
    missing_rate: float,
    seed: int,
    spec: SplitSpec | None = None,
) -> DatasetBundle:
    """Full data pipeline: inject missingness, normalize with training-split
    stats, split contiguously, and window each part.

    Injection corrupts inputs only: each part is windowed behind the mask of
    the injected series, while labels and label masks stay the series' own,
    so injected entries still serve as labels while genuinely unknown ones
    stay excluded from the loss. The training part of the injected series
    gives the stats.
    """
    if spec is None:
        spec = SplitSpec()
    gates = split(inject_missing(series, missing_rate, seed), spec)
    stats = observed_stats(gates[0])
    # Only the injected masks are read from here on; the values are freed.
    gates = [g.mask for g in gates]
    parts = split(normalize(series, stats), spec)
    train, val, test = (last_observations(p, n, g) for p, g in zip(parts, gates))
    return DatasetBundle(train, val, test, stats, test_label_times=parts[2].timestamps[n:])


def _fmt(v: float) -> str:
    """v with 17 significant digits, which round-trip an IEEE double: the one
    float format of checkpoints, training histories and result CSVs."""
    return "%.17g" % float(v)


def _is_float(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def _parse_iso(text: str) -> float | None:
    try:
        stamp = datetime.fromisoformat(text.strip())
    except ValueError:
        return None
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.timestamp()
