"""State-sequence ingestion, masking, missing-value injection, normalization,
temporal splitting, and windowing into last-observation datasets.

A state series is a T x S matrix of sensor readings plus a boolean mask of the
same shape; missing readings are zero-filled so that values * mask == values
always holds. Operations never mutate a series; they return new ones.
"""

import codecs
import csv
import os
import stat
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain, islice
from operator import index, itemgetter, mul

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

    The file is read by numpy's C reader where it can be (_read_fast): the
    csv module reads the header and the first two data rows, which _sniff
    types, and np.loadtxt parses those data rows and every later line. A
    file of at least _SPLIT_BYTES is read in 2 parts when 2 threads are
    allowed (_thread_count): this process parses the lines up to a cut at a
    line start, and a child process the lines after it. A file that numpy
    could read otherwise than the csv module and float() do, such as one
    with a quote past the head, and any faulty file, is read again whole in
    this process by the exact reader (_read_whole) in blocks of
    _CSV_BLOCK_ROWS rows, which raises the error below. Either way memory
    is set by the series and not by the text of the file.

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
# strings (about 6 MB at 207 sensors), or its scratch arrays in the rounding
# writer (_rounded_text, about 1 MB each), stay well below the series itself.
# At 2,048 rows the rounding writer raised simulate's peak RSS by 13 MB.
_CSV_BLOCK_ROWS = 512
_EMPTY_AS_ZERO = {"": "0"}
_after_first = itemgetter(slice(1, None))

# A speed file this large is read in 2 parts. A child's start-up takes about
# 0.25 s, mostly importing numpy. On 2 cores, over prefixes of the 121 MB
# METR-shaped file and 7 alternating reads each, 2 parts took 0.33 s against
# 0.25 s in one at 8 MiB, broke even near 16-20 MiB, and were faster in 4
# and 6 of 7 reads at 24 MiB, 7 of 7 at 28 MiB and 7 of 7 at 32 MiB (0.60
# against 0.79 s).
_SPLIT_BYTES = 24 << 20
# This process's share of the bytes after the head. The child starts to
# parse later, so this process takes a little more. Medians of 7
# alternating reads of the METR-shaped file on 2 cores: 2.05 s at 0.45,
# 2.09 and 2.19 s at 0.5, 2.10 and 2.17 s at 0.55, 2.28 s at 0.6.
_CALLER_SHARE = 0.55
_PART_READ_BYTES = 1 << 20  # bytes of a part decoded at a time


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
    """Values and timestamps (None without a time column) of the file, read
    by np.loadtxt after _sniff: the head's data rows joined back into lines,
    then every later non-blank line, those up to the cut (_cuts) here and
    those after it in a child process (_part_main). None when the file is
    faulty or may read otherwise than in _read_whole: a line holds a quote,
    a line break or more characters than the csv field limit, numpy rejects
    a line (as it does a cell that is a form feed alone), skips one or
    reads a non-finite value, a timestamp does not parse, or the child
    cannot start or fails. No child outlives the call."""
    child = None
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            # The lines the head rows come from; the rest of the file starts
            # where their bytes end.
            seen = []
            lines = (seen.append(line) or line for line in fh)
            first, width, rows = _sniff(path, filter(None, _csv_rows(path, lines)))
            # A comma inside a cell of a head row of the right width adds a
            # cell, which the shape check finds.
            head = list(islice(rows, 2))
            _check_widths(path, width, head)
            cuts = _cuts(path, fh, seen)
            if cuts is None:
                body = filter(None, (line.rstrip("\r\n") for line in fh))
            else:
                start, cut, size = cuts
                child = _start_child(_part_main, os.fsdecode(path), cut, size, first, width)
                body = _part_lines(path, start, cut)
            part = _read_part(chain(map(",".join, head), body), first, width)
        return part if child is None else _join_part(child, *part)
    except (ValueError, OSError):
        return None
    finally:
        if child is not None:
            _stop(child)


def _cuts(path, fh, seen) -> tuple | None:
    """Byte offsets (start, cut, size) of the file open as fh: start where
    the lines seen (after a UTF-8 byte-order mark) end, cut at the first
    line start at or after _CALLER_SHARE of the bytes from start to size,
    the file's end. None when fh is read in this process alone: it is no
    regular file (a pipe cannot be read again), it is smaller than
    _SPLIT_BYTES, fewer than 2 threads are allowed (_thread_count), or no
    line starts at or after that share."""
    info = os.fstat(fh.fileno())
    if not stat.S_ISREG(info.st_mode) or info.st_size < _SPLIT_BYTES or _thread_count() < 2:
        return None
    with open(path, "rb") as raw:
        start = sum(len(line.encode()) for line in seen)
        start += len(codecs.BOM_UTF8) * (raw.read(len(codecs.BOM_UTF8)) == codecs.BOM_UTF8)
        raw.seek(start + int((info.st_size - start) * _CALLER_SHARE) - 1)
        raw.readline()  # to the end of the line holding that byte
        cut = raw.tell()
    return (start, cut, info.st_size) if cut < info.st_size else None


def _part_lines(path, start, stop):
    """The non-blank lines, without their line ends, of bytes start..stop
    of the file; stop is a line start or the file's end. The bytes are
    decoded _PART_READ_BYTES at a time, each piece cut after a newline, and
    split into lines where a file opened with newline="" splits them: at
    each \\r\\n, \\r and \\n.

    Raises:
        ValueError: the bytes are no UTF-8.
    """
    with open(path, "rb") as fh:
        fh.seek(start)
        while start < stop:
            chunk = fh.read(min(_PART_READ_BYTES, stop - start))
            if not chunk.endswith(b"\n"):
                chunk += fh.readline()
            if not chunk:
                return
            start += len(chunk)
            text = chunk.decode().replace("\r\n", "\n").replace("\r", "\n")
            yield from filter(None, text.split("\n"))


def _read_part(lines, first, width) -> tuple:
    """Values and float64 timestamps (None without a time column) of data
    lines of width cells, parsed by one np.loadtxt (_numeric_lines).

    Raises:
        ValueError: a line that _numeric_lines or numpy turns down, a shape
            other than (lines, width - first), a non-finite value or a
            timestamp that does not parse.
    """
    stamps = []
    lines = _numeric_lines(lines, first, stamps)
    line = next(lines, None)  # none in a part of blank lines, on which loadtxt warns
    if line is None:
        values = np.empty((0, width - first))
    else:
        values = np.loadtxt(chain([line], lines), delimiter=",", comments=None, ndmin=2)
    if values.shape != (len(stamps), width - first) or not np.isfinite(values).all():
        raise ValueError
    values[values == 0.0] = 0.0
    if not first:
        return values, None
    times = list(map(_parse_iso, stamps))
    if None in times:
        raise ValueError
    return values, np.array(times)


def _numeric_lines(lines, first, stamps):
    """The lines without their time cell, each empty cell, and each cell of
    spaces and tabs alone, written as 0. Each line appends its time cell to
    stamps, or None without a time column.

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
        if " " in line or "\t" in line:
            # float() strips these, so such a cell is empty to the exact reader.
            yield ",".join([cell if cell.strip(" \t") else "0" for cell in line.split(",")])
        else:
            yield f",{line},".replace(",,", ",0,").replace(",,", ",0,")[1:-1]


def _join_part(child, values, times) -> tuple | None:
    """values and times with the rows of a reader child (_part_main) after
    them; None when the child fails or its output ends early."""
    head = child.stdout.read(8)
    if len(head) != 8:
        return None
    rows, steps = int.from_bytes(head, "little"), len(values)
    # Grown in place where the allocator can, so that this part is not copied.
    values.resize((steps + rows, values.shape[1]), refcheck=False)
    parts = [values[steps:]]
    if times is not None:
        times = np.concatenate([times, np.empty(rows)])
        parts.append(times[steps:])
    for part in parts:
        if child.stdout.readinto(part) != part.nbytes:
            return None
    return (values, times) if child.wait() == 0 else None


def _part_main(path, start, stop, first, width) -> None:
    """A reader child's part of a speed file, bytes start..stop
    (_part_lines, _read_part): writes its row count as int64 to stdout,
    then its values and, with a time column, its timestamps as raw float64.
    A part that fails raises before anything is written."""
    first, width = int(first), int(width)
    values, times = _read_part(_part_lines(path, int(start), int(stop)), first, width)
    out = sys.stdout.buffer
    out.write(len(values).to_bytes(8, "little"))
    out.write(values)
    if times is not None:
        out.write(times)
    out.flush()


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


def write_speed_csv(
    path, series: StateSeries, sensor_ids: list[str] | None = None, decimals: int | None = None
) -> None:
    """Write a StateSeries as a speed CSV with a header row and an ISO-8601
    timestamp column; missing entries become empty cells. Values are written
    as their shortest round-trip repr, in blocks of _CSV_BLOCK_ROWS rows.

    Without decimals each value is written as it is (_block_text). With
    decimals, an int from 0 to 15, each value is first rounded as a sensor
    export is (_rounded_text): to np.round(v, decimals), but a nonzero value
    that would round to zero becomes +-10**-decimals, so that no reading
    reads back as missing, and a value of magnitude 2**52 or more stays as
    it is, so that scaling it cannot overflow. The bytes are still each
    rounded value's repr: numpy builds them where that is exact (for
    decimals=4, |v| < 1e9; the argument is _rounded_text's), and
    _block_text writes any block with a value outside that range.

    Raises:
        ValueError: sensor_ids of another length than the series' sensors,
            or decimals outside 0..15; nothing is written.
        TypeError: decimals that is no integer.
    """
    if sensor_ids is None:
        sensor_ids = [f"sensor_{s}" for s in range(series.size)]
    if len(sensor_ids) != series.size:
        raise ValueError(f"{len(sensor_ids)} sensor IDs given for {series.size} sensors")
    if decimals is not None and index(decimals) not in range(16):
        raise ValueError(f"decimals must be an int from 0 to 15, got {decimals!r}")
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["timestamp"] + list(sensor_ids))
        fh.flush()  # the rows go to the file's bytes
        out = fh.buffer
        for lo in range(0, series.steps, _CSV_BLOCK_ROWS):
            rows = slice(lo, lo + _CSV_BLOCK_ROWS)
            block = series.timestamps[rows], series.values[rows], series.mask[rows]
            out.write(_block_text(*block) if decimals is None else _rounded_text(*block, decimals))


def _thread_count() -> int:
    """GRAPHMARKOV_THREADS when it is a positive integer, else the number of
    CPUs this process may run on."""
    text = os.environ.get("GRAPHMARKOV_THREADS", "").strip()
    if text.isdigit() and int(text) > 0:
        return int(text)
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _block_text(stamps, values, mask) -> bytearray:
    """The CSV lines of a block of rows as bytes, encoded line by line into
    one buffer: each row's ISO-8601 timestamp, then the repr of each
    observed value and an empty cell for each missing one."""
    text = bytearray()
    for stamp, row, observed in zip(stamps.tolist(), values, mask):
        stamp = datetime.fromtimestamp(stamp, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")
        # str * True is the repr, str * False the empty cell of a missing entry.
        cells = ",".join(map(mul, map(repr, row.tolist()), observed.tolist()))
        text += f"{stamp},{cells}\r\n".encode()
    return text


# A value of this magnitude or more is written unrounded: scaled by
# 10**decimals it could overflow.
_UNROUNDED = 2.0**52
# numpy formats a block whose scaled values all lie below this (_rounded_text).
_EXACT_SCALED = 1e13
# Epoch seconds of 1000-01-01 and 10000-01-01 UTC: between them strftime's
# %Y and numpy both write a year as 4 digits.
_STAMP_RANGE = (-30610224000.0, 253402300800.0)


def _rounded_text(stamps, values, mask, decimals):
    """The CSV lines of a block of rows as _block_text writes them once each
    value v is rounded (write_speed_csv), built by numpy.

    Each rounded value r is the double nearest n / 10**decimals, where the
    integer n is rint(v * 10**decimals), or +-1 for a floored v. While |n|
    stays below 10**13, n and 10**decimals are exact doubles, so the decimal
    n / 10**decimals, written with its integer digits (divmod), its fraction
    digits up to the last nonzero one (at least one) and the sign of n,
    rounds to r. r's spacing is then below 10**-(decimals + 2), while every
    other decimal with as few digits lies at least 10**-decimals from that
    one, so none of them rounds to r: the decimal is repr(r), the shortest
    round trip, which repr writes without an exponent for 1e-4 <= |r| <
    1e16. For decimals=4 that holds for |v| < 1e9. A block with a value
    outside that range, or with a timestamp that is no whole second between
    the years 1000 and 9999, goes through _block_text instead. Empty cells
    are cut out with a keep-mask.
    """
    scale = 10**decimals
    rounds = np.abs(values) < _UNROUNDED
    scaled = np.where(rounds, values, np.inf)
    scaled *= scale
    np.rint(scaled, out=scaled)
    np.copyto(scaled, np.copysign(1.0, values), where=(scaled == 0.0) & (values != 0.0))
    size = np.abs(scaled)
    lo, hi = _STAMP_RANGE
    if (
        np.max(size, initial=0.0) >= _EXACT_SCALED
        or ((size > 0.0) & (size < 10.0 ** (decimals - 4))).any()
        or not ((stamps >= lo) & (stamps < hi) & (stamps == np.floor(stamps))).all()
    ):
        return _block_text(stamps, np.where(rounds, scaled / scale, values), mask)
    ints, fracs = np.divmod(size.astype(np.int64), scale)
    int_digits = len(str(np.max(ints, initial=0)))
    frac_digits = max(decimals, 1)
    width = int_digits + frac_digits + 3  # comma, sign and point
    rows, sensors = values.shape
    line = np.empty((rows, 19 + sensors * width + 2), np.uint8)
    keep = np.ones(line.shape, np.bool_)
    stamp_text = np.datetime_as_string(stamps.astype(np.int64).astype("datetime64[s]"))
    line[:, :19] = stamp_text.astype("S19").view(np.uint8).reshape(rows, 19)
    line[:, -2:] = np.frombuffer(b"\r\n", np.uint8)
    # Views of the cells of each row, so that writing them fills line and keep.
    cells = line[:, 19:-2].reshape(rows, sensors, width)
    kept = keep[:, 19:-2].reshape(rows, sensors, width)
    cells[:, :, 0] = ord(",")
    cells[:, :, 1] = ord("-")
    kept[:, :, 1] = mask & np.signbit(scaled)
    for j in range(int_digits):
        power = 10 ** (int_digits - 1 - j)
        cells[:, :, 2 + j] = ints // power % 10 + ord("0")
        # A leading zero is dropped, but not the units digit.
        kept[:, :, 2 + j] = mask & (ints >= power) if power > 1 else mask
    cells[:, :, 2 + int_digits] = ord(".")
    kept[:, :, 2 + int_digits] = mask
    for j in range(frac_digits):
        power = 10 ** (frac_digits - 1 - j)
        column = 3 + int_digits + j
        cells[:, :, column] = fracs // power % 10 + ord("0")
        # A trailing zero is dropped, but not the first fraction digit.
        kept[:, :, column] = mask & (fracs % (10 * power) != 0) if j else mask
    return line[keep]


def _start_child(main, *args):
    """A child process (subprocess.Popen) that runs main, a function of
    this module, on args as strings, with pipes for its stdin and stdout:
    the reader's second part (_part_main). It imports only this package, on
    this process's sys.path, so a caller's __main__ is never run again; its
    BLAS pool has one thread."""
    import subprocess  # only a split read needs it; the module's importers never load it

    from . import _BLAS_THREAD_VARS

    code = (
        f"import sys; sys.path[:] = {sys.path!r}\n"
        f"from graphmarkov.data import {main.__name__} as main; main(*sys.argv[1:])"
    )
    return subprocess.Popen(
        [sys.executable, "-I", "-c", code, *map(str, args)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=dict(os.environ, GRAPHMARKOV_THREADS="1", **dict.fromkeys(_BLAS_THREAD_VARS, "1")),
    )


def _stop(child) -> None:
    """Kill child unless it has ended, reap it and close its pipes."""
    child.kill()
    child.wait()
    child.stdout.close()
    try:
        child.stdin.close()
    except BrokenPipeError:  # the data a dead child never read
        pass


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
