"""State-sequence ingestion, masking, missing-value injection, normalization,
temporal splitting, and windowing into last-observation datasets.

A state series is a T x S matrix of sensor readings plus a boolean mask of the
same shape; missing readings are zero-filled so that values * mask == values
always holds. Operations never mutate a series; they return new ones.
"""

import codecs
import csv
import hashlib
import io
import math
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from itertools import chain, islice
from operator import index, mul

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
            wide, narrow = np.argmax(gaps), np.argmin(gaps)
            if gaps[wide] - gaps[narrow] > 1e-6:
                raise ValueError(
                    f"timestamps must have constant spacing: step {wide + 1} follows a gap of "
                    f"{float(gaps[wide])!r} s, step {narrow + 1} a gap of {float(gaps[narrow])!r} s"
                )
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

    The file is read once, in pieces of _PIECE_BYTES. The csv module reads
    the header and the first two data rows (_read_rows), and numpy parses
    the rest on _thread_count() threads into the values float() gives
    (_read_body). From the first group of pieces that numpy turns down (a
    quote, or any fault) to the end of the file, the csv module carries on
    row by row, and raises the error below. Memory is set by the series, not
    by the text, for a file and a pipe alike.

    Raises:
        ValueError: ragged rows, unparseable or non-finite values, bytes
            that are not UTF-8, or non-monotonic timestamps. Row and column
            numbers count data rows and sensor columns from 0.
    """
    with open(path, "rb") as fh:
        pieces, taken = _pieces(fh), []
        lines = _lines(chain([next(pieces, b"").removeprefix(codecs.BOM_UTF8)], pieces), taken)
        first, width, rows = _sniff(path, filter(None, _csv_rows(path, lines)))
        values, times = _read_rows(path, rows, first, width, 0, 2)
        piece, end = taken
        _read_body(path, chain([piece[end:]], pieces), values, times, first, width)
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


# Rows per block of the speed CSV writer: large enough that the per-block
# overhead vanishes, small enough that its scratch arrays in the rounding
# writer (_rounded_text, about 1 MB each) stay well below the series itself.
# At 2,048 rows the rounding writer raised simulate's peak RSS by 13 MB.
_CSV_BLOCK_ROWS = 512

# Bytes of a speed file read at a time by ingest_csv, and parsed by one thread.
_PIECE_BYTES = 1 << 20
# The longest value cell _decimals parses, so at most 27 digits after the
# point; of its digits, the last 19 spell an integer below 10**19 < 2**64.
_DECIMAL_BYTES = 28
# 10**f for f < _DECIMAL_BYTES, by products exact up to 10**22 as doubles
# (5**22 < 2**53; _decimals uses no larger one) and as long doubles (5**27 < 2**64).
_POW10_DOUBLE = np.cumprod([1.0] + [10.0] * (_DECIMAL_BYTES - 1))
_POW10_LONG = np.cumprod(np.array([1] + [10] * (_DECIMAL_BYTES - 1), dtype=np.longdouble))
# Whether a long double holds every integer below 2**64 (x86's 80-bit one).
_EXTENDED = np.finfo(np.longdouble).nmant >= 63


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


def _pieces(fh):
    """fh's bytes, read _PIECE_BYTES at a time and cut after the last \\n or
    \\r of each read (a \\r\\n cut in two adds a blank line, which is
    skipped); only the last piece may end without a line end."""
    rest = b""
    for chunk in iter(lambda: fh.read(_PIECE_BYTES), b""):
        end = max(chunk.rfind(b"\n"), chunk.rfind(b"\r")) + 1
        if end:
            yield b"".join((rest, memoryview(chunk)[:end]))
            rest = chunk[end:]
        else:
            rest += chunk
    if rest:
        yield rest


def _lines(pieces, taken):
    """The lines of pieces as open(..., newline="", encoding="utf-8") reads
    them; taken holds the last line's piece and the offset after it."""
    for piece in pieces:
        taken[:] = [piece, 0]
        for line in piece.splitlines(keepends=True):
            taken[1] += len(line)
            yield line.decode()


def _read_rows(path, rows, first, width, t, stop=None) -> tuple:
    """Values and timestamps (None without a time column) of the csv rows
    from data row t on, at most stop of them, read one at a time by float()
    (_read_row): the exact reader.

    Raises:
        ValueError: a ragged row anywhere in rows before any bad cell; else
            the first row's bad timestamp or cell (_read_row).
    """
    value_rows, stamps = [], []
    for t, row in enumerate(islice(rows, stop), t):
        if len(row) != width:
            _check_widths(path, width, chain([row], rows))
        try:
            values, stamp = _read_row(path, row, first, t)
        except ValueError:
            _check_widths(path, width, rows)
            raise
        value_rows.append(np.array(values))  # an array a row: Python floats take 4 times the memory
        stamps.append(stamp)
    values = np.stack(value_rows) if value_rows else np.zeros((0, width - first))
    values += 0.0  # -0.0 + 0.0 is 0.0
    return values, np.array(stamps) if first else None


def _read_body(path, pieces, values, times, first, width) -> None:
    """values and times grown in place by the rows of pieces, parsed
    _thread_count() pieces at a time (_read_piece): workers parse all but
    the last, which this thread parses (a worker's malloc arena keeps what
    it frees). From a group with a piece turned down, or a worker that
    cannot start, the csv module reads the rest of the file (_read_rows)."""
    from concurrent.futures import ThreadPoolExecutor  # imported only by a reader
    threads = _thread_count()
    pieces = filter(None, pieces)
    with ThreadPoolExecutor(max(threads - 1, 1)) as pool:
        for group in iter(lambda: list(islice(pieces, threads)), []):
            try:
                parsed = [pool.submit(_read_piece, piece, first, width) for piece in group[:-1]]
                parts = [_read_piece(group[-1], first, width)]
                parts[:0] = [future.result() for future in parsed]
            except (ValueError, RuntimeError):  # RuntimeError: "can't start new thread"
                rows = filter(None, _csv_rows(path, _lines(chain(group, pieces), [])))
                parts = [_read_rows(path, rows, first, width, len(values))]
            while parts:  # each part freed once copied
                for a, more in zip((values, times), parts.pop(0)):
                    if a is not None:
                        a.resize((len(a) + len(more),) + a.shape[1:], refcheck=False)
                        a[len(a) - len(more) :] = more


def _read_piece(piece, first, width) -> tuple:
    """Values and timestamps (None without a time column) of a piece's
    lines, ended by \\n, \\r or \\r\\n (blank ones skipped; the file's last
    line may have no end); byte compares find the cells. Raises ValueError
    for a quote, a ragged row, a cell over the csv field limit, or a cell or
    timestamp the exact reader (_read_rows) may read otherwise."""
    if b'"' in piece:
        raise ValueError("a quote")
    if not piece.endswith((b"\n", b"\r")):
        piece += b"\n"
    text = np.frombuffer(piece, np.uint8)
    low = np.flatnonzero(text < ord("-"))  # few bytes of a number but the separators
    byte = text[low]
    line = (byte == ord("\n")) | (byte == ord("\r"))
    is_end = line | (byte == ord(","))
    ends, line_end = low[is_end], line[is_end]
    del low, byte, line, is_end  # freed before the cell arrays: a lower peak per piece
    sizes = np.diff(ends, prepend=-1)
    sizes -= 1
    blank = line_end & (sizes == 0)  # an empty cell that a line end ends...
    blank[1:] &= line_end[:-1]  # ...right after a line end
    if blank.any():
        keep = ~blank
        ends, sizes, line_end = ends[keep], sizes[keep], line_end[keep]
    rows = np.count_nonzero(line_end)
    if len(ends) != rows * width or not line_end[width - 1 :: width].all():
        raise ValueError("ragged rows")
    if sizes.max(initial=0) > csv.field_size_limit():
        raise ValueError("a cell over the csv field limit")
    if not rows:  # blank lines alone
        return np.empty((0, width - first)), np.empty(0) if first else None
    ends, sizes = ends.reshape(rows, width), sizes.reshape(rows, width)
    times = _stamp_values(piece, text, ends[:, 0] - sizes[:, 0], sizes[:, 0]) if first else None
    ends, sizes = ends[:, first:].ravel(), sizes[:, first:].ravel()
    return _cell_values(piece, text, ends, sizes).reshape(rows, width - first), times


def _cell_values(piece, text, ends, sizes) -> np.ndarray:
    """float() of each cell of piece, an empty or whitespace-only one (and
    -0) as 0: _decimals parses the cells of each size up to _DECIMAL_BYTES
    as one matrix, and float() the cells it leaves and longer ones. Raises
    ValueError where float() does or the value is not finite."""
    values = np.zeros(len(ends))
    slow = [np.flatnonzero(sizes > _DECIMAL_BYTES)]
    for size in np.flatnonzero(np.bincount(sizes, minlength=_DECIMAL_BYTES + 1)[1 : _DECIMAL_BYTES + 1]) + 1:
        cells = np.flatnonzero(sizes == size)
        part, parsed = _decimals(sliding_window_view(text, size)[ends[cells] - size])
        values[cells] = part
        slow.append(cells[~parsed])
    slow = np.concatenate(slow)
    for k, end, size in zip(slow.tolist(), ends[slow].tolist(), sizes[slow].tolist()):
        cell = piece[end - size : end].decode()
        values[k] = float(cell) if cell.strip() else 0.0
    if not np.isfinite(values[slow]).all():
        raise ValueError("a non-finite value")
    values += 0.0  # -0.0 + 0.0 is 0.0
    return values


def _decimals(cells) -> tuple:
    """The values of cells, a matrix of the bytes of cells of one size, and
    which of them are parsed; float() reads the others.

    A parsed cell is an optional "-" and digits with at most one "." among
    them, only 0s before its last 19 bytes. Its digits spell an integer
    m < 10**19, f of them after the point, and m / 10**f rounded once is
    float() of it (Clinger, PLDI 1990). For m < 2**53 and f <= 22, m and
    10.0**f are exact doubles and one division rounds. Else, where a long
    double has 64 bits, m and 10**f (f <= 27) are exact long doubles: their
    quotient q rounds once, and the double nearest q is the one nearest
    m / 10**f unless q is the midpoint between it and the double above or
    below (below a power of two that gap is half as wide). Those cells, and
    all such cells without that long double, go to float().
    """
    count, size = cells.shape
    cells -= ord("0")  # each digit's value; "." is 254 and "-" 253
    point = cells == (ord(".") - ord("0")) % 256
    cells += point
    cells += point  # the point becomes a 0 digit
    points = np.count_nonzero(point)
    column = point[0].argmax()
    if points == count and np.count_nonzero(point[:, column]) == count:
        # A point in each cell, in one column, as fixed decimals are written.
        frac, dotted, scale = size - 1 - int(column), True, None
    else:
        at = point.argmax(1)
        dotted = point[:, 0] | (at > 0)
        frac = (size - 1 - at) * dotted
        scale = 10 - 9 * point.view(np.uint8)  # 1 where the point is, which adds no digit
    parsed = np.full(count, True) & (size - dotted >= 1)  # a digit at least
    if scale is not None and points != np.count_nonzero(dotted):
        parsed &= point.sum(1) <= 1
    del point
    negative = False
    if cells.max() >= 10:
        minus = cells == (ord("-") - ord("0")) % 256
        negative = minus[:, 0].copy()
        cells += 3 * minus.view(np.uint8)  # the minus becomes a 0 digit
        parsed &= (minus.sum(1) == negative) & (cells < 10).all(1) & (size - dotted - negative >= 1)
    lead = max(size - 19, 0)  # columns that must hold 0 digits, so m < 10**19
    if lead:
        parsed &= ~cells[:, :lead].any(1)
    m = np.zeros(count, np.uint64)
    for j in range(lead, size):
        if scale is not None:
            m *= scale[:, j]
        elif j != column:
            m *= np.uint64(10)
        m += cells[:, j]
    values = m.astype(np.float64)
    values /= _POW10_DOUBLE[frac]
    wide = np.flatnonzero((m >= np.uint64(2**53)) | (frac > 22))
    if wide.size and _EXTENDED:
        q = m[wide].astype(np.longdouble) / np.broadcast_to(_POW10_LONG[frac], m.shape)[wide]
        values[wide] = near = q.astype(np.float64)
        # Two adjacent doubles sum and halve exactly in a long double.
        above = (near.astype(np.longdouble) + np.nextafter(near, np.inf)) / 2
        below = (near.astype(np.longdouble) + np.nextafter(near, -np.inf)) / 2
        parsed[wide[(q == above) | (q == below)]] = False
    elif wide.size:
        parsed[wide] = False
    np.negative(values, out=values, where=negative)
    return values, parsed


def _stamp_values(piece, text, starts, sizes) -> np.ndarray:
    """_parse_iso of each time cell of piece; ValueError if one does not
    parse. Cells of 19 bytes each are parsed by numpy at once if written back
    they give the same bytes (YYYY-MM-DDTHH:MM:SS, each field in range) and
    no year is below 1, which datetime cannot hold."""
    if len(starts) and (sizes == 19).all():
        cells = sliding_window_view(text, 19)[starts].view("S19").ravel()
        try:
            stamps = cells.astype("datetime64[s]")
            if (cells >= b"0001").all() and (np.datetime_as_string(stamps).astype("S19") == cells).all():
                return stamps.astype(np.int64).astype(np.float64)
        except ValueError:  # numpy cannot read a cell; _parse_iso decides
            pass
    stamps = [_parse_iso(piece[a : a + n].decode()) for a, n in zip(starts.tolist(), sizes.tolist())]
    if None in stamps:
        raise ValueError("a timestamp that does not parse")
    return np.array(stamps, dtype=np.float64)


def _csv_rows(path, fh):
    """csv.reader's rows of fh; its csv.Error (a field over the size limit,
    as an unbalanced quote makes), and bytes that are not UTF-8, raised as a
    ValueError naming the file."""
    try:
        yield from csv.reader(fh)
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _check_widths(path, width, rows) -> None:
    widths = {width}
    widths.update(map(len, rows))
    if len(widths) != 1:
        raise ValueError(f"speed file {path} has ragged rows (widths {sorted(widths)})")


def _read_row(path, row, first, t) -> tuple:
    """The cell values (a list) and timestamp (None without a time column)
    of data row t; an empty or whitespace-only cell reads as 0. Raises
    ValueError for the row's bad timestamp, else its first unparseable or
    non-finite cell, naming its data row and sensor column."""
    stamp = _parse_iso(row[0]) if first else None
    if first and stamp is None:
        raise ValueError(f"unparseable timestamp {row[0]!r} at data row {t}")
    values = []
    for s, cell in enumerate(row[first:]):
        try:
            values.append(float(cell) if cell.strip() else 0.0)
        except ValueError:
            raise ValueError(f"unparseable value {cell!r} at data row {t}, column {s}") from None
        if not math.isfinite(values[-1]):
            raise ValueError(f"speed file {path} has a non-finite value {cell!r} at data row {t}, column {s}")
    return values, stamp


def write_speed_csv(
    path, series: StateSeries, sensor_ids: list[str] | None = None, decimals: int | None = None
) -> str:
    """Write a StateSeries as a speed CSV with a header row and an ISO-8601
    timestamp column; missing entries become empty cells. Values are written
    as their shortest round-trip repr, in blocks of _CSV_BLOCK_ROWS rows.
    Returns the sha256 hex digest of the bytes written, header included.

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
            decimals outside 0..15, or a non-finite reading, which
            ingest_csv would refuse (named by data row and sensor column,
            from 0); nothing is written.
        TypeError: decimals that is no integer.
    """
    if sensor_ids is None:
        sensor_ids = [f"sensor_{s}" for s in range(series.size)]
    if len(sensor_ids) != series.size:
        raise ValueError(f"{len(sensor_ids)} sensor IDs given for {series.size} sensors")
    if decimals is not None and index(decimals) not in range(16):
        raise ValueError(f"decimals must be an int from 0 to 15, got {decimals!r}")
    values = series.values
    # max and min both propagate NaN and allocate nothing.
    if not (np.isfinite(values.max(initial=0.0)) and np.isfinite(values.min(initial=0.0))):
        t, s = np.argwhere(~np.isfinite(values))[0]
        raise ValueError(
            f"cannot write the non-finite value {float(values[t, s])!r} at data row {t}, column {s}"
        )
    header = io.StringIO()
    csv.writer(header).writerow(["timestamp"] + list(sensor_ids))
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        def write(text) -> None:
            fh.write(text)
            digest.update(text)
        write(header.getvalue().encode())
        for lo in range(0, series.steps, _CSV_BLOCK_ROWS):
            rows = slice(lo, lo + _CSV_BLOCK_ROWS)
            block = series.timestamps[rows], series.values[rows], series.mask[rows]
            write(_block_text(*block) if decimals is None else _rounded_text(*block, decimals))
    return digest.hexdigest()


def _thread_count() -> int:
    """GRAPHMARKOV_THREADS when it is a positive integer (the rule that caps
    the BLAS pool), else the number of CPUs this process may run on."""
    from . import _threads_setting  # the package reads it before numpy loads

    if threads := _threads_setting():
        return threads
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
    normalization stats and the label-step timestamps of the test part.

    Each part is normalized and windowed the first time it is read, so a
    command pays only for the parts it uses. `parts` are the series' own
    train, val and test parts and `gates` their injected observation masks.
    """

    parts: tuple
    gates: tuple
    stats: NormStats
    n: int

    def _windows(self, k: int) -> LastObservations:
        return last_observations(normalize(self.parts[k], self.stats), self.n, self.gates[k])

    @cached_property
    def train(self) -> LastObservations:
        return self._windows(0)

    @cached_property
    def val(self) -> LastObservations:
        return self._windows(1)

    @cached_property
    def test(self) -> LastObservations:
        return self._windows(2)

    @property
    def test_label_times(self) -> np.ndarray:
        return self.parts[2].timestamps[self.n :]


def prepare_datasets(
    series: StateSeries,
    n: int,
    missing_rate: float,
    seed: int,
    spec: SplitSpec | None = None,
) -> DatasetBundle:
    """Full data pipeline: inject missingness, normalize with training-split
    stats, split contiguously, and window each part (on first read).

    Injection corrupts inputs only: each part is windowed behind the mask of
    the injected series, while labels and label masks stay the series' own,
    so injected entries still serve as labels while genuinely unknown ones
    stay excluded from the loss. Injection runs over the whole series, so
    the draws do not depend on the split; the training part of the injected
    series gives the stats.
    """
    if spec is None:
        spec = SplitSpec()
    gates = split(inject_missing(series, missing_rate, seed), spec)
    stats = observed_stats(gates[0])
    # Only the injected masks are kept; the values are freed.
    return DatasetBundle(split(series, spec), tuple(g.mask for g in gates), stats, n)


# 17 significant digits, which round-trip an IEEE double: the one float format
# of checkpoints, training histories and result CSVs.
_FLOAT_FORMAT = "%.17g"


def _fmt(v: float) -> str:
    """v in _FLOAT_FORMAT."""
    return _FLOAT_FORMAT % float(v)


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
