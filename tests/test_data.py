"""Tests for series validation, CSV ingestion, missing-value injection,
normalization, splitting, and last-observation windowing."""

import hashlib
import math
import os
import random
import re
import subprocess
import threading
import tracemalloc
from datetime import datetime, timedelta
from decimal import Decimal

import numpy as np
import pytest

from graphmarkov import data as data_module
from graphmarkov.data import (
    LastObservations,
    NormStats,
    SplitSpec,
    StateSeries,
    denormalize,
    ingest_csv,
    last_observations,
    normalize,
    prepare_datasets,
    split,
    synthesize_timestamps,
    write_speed_csv,
)

from oracles import (
    gated_lags,
    ingest_csv_reference,
    inject_missing,
    masked_mse,
    observed_stats,
    series_windows,
    write_speed_csv_reference,
)


def assert_read_only_bool(mask):
    assert mask.dtype == np.bool_
    assert not mask.flags.writeable


def make_series(values, mask=None):
    values = np.asarray(values, dtype=float)
    if mask is None:
        mask = np.ones_like(values)
    return StateSeries(
        values=values * np.asarray(mask),
        mask=np.asarray(mask, dtype=float),
        timestamps=synthesize_timestamps(values.shape[0]),
    )


class TestStateSeries:
    def test_basic_properties(self):
        s = make_series(np.arange(12.0).reshape(4, 3))
        assert s.steps == 4
        assert s.size == 3

    def test_rejects_unzeroed_missing(self):
        with pytest.raises(ValueError, match="zero-filled"):
            StateSeries(
                values=np.array([[1.0, 2.0]]),
                mask=np.array([[1.0, 0.0]]),
                timestamps=np.array([0.0]),
            )

    def test_rejects_nonbinary_mask(self):
        for entry in (0.5, 2.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="0 or 1"):
                StateSeries(
                    values=np.array([[1.0]]),
                    mask=np.array([[entry]]),
                    timestamps=np.array([0.0]),
                )

    def test_mask_is_stored_as_read_only_bool(self):
        """A 0/1 mask of any dtype is stored as bool; a read-only bool mask
        is shared."""
        for mask in ([[1.0, 0.0]], np.array([[1, 0]]), np.array([[True, False]])):
            s = StateSeries(np.array([[2.0, 0.0]]), mask, np.array([0.0]))
            assert_read_only_bool(s.mask)
            np.testing.assert_array_equal(s.mask, [[True, False]])
        assert StateSeries(s.values, s.mask, s.timestamps).mask is s.mask

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            StateSeries(
                values=np.ones((3, 2)),
                mask=np.ones((2, 2)),
                timestamps=np.zeros(3),
            )

    def test_rejects_irregular_timestamps(self):
        message = "spacing: step 2 follows a gap of 600.0 s, step 1 a gap of 300.0 s"
        with pytest.raises(ValueError, match=message):
            StateSeries(
                values=np.ones((3, 1)),
                mask=np.ones((3, 1)),
                timestamps=np.array([0.0, 300.0, 900.0]),
            )
        with pytest.raises(ValueError, match="increasing"):
            StateSeries(
                values=np.ones((3, 1)),
                mask=np.ones((3, 1)),
                timestamps=np.array([0.0, 300.0, 300.0]),
            )

    def test_arrays_are_immutable(self):
        s = make_series(np.ones((2, 2)))
        with pytest.raises(ValueError):
            s.values[0, 0] = 5.0

    def test_writable_inputs_are_copied(self):
        """A caller's writable array, or a read-only view of one, cannot
        change the series afterwards."""
        values = np.ones((3, 2))
        view = values.view()
        view.setflags(write=False)
        s = StateSeries(values=values, mask=np.ones((3, 2)), timestamps=synthesize_timestamps(3))
        t = StateSeries(values=view, mask=np.ones((3, 2)), timestamps=synthesize_timestamps(3))
        values[0, 0] = 7.0
        np.testing.assert_array_equal(s.values, 1.0)
        np.testing.assert_array_equal(t.values, 1.0)


class TestIngestCsv:
    def test_header_and_timestamp_column(self, tmp_path):
        path = tmp_path / "speed.csv"
        path.write_text(
            "timestamp,s0,s1\n"
            "2024-03-01T00:00:00,61.5,55.0\n"
            "2024-03-01T00:05:00,,54.0\n"
            "2024-03-01T00:10:00,0,53.5\n"
        )
        s = ingest_csv(path)
        assert s.steps == 3 and s.size == 2
        np.testing.assert_array_equal(s.mask, [[1, 1], [0, 1], [0, 1]])
        np.testing.assert_array_equal(s.values[:, 0], [61.5, 0.0, 0.0])
        assert s.timestamps[1] - s.timestamps[0] == 300.0

    def test_bare_numeric_grid(self, tmp_path):
        """No header, no timestamp column: every cell is data and timestamps
        are synthesized at 5-minute spacing."""
        path = tmp_path / "grid.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        s = ingest_csv(path)
        assert s.steps == 2 and s.size == 2
        np.testing.assert_array_equal(s.timestamps, [0.0, 300.0])

    def test_zero_means_missing(self, tmp_path):
        path = tmp_path / "z.csv"
        path.write_text("1.0,0\n0.0,2.0\n")
        s = ingest_csv(path)
        np.testing.assert_array_equal(s.mask, [[1, 0], [0, 1]])
        np.testing.assert_array_equal(s.values, [[1.0, 0.0], [0.0, 2.0]])

    def test_mask_is_read_only_bool(self, tmp_path):
        path = tmp_path / "z.csv"
        path.write_text("1.0,0\n0.0,2.0\n")
        assert_read_only_bool(ingest_csv(path).mask)

    def test_rejects_ragged(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match="ragged"):
            ingest_csv(path)

    def test_rejects_garbage_cell(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(ValueError, match="unparseable"):
            ingest_csv(path)

    def test_dropped_row_names_the_irregular_steps(self, tmp_path):
        """A row missing from a 5-minute export leaves one 10-minute gap; the
        error names the step after it and the step after a 5-minute one."""
        rows = stamped(["1,2", "3,4", "5,6", "7,8", "9,10"])
        path = tmp_path / "speed.csv"
        path.write_text("timestamp,s0,s1\n" + lines(rows[:3] + rows[4:]))
        message = (
            "timestamps must have constant spacing: "
            "step 3 follows a gap of 600.0 s, step 1 a gap of 300.0 s"
        )
        with pytest.raises(ValueError) as err:
            ingest_csv(path)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            ingest_csv_reference(path)
        assert str(err.value) == message

    def test_rejects_backwards_timestamps(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text(
            "timestamp,s0\n"
            "2024-03-01T00:05:00,1.0\n"
            "2024-03-01T00:00:00,2.0\n"
        )
        with pytest.raises(ValueError, match="monotonic"):
            ingest_csv(path)

    def test_round_trip_through_writer(self, tmp_path):
        rng = np.random.default_rng(31)
        values = rng.random((6, 4)) + 0.5
        mask = (rng.random((6, 4)) < 0.8).astype(float)
        original = StateSeries(
            values=values * mask,
            mask=mask,
            timestamps=synthesize_timestamps(6),
        )
        path = tmp_path / "rt.csv"
        write_speed_csv(path, original)
        back = ingest_csv(path)
        np.testing.assert_array_equal(back.mask, original.mask)
        np.testing.assert_allclose(back.values, original.values, rtol=0, atol=0)
        np.testing.assert_array_equal(back.timestamps, original.timestamps)

    @pytest.mark.parametrize("ids", [["a", "b"], ["a", "b", "c", "d", "e"]])
    def test_writer_rejects_sensor_id_count(self, tmp_path, ids):
        series = make_series(np.ones((3, 4)))
        path = tmp_path / "speed.csv"
        with pytest.raises(ValueError, match=f"{len(ids)} sensor IDs given for 4 sensors"):
            write_speed_csv(path, series, sensor_ids=ids)
        assert not path.exists()

    @pytest.mark.parametrize("decimals, error", [(-1, ValueError), (16, ValueError), (4.0, TypeError)])
    def test_writer_rejects_decimals(self, tmp_path, decimals, error):
        path = tmp_path / "speed.csv"
        with pytest.raises(error):
            write_speed_csv(path, make_series(np.ones((3, 4))), decimals=decimals)
        assert not path.exists()

    @pytest.mark.parametrize("decimals", [None, 4], ids=["repr", "4-decimals"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_writer_rejects_non_finite_readings(self, tmp_path, bad, decimals):
        """ingest_csv would refuse the cell, so nothing is written, and the
        error names its data row and sensor column as the reader does."""
        values = np.ones((3, 4))
        values[2, 1] = 7.0
        path = tmp_path / "speed.csv"
        write_speed_csv(path, make_series(values))
        path.write_text(path.read_text().replace("7.0", repr(bad)))
        with pytest.raises(ValueError, match="at data row 2, column 1$"):
            ingest_csv(path)
        path.unlink()
        values[2, 1] = bad
        with pytest.raises(ValueError) as err:
            write_speed_csv(path, make_series(values), decimals=decimals)
        assert str(err.value) == f"cannot write the non-finite value {bad!r} at data row 2, column 1"
        assert not path.exists()

    @pytest.mark.parametrize("decimals", [None, 4], ids=["repr", "4-decimals"])
    @pytest.mark.parametrize("ids", [None, ["a,b", 'say "hi"', "plain"]], ids=["default-ids", "quoted-ids"])
    def test_writer_returns_the_digest_of_its_bytes(self, tmp_path, ids, decimals):
        """Three blocks of rows after the header."""
        series = tiled_series([1 / 7, 64.375, 1e-05], 2 * data_module._CSV_BLOCK_ROWS + 1, 0.3)
        path = tmp_path / "speed.csv"
        digest = write_speed_csv(path, series, sensor_ids=ids, decimals=decimals)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_writer_returns_the_digest_of_what_a_pipe_got(self):
        read_end, write_end = os.pipe()
        with os.fdopen(read_end, "rb") as pipe:
            try:
                digest = write_speed_csv(f"/dev/fd/{write_end}", tiled_series([2.5, 1e-05], 5, 0.3))
            finally:
                os.close(write_end)
            assert digest == hashlib.sha256(pipe.read()).hexdigest()

    @pytest.mark.parametrize("corner", ["", " "], ids=["empty", "space"])
    def test_pandas_export_header(self, tmp_path, corner):
        """DataFrame.to_csv() heads its index column with an empty cell, and
        METR-LA/PEMS-BAY sensor IDs are numeric."""
        path = tmp_path / "speed.csv"
        path.write_text(
            f"{corner},773869,767541\n"
            "2012-03-01 00:00:00,64.375,67.625\n"
            "2012-03-01 00:05:00,62.667,\n"
        )
        s = ingest_csv(path)
        np.testing.assert_array_equal(s.values, [[64.375, 67.625], [62.667, 0.0]])
        np.testing.assert_array_equal(s.mask, [[1, 1], [1, 0]])
        assert s.timestamps[1] - s.timestamps[0] == 300.0

    def test_numeric_sensor_ids_round_trip(self, tmp_path):
        """The writer's own header, `timestamp,773869,767541`, is read as a
        header although every sensor ID is numeric."""
        rng = np.random.default_rng(41)
        mask = (rng.random((5, 2)) < 0.7).astype(float)
        original = make_series(rng.random((5, 2)) * 60.0 + 5.0, mask)
        path = tmp_path / "speed.csv"
        write_speed_csv(path, original, ["773869", "767541"])
        assert path.read_text().splitlines()[0] == "timestamp,773869,767541"
        back = ingest_csv(path)
        np.testing.assert_array_equal(back.values, original.values)
        np.testing.assert_array_equal(back.mask, original.mask)
        np.testing.assert_array_equal(back.timestamps, original.timestamps)

    def test_numeric_grid_with_empty_first_cell_has_no_header(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text(",2\n3,4\n")
        s = ingest_csv(path)
        np.testing.assert_array_equal(s.mask, [[0, 1], [1, 1]])
        np.testing.assert_array_equal(s.values, [[0.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "1e999"])
    def test_rejects_non_finite_cell(self, tmp_path, cell):
        path = tmp_path / "nf.csv"
        path.write_text(
            f"timestamp,s0,s1\n2024-03-01T00:00:00,1.0,2.0\n2024-03-01T00:05:00,3.0,{cell}\n"
        )
        with pytest.raises(ValueError, match="non-finite") as err:
            ingest_csv(path)
        assert str(path) in str(err.value)
        assert "data row 1, column 1" in str(err.value)

    @pytest.mark.parametrize(
        "text",
        [
            "2012-03-01T00:00:00,61.5,55.0\n2012-03-01T00:05:00,,54.0\n2012-03-01T00:10:00,60.0,53.5\n",
            "timestamp,s0,s1\n2012-03-01T00:00:00,61.5,55.0\n2012-03-01T00:05:00,,54.0\n",
            "61.5,55.0\n,54.0\n60.0,53.5\n",
        ],
        ids=["headerless-timestamped", "header", "bare-grid"],
    )
    def test_byte_order_mark_is_stripped(self, tmp_path, text):
        """A UTF-8 byte-order mark in front of the first cell neither turns
        a data row into a header nor fails the file."""
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        expected, got = ingest_csv(plain), ingest_csv(marked)
        assert got.steps == text.count("\n") - text.startswith("timestamp")
        for name in ("values", "mask", "timestamps"):
            np.testing.assert_array_equal(getattr(got, name), getattr(expected, name))

    def test_over_long_field_is_a_value_error(self, tmp_path):
        """An unbalanced quote runs its field past the csv module's size
        limit, whose csv.Error is no ValueError; the reader names the file."""
        path = tmp_path / "quote.csv"
        path.write_text('timestamp,s0\n2024-03-01T00:00:00,"61.5\n' + "2024-03-01T00:05:00,61.5\n" * 6000)
        with pytest.raises(ValueError, match=r"quote\.csv: field larger than field limit"):
            ingest_csv(path)

    def test_sensor_ids_are_utf8_whatever_the_locale(self, tmp_path, monkeypatch):
        """With a latin-1 default for text files, the header is still written
        as UTF-8, and the file reads back."""
        def latin1_open(file, mode="r", **kwargs):
            if "b" not in mode:
                kwargs.setdefault("encoding", "latin-1")
            return open(file, mode, **kwargs)

        monkeypatch.setattr(data_module, "open", latin1_open, raising=False)
        series = tiled_series([61.5, 2.25], 4, 0.3)
        path = tmp_path / "speed.csv"
        write_speed_csv(path, series, sensor_ids=["caf\u00e9", "\u65e5"])
        assert path.read_bytes().startswith("timestamp,caf\u00e9,\u65e5\r\n".encode("utf-8"))
        back = ingest_csv(path)
        for name in ("values", "mask", "timestamps"):
            np.testing.assert_array_equal(getattr(back, name), getattr(series, name))

    @pytest.mark.parametrize(
        "text",
        [b"caf\xe9,b\n1,2\n3,4\n", b"a,b\n1,\xe9\n3,4\n", b"a,b\n1,2\n3,4\n5,6\n7,\xe9\n9,10\n"],
        ids=["header", "head-row", "later-row"],
    )
    def test_bytes_that_are_not_utf8_are_a_value_error(self, tmp_path, text):
        """The error names the file, as every other fault does."""
        path = tmp_path / "latin.csv"
        path.write_bytes(text)
        with pytest.raises(ValueError, match=r"latin\.csv: 'utf-8' codec can't decode") as err:
            ingest_csv(path)
        assert not isinstance(err.value, UnicodeDecodeError)


@pytest.fixture(params=[None, 2, 3], ids=["default-block", "block-2", "block-3"])
def block_rows(request, monkeypatch):
    """The writer's block size: the module default, or shrunk so that tiny
    series span several blocks. good_files and bad_files place their faults
    by it, so the readers see each file in three shapes."""
    if request.param is not None:
        monkeypatch.setattr(data_module, "_CSV_BLOCK_ROWS", request.param)
    return data_module._CSV_BLOCK_ROWS


def tiled_series(cells, steps, missing):
    """steps rows of the cells repeated in row-major order, a seeded share
    of them missing."""
    values = np.resize(np.array(cells), (steps, len(cells)))
    mask = (np.random.default_rng(37).random(values.shape) >= missing).astype(float)
    return StateSeries(values=values * mask, mask=mask, timestamps=synthesize_timestamps(steps))


def rounded_readings(values, decimals):
    """Each value as np.round rounds it, but a nonzero value that would
    round to zero as +-10**-decimals, and one of magnitude 2**52 or more
    unchanged, computed one Python float at a time."""
    out = []
    for v in values.ravel().tolist():
        if abs(v) >= 2.0**52:
            out.append(v)
            continue
        r = float(np.round(v, decimals))
        out.append(math.copysign(10.0**-decimals, v) if r == 0.0 and v != 0.0 else r)
    return np.array(out).reshape(values.shape)


def no_block_text(*block):
    raise AssertionError("a block was formatted by _block_text")


READ_ROWS = data_module._read_rows


def no_csv_past_the_head(path, rows, first, width, t, stop=None):
    """_read_rows for the head alone: the csv module reading on from a
    later data row fails the test."""
    if t:
        raise AssertionError(f"{path} was read by the csv module from data row {t}")
    return READ_ROWS(path, rows, first, width, t, stop)


def csv_starts(monkeypatch):
    """The list, filled as ingest_csv runs, of each data row past the head
    from which the csv module reads on (_read_rows)."""
    starts = []

    def read_rows(path, rows, first, width, t, stop=None):
        if t:
            starts.append(t)
        return READ_ROWS(path, rows, first, width, t, stop)

    monkeypatch.setattr(data_module, "_read_rows", read_rows)
    return starts


def ingest_outcome(read, path):
    """The exact bytes of what a reader returns, or its exception type and
    message."""
    try:
        s = read(path)
    except Exception as err:
        return type(err), str(err)
    return s.values.shape, s.values.tobytes(), s.mask.tobytes(), s.timestamps.tobytes()


def stamped(rows, lo=0):
    """rows behind ISO timestamps 5 minutes apart, the first at step lo."""
    start = datetime(2024, 3, 1)
    return [
        f"{(start + timedelta(minutes=5 * (lo + t))).isoformat()},{row}"
        for t, row in enumerate(rows)
    ]


def lines(rows, end="\n"):
    return "".join(row + end for row in rows)


def good_files(block):
    """Speed files the reader must read exactly as the reference does; several
    of them run past the first block."""
    grid = [f"{t + 1}.5,{t % 7},{t * 0.25}" for t in range(block + 3)]
    padded = grid[: block + 1] + [" 7.5 , ,\t2", "  ,\t 0 , 1e1 "]
    long_grid = [f"{t},{t + 1}" for t in range(1, 40)]
    return {
        "header-time": "timestamp,s0,s1\n"
        + lines(stamped(["61.5,55.0", ",54.0", "0,53.5", "1e-05,2"])),
        "header-no-time": "a,b\n1,2\n3,\n0,4\n",
        "time-no-header": lines(stamped(["1,2", "3,4", ",5", "6,0"])),
        "bare-grid": lines(grid),
        "header-time-long": "t,x,y,z\n" + lines(stamped(grid)),
        "blank-lines": "\n1,2\n\n3,4\n\n\n5,6\n\n",
        "crlf": "a,b\r\n1,2\r\n3,4\r\n5,\r\n",
        "crlf-time": lines(stamped(["1,2", "3,4", "5,6"]), end="\r\n"),
        "whitespace-cells": "1, ,2\n 3,\t,4 \n5,6,  \n-0,0, \n7,8,9\n",
        "whitespace-cells-second-block": "t,x,y,z\n" + lines(stamped(padded)),
        "zero-spellings": "0,0.0,-0,0e5,-0.0\n1,2,3,4,5\n-0,7,0,1e0,2\n",
        "trailing-empty-column": "1,2,\n3,4,\n5,6,\n",
        "quoted-header-comma": 'timestamp,"s,0",s1\n' + lines(stamped(["1,2", "3,4", "5,6"])),
        "no-final-newline": "1,2\n3,4",
        "single-row": "1,2,3",
        "quoted-newline": 'timestamp,"s\n0",s1\n' + lines(stamped(["1,2", "3,4", "5,6", "7,8"])),
        "quoted-cell-late": "a,b\n" + lines(["1,2", "3,4", "5,6", '"7",8', "9,10"]),
        "crlf-long": "a,b\r\n" + lines(long_grid, end="\r\n"),
        "blank-lines-long": "a,b\n" + lines(long_grid, end="\n\n\r\n"),
        "long-last-line": lines(long_grid[:29]) + "5," + "6" * 120 + "\n",
        "long-last-line-no-final-newline": lines(long_grid[:29]) + "5," + "6" * 120,
        "hash-in-header": "#a,b\n1,2\n3,4\n",
        "whitespace-only-line": "1\n2\n \n\t\n3\n",
        "cr-line-ends": "a,b\r1,2\r3,\r0,4\r",
        "cr-inside-a-line": "1\n2\n3\r4\n5\n",
        "underscore-digits": lines(grid[: block + 1] + ["1_0,2,3"] + grid[block + 1 :]),
        "non-ascii-digit": lines(grid[: block + 1] + ["1,\u0663,\u0e53"] + grid[block + 1 :]),
        "form-feed-padding": lines(grid[: block + 1] + ["\f1\f,\v2,3\f"] + grid[block + 1 :]),
        "commas-only-line": lines(grid[: block + 1] + [",,"] + grid[block + 1 :]),
        "quoted-line-break-cell": 'a\n"\n"\n',
    }


# The good files of which the piece reader turns down a piece, from whose
# group the csv module reads on: a quote past the head rows.
EXACT_READER_ONLY = {"quoted-cell-late"}


def bad_files(block):
    """Speed files the reader must reject with the reference's exception and
    message; the row-level faults sit in the second block."""
    rows = [f"{t + 1},{t + 2}" for t in range(block + 3)]
    ragged = rows[: block + 1] + ["7"] + rows[block + 1 :]
    ragged_twice = rows[:1] + ["1,2,3"] + ragged[1:]
    garbage = rows[: block + 1] + ["7,oops"] + rows[block + 1 :]
    garbage_then_ragged = rows[:1] + ["x,1"] + rows[1 : block + 1] + ["1,2,3"] + rows[block + 1 :]
    bad_stamp = stamped(rows)
    bad_stamp[block + 1] = "not-a-time," + rows[block + 1]
    backwards = stamped(rows)
    backwards[block + 1], backwards[block + 2] = backwards[block + 2], backwards[block + 1]
    stamp_and_cell = stamped(rows)
    stamp_and_cell[block + 1] = "not-a-time,oops,2"
    cell_then_stamp = stamped(rows)
    cell_then_stamp[block] = stamped([f"{block + 1},oops"], lo=block)[0]
    cell_then_stamp[block + 1] = "not-a-time," + rows[block + 1]
    padded_garbage = rows[:block] + [" ,2", "3, x "] + rows[block + 2 :]
    bad_first_stamp = stamped(rows)
    bad_first_stamp[0] = "2012-03-01T25:00:00," + rows[0]
    stamps_only = [row.split(",")[0] for row in stamped(rows)]

    def late(row):
        """rows with row in front of the second block."""
        return lines(rows[: block + 1] + [row] + rows[block + 1 :])

    one_sensor = stamped(str(t) for t in range(1, block + 4))
    one_sensor[block + 1] = one_sensor[block + 1].split(",")[0]

    return {
        "empty": "",
        "blank-only": "\n\n",
        "header-only": "a,b\n",
        "no-sensor-columns": lines(stamps_only),
        "no-sensor-columns-ragged": lines(stamps_only + ["1,2"]),
        "ragged-second-block": lines(ragged),
        "ragged-in-two-blocks": lines(ragged_twice),
        "ragged-header": "a,b,c\n" + lines(rows),
        "unparseable-second-block": lines(garbage),
        "unparseable-then-ragged": lines(garbage_then_ragged),
        "bad-timestamp-second-block": lines(bad_stamp),
        "bad-timestamp-first-row": lines(bad_first_stamp),
        "bad-timestamp-and-cell-same-row": lines(stamp_and_cell),
        "bad-cell-then-bad-timestamp": lines(cell_then_stamp),
        "whitespace-and-unparseable-same-block": lines(padded_garbage),
        "non-monotonic-second-block": lines(backwards),
        "irregular-spacing": lines(stamped(["1,2", "3,4"]) + stamped(["5,6"], lo=5)),
        "hash-in-cell": late("1,#2"),
        "whitespace-only-line": late(" "),
        "cr-inside-a-line": late("7,\r8"),
        "hex-cell": late("0x10,2"),
        "fortran-exponent": late("1,1d3"),
        "quoted-comma-in-head": 'a,b,c\n1,2,3\n"4,5",6,7\n8,9,10\n',
        "unbalanced-quote-at-end": 'a,b,c\n1,2,3\n4,"5,6',
        "open-quote-ends-the-file": lines(rows) + '5,"x',
        "open-quote-ends-the-head": 'a,b\n1,2\n3,"x',
        "quoted-commas-in-head-ragged": 'a,b\n"1,2",3\n"4,5",6\n7,8,9\n',
        "timestamp-without-cells": lines(one_sensor),
    }


class TestCsvAgainstReference:
    """The reader and the block-streaming writer against the whole-file,
    cell-by-cell reference, at each block_rows shape."""

    @pytest.mark.parametrize("name", sorted(good_files(4)))
    def test_reads_as_reference(self, tmp_path, block_rows, name):
        path = tmp_path / "speed.csv"
        path.write_bytes(good_files(block_rows)[name].encode())
        got = ingest_outcome(ingest_csv, path)
        assert not isinstance(got[0], type), got
        assert got == ingest_outcome(ingest_csv_reference, path)

    @pytest.mark.parametrize("name", sorted(bad_files(4)))
    def test_rejects_as_reference(self, tmp_path, block_rows, name):
        path = tmp_path / "speed.csv"
        path.write_bytes(bad_files(block_rows)[name].encode())
        got = ingest_outcome(ingest_csv, path)
        assert isinstance(got[0], type) and issubclass(got[0], ValueError), got
        assert got == ingest_outcome(ingest_csv_reference, path)

    @pytest.mark.parametrize(
        "cells",
        [
            [1e-05, 5e-324, 1.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [61.5, 1 / 3, 1e300, -2.5],
        ],
        ids=["small-and-zero", "all-zero", "wide-range"],
    )
    @pytest.mark.parametrize(
        "missing", [0.0, 0.3, 1.0], ids=["observed", "some-missing", "all-missing"]
    )
    def test_writes_as_reference(self, tmp_path, block_rows, cells, missing):
        """Three blocks."""
        series = tiled_series(cells, 2 * block_rows + 1, missing)
        write_speed_csv(tmp_path / "got.csv", series)
        write_speed_csv_reference(tmp_path / "ref.csv", series)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize(
        "cells",
        [
            [1e-05, 5e-324, -0.0, -3e-05, 123456.78915, 1e300],
            [1e-05, 5e-324, -0.0, -3e-05, 123456.78915, 0.99995, 1 / 3, 64.375],
            [64.375, -1.5e10 - 1 / 3, 2.0**51 + 0.5],
        ],
        ids=["with-huge", "below-1e9", "above-1e9"],
    )
    @pytest.mark.parametrize(
        "missing", [0.0, 0.3, 1.0], ids=["observed", "some-missing", "all-missing"]
    )
    def test_writes_rounded_as_reference(self, tmp_path, monkeypatch, block_rows, cells, missing):
        """With decimals=4 the file is the reference's for the rounded
        series. numpy formats every block below 1e9; a block holding a
        value above goes through _block_text."""
        if max(map(abs, cells)) < 1e9:
            monkeypatch.setattr(data_module, "_block_text", no_block_text)
        series = tiled_series(cells, 2 * block_rows + 1, missing)
        write_speed_csv(tmp_path / "got.csv", series, decimals=4)
        rounded = StateSeries(
            values=rounded_readings(series.values, 4),
            mask=series.mask,
            timestamps=series.timestamps,
        )
        write_speed_csv_reference(tmp_path / "ref.csv", rounded)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize(
        "faults, message",
        [
            (
                ("nan", "oops"),
                "speed file {path} has a non-finite value 'nan' at data row {row}, column 0",
            ),
            (("oops", "nan"), "unparseable value 'oops' at data row {row}, column 0"),
            (
                (" 2", " inf "),
                "speed file {path} has a non-finite value ' inf ' at data row {row}, column 1",
            ),
            (
                ("infinity", "2"),
                "speed file {path} has a non-finite value 'infinity' at data row {row}, column 0",
            ),
            (
                ("1e999", "2"),
                "speed file {path} has a non-finite value '1e999' at data row {row}, column 0",
            ),
        ],
        ids=["non-finite-first", "unparseable-first", "padded-non-finite", "infinity", "overflow"],
    )
    def test_first_bad_cell_of_a_block(self, tmp_path, block_rows, faults, message):
        """Unparseable and non-finite cells are reported in row-major order,
        which the reference (blind to non-finite cells) cannot check."""
        rows = [f"{t + 1},{t + 2}" for t in range(block_rows + 3)]
        rows[block_rows] = ",".join(faults)
        rows[block_rows + 1] = ",".join(reversed(faults))
        path = tmp_path / "speed.csv"
        path.write_text(lines(rows))
        with pytest.raises(ValueError) as err:
            ingest_csv(path)
        assert str(err.value) == message.format(path=path, row=block_rows)

    def test_writes_custom_sensor_ids_as_reference(self, tmp_path, block_rows):
        """Five rows: one block, two blocks at 3 rows, three at 2."""
        ids = ["a,b", 'say "hi"', "plain", "line\nbreak"]
        mask = np.array([[1.0, 0.0, 1.0, 1.0]] * 5)
        series = StateSeries(
            values=np.arange(20.0).reshape(5, 4) * mask,
            mask=mask,
            timestamps=1.7e9 + synthesize_timestamps(5),
        )
        write_speed_csv(tmp_path / "got.csv", series, sensor_ids=ids)
        write_speed_csv_reference(tmp_path / "ref.csv", series, sensor_ids=ids)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_writes_to_a_pipe_as_reference(self, tmp_path):
        """A file that cannot seek is written like any other."""
        series = tiled_series([1 / 7, 2.5, 1e-05], 5, 0.3)
        read_end, write_end = os.pipe()
        with os.fdopen(read_end, "rb") as pipe:
            try:
                write_speed_csv(f"/dev/fd/{write_end}", series)
            finally:
                os.close(write_end)
            got = pipe.read()
        write_speed_csv_reference(tmp_path / "ref.csv", series)
        assert got == (tmp_path / "ref.csv").read_bytes()


def turn_down(*args):
    raise ValueError("turned down")


class TestExactReader:
    """The csv module's row loop alone, with the piece reader turning every
    piece after the head down."""

    @pytest.fixture(autouse=True)
    def no_piece_reader(self, monkeypatch):
        monkeypatch.setattr(data_module, "_read_piece", turn_down)

    test_reads_as_reference = TestCsvAgainstReference.test_reads_as_reference
    test_rejects_as_reference = TestCsvAgainstReference.test_rejects_as_reference


class TestFastCsvPath:
    """The piece reader in ingest_csv, from whose first turned-down group the
    csv module reads on."""

    @pytest.mark.parametrize("name", sorted(good_files(4)))
    def test_reads_good_files_alone(self, tmp_path, block_rows, monkeypatch, name):
        """Every good file but those of EXACT_READER_ONLY reads as the
        reference does with the csv module reading the head alone; for those
        the csv module reads on from one data row past the head."""
        path = tmp_path / "speed.csv"
        path.write_bytes(good_files(block_rows)[name].encode())
        if name in EXACT_READER_ONLY:
            starts = csv_starts(monkeypatch)
        else:
            monkeypatch.setattr(data_module, "_read_rows", no_csv_past_the_head)
        got = ingest_outcome(ingest_csv, path)
        assert not isinstance(got[0], type), got
        assert got == ingest_outcome(ingest_csv_reference, path)
        if name in EXACT_READER_ONLY:
            assert len(starts) == 1

    def test_padded_cell_over_the_field_limit_is_a_value_error(self, tmp_path):
        """The piece reader turns down a cell over the csv module's field
        limit, which the csv module then rejects: a line past the head with
        such a cell still fails."""
        path = tmp_path / "long.csv"
        path.write_text("a,b\n1,2\n3,4\n5," + " " * 139_999 + "6\n7,8\n")
        with pytest.raises(ValueError, match=r"long\.csv: field larger than field limit"):
            ingest_csv(path)


def decimal_cells(seed=19):
    """About 200k seeded cells that float() reads, for the piece reader's
    cell parser: plain decimals of 1 to 19 digits with a point anywhere or
    none and a sign or none; 17 to 19 digit cuts of the midpoints between
    adjacent doubles, near powers of two among them; integers on and next to
    those midpoints up to 2**64; 2**53 and its neighbours; 22, 23, 27 and 28
    fraction digits; leading zeros past 19 digits; and a few spellings only
    float() reads."""
    rng = random.Random(seed)
    cells = []
    for _ in range(120_000):
        digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 19)))
        at = rng.randint(0, len(digits))
        if rng.random() < 0.8:
            digits = digits[:at] + "." + digits[at:]
        cells.append(rng.choice(["", "", "-", "+"]) + digits)
    doubles = [rng.uniform(0, 1) * 10.0 ** rng.randint(-6, 19) for _ in range(10_000)]
    doubles += [math.ldexp(1.0, k) for k in range(-30, 64)]
    for d in doubles:
        for above in (math.nextafter(d, math.inf), math.nextafter(d, -math.inf)):
            mid = (Decimal(d) + Decimal(above)) / 2
            text = format(mid, "f")
            digits = len(text.replace(".", "").lstrip("0"))
            for keep in (17, 18, 19):
                cut = text[: len(text) - max(digits - keep, 0)] if "." in text else text
                cells.append(cut.rstrip(".") or "0")
    for k in range(53, 64):
        for j in range(200):
            step = 2 ** (k - 52)
            mid = 2**k + rng.randrange(2**52) * step + step // 2
            cells += [str(mid + delta) for delta in (-1, 0, 1) if mid + delta < 2**64]
            cells.append(f"{mid // 10}.{mid % 10}")
    cells += [str(2**53 + delta) for delta in (-1, 0, 1)] + ["-9007199254740993", "9007199254740993.0"]
    for frac in (22, 23, 27, 28):
        cells += ["0." + "0" * (frac - 1) + "1", "1." + "5" * frac, "-." + "9" * frac]
    cells += ["0" * 20 + "12.5", "-0000000000000000000001", "-0", ".5", "5.", "-.5", "1_0", " 7 ", "1e5", "+1", "\u0663"]
    return cells


class TestDecimalCells:
    """The piece reader's cells against float(), bit for bit, with the
    long double branch and without it."""

    @pytest.mark.parametrize("extended", [True, False], ids=["long-double", "double-only"])
    def test_cells_read_as_float(self, monkeypatch, extended):
        if extended and not data_module._EXTENDED:
            pytest.skip("long double has no 64-bit significand here")
        monkeypatch.setattr(data_module, "_EXTENDED", extended)
        cells = decimal_cells()
        calls = []
        monkeypatch.setattr(data_module, "float", lambda text: calls.append(text) or float(text), raising=False)
        # The first line is a cell as long as a parsed one can be, so that no
        # cell ends too near the piece's start for its row of the matrix.
        piece = "\n".join(["0" * data_module._DECIMAL_BYTES] + cells).encode() + b"\n"
        values, times = data_module._read_piece(piece, 0, 1)
        expected = np.array([0.0] + [float(cell) for cell in cells]) + 0.0  # -0.0 reads as 0.0
        assert times is None
        assert values.ravel().tobytes() == expected.tobytes()
        # A minus or none, digits and at most one point, in 19 bytes at most.
        plain = {
            cell: int(cell.lstrip("-").replace(".", "") or 0)
            for cell in cells
            if re.fullmatch(r"-?[0-9]*\.?[0-9]*", cell) and len(cell) <= 19 and cell.strip("-.")
        }
        calls = set(calls)
        assert not {cell for cell, m in plain.items() if m < 2**53} & calls
        wide = {cell for cell, m in plain.items() if m >= 2**53}
        if extended:  # but for the midpoints, such as odd integers from 2**53 to 2**54
            assert len(wide & calls) < 0.25 * len(wide)
        else:
            assert wide <= calls

    @pytest.mark.parametrize("cell", [".", "-", "-.", "1.2.3", "--1", "1-", "1.-2", "0x1", "1,5"[1:] + "\x00"])
    def test_cells_float_turns_down_fail_the_piece(self, cell):
        with pytest.raises(ValueError):
            float(cell)
        with pytest.raises(ValueError):
            data_module._read_piece(f"1\n{cell}\n2.5\n".encode(), 0, 1)


def no_process(*args, **kwargs):
    raise AssertionError("a process was started")


class TestSplitReader:
    """ingest_csv with the file split into pieces of a few bytes, parsed on
    2 threads, against the exact reference. Every good and bad file of
    TestCsvAgainstReference is read in its 3-row shape."""

    @pytest.fixture(autouse=True)
    def small_pieces(self, monkeypatch):
        monkeypatch.setattr(data_module, "_PIECE_BYTES", 7)
        monkeypatch.setenv("GRAPHMARKOV_THREADS", "2")
        monkeypatch.setattr(subprocess, "Popen", no_process)

    @pytest.mark.parametrize("name", sorted(good_files(3)))
    def test_reads_as_reference(self, tmp_path, monkeypatch, name):
        """Every good file but those of EXACT_READER_ONLY reads with the csv
        module reading the head alone."""
        path = tmp_path / "speed.csv"
        path.write_bytes(good_files(3)[name].encode())
        if name not in EXACT_READER_ONLY:
            monkeypatch.setattr(data_module, "_read_rows", no_csv_past_the_head)
        got = ingest_outcome(ingest_csv, path)
        assert not isinstance(got[0], type), got
        assert got == ingest_outcome(ingest_csv_reference, path)

    @pytest.mark.parametrize("name", sorted(bad_files(3)))
    def test_rejects_as_reference(self, tmp_path, name):
        path = tmp_path / "speed.csv"
        path.write_bytes(bad_files(3)[name].encode())
        got = ingest_outcome(ingest_csv, path)
        assert isinstance(got[0], type) and issubclass(got[0], ValueError), got
        assert got == ingest_outcome(ingest_csv_reference, path)

    def rows(self, count, lo=0):
        return stamped((f"{t % 50 + 1}.25,,{t % 7}" for t in range(lo, lo + count)), lo=lo)

    def test_error_leaves_no_thread_behind(self, tmp_path):
        rows = self.rows(2_000)
        rows[1_500] = rows[1_500].replace(".25,", ".25,oops")
        path = tmp_path / "speed.csv"
        path.write_text(lines(rows))
        threads = threading.active_count()
        got = ingest_outcome(ingest_csv, path)
        assert got == ingest_outcome(ingest_csv_reference, path)
        assert got[1].endswith("at data row 1500, column 1")
        assert threading.active_count() == threads

    def test_quote_in_a_later_piece_is_read_by_the_exact_reader(self, tmp_path, monkeypatch):
        """The csv module reads on from the quoted row's group, past rows
        the pieces gave."""
        rows = self.rows(40)
        rows[-3] = rows[-3].replace(".25,", '.25,"4"')
        path = tmp_path / "speed.csv"
        path.write_text(lines(rows))
        starts = csv_starts(monkeypatch)
        got = ingest_outcome(ingest_csv, path)
        assert not isinstance(got[0], type), got
        assert got == ingest_outcome(ingest_csv_reference, path)
        assert len(starts) == 1 and 2 < starts[0] <= 37

    def test_byte_order_mark(self, tmp_path, monkeypatch):
        """The mark is dropped before the head: the marked file reads as the plain one."""
        monkeypatch.setattr(data_module, "_read_rows", no_csv_past_the_head)
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        text = "t,x,y,z\r\n" + lines(self.rows(40), end="\r\n")
        plain.write_text(text, newline="")
        marked.write_text("\ufeff" + text, newline="")
        assert ingest_outcome(ingest_csv, marked) == ingest_outcome(ingest_csv_reference, plain)

    @pytest.mark.parametrize("stop", ["mid-output", "start"], ids=["stops-mid-output", "cannot-start"])
    def test_failed_child_leaves_the_file_to_the_exact_reader(self, tmp_path, monkeypatch, stop):
        """A worker thread that raises on its second piece, or one that
        cannot start, has the csv module read on from its group."""
        from concurrent.futures import ThreadPoolExecutor

        read_piece = data_module._read_piece
        calls = []

        def failing_read_piece(*args):
            if threading.current_thread() is not threading.main_thread():
                calls.append(args[0])
                if len(calls) == 2:
                    raise ValueError("a worker failed")
            return read_piece(*args)

        def failing_start(pool):
            raise RuntimeError("can't start new thread")

        if stop == "start":
            monkeypatch.setattr(ThreadPoolExecutor, "_adjust_thread_count", failing_start)
        monkeypatch.setattr(data_module, "_read_piece", failing_read_piece)
        path = tmp_path / "speed.csv"
        path.write_text(lines(self.rows(40)))
        starts = csv_starts(monkeypatch)
        assert ingest_outcome(ingest_csv, path) == ingest_outcome(ingest_csv_reference, path)
        assert len(starts) == 1
        assert starts[0] > 2 if stop == "mid-output" else starts == [2]
        assert len(calls) == (2 if stop == "mid-output" else 0)

    def test_worker_that_cannot_start_on_blank_lines(self, tmp_path, monkeypatch):
        """The csv module reads on from a group of blank lines alone, which
        adds no row."""
        from concurrent.futures import ThreadPoolExecutor

        def failing_start(pool):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(ThreadPoolExecutor, "_adjust_thread_count", failing_start)
        monkeypatch.setattr(data_module, "_PIECE_BYTES", 1)
        path = tmp_path / "speed.csv"
        path.write_text("t,x,y,z\n" + lines(self.rows(2)) + "\n\n\n")
        starts = csv_starts(monkeypatch)
        got = ingest_outcome(ingest_csv, path)
        assert got[0] == (2, 3)
        assert got == ingest_outcome(ingest_csv_reference, path)
        assert starts == [2]

    @pytest.mark.parametrize("threads, piece_bytes", [("1", 7), ("2", 1 << 20)], ids=["one-thread", "small-file"])
    def test_no_child_starts(self, tmp_path, monkeypatch, threads, piece_bytes):
        """No process starts, and no thread outlives the read, with one
        thread or with a file of one piece."""
        monkeypatch.setenv("GRAPHMARKOV_THREADS", threads)
        monkeypatch.setattr(data_module, "_PIECE_BYTES", piece_bytes)
        monkeypatch.setattr(data_module, "_read_rows", no_csv_past_the_head)
        path = tmp_path / "speed.csv"
        path.write_text(lines(self.rows(40)))
        before = threading.active_count()
        assert ingest_outcome(ingest_csv, path) == ingest_outcome(ingest_csv_reference, path)
        assert threading.active_count() == before

    def test_one_thread_reads_as_two(self, tmp_path, monkeypatch):
        path = tmp_path / "speed.csv"
        path.write_text("t,x,y,z\r\n" + lines(self.rows(300), end="\r\n"))
        monkeypatch.setattr(data_module, "_PIECE_BYTES", 1000)
        got = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("GRAPHMARKOV_THREADS", threads)
            got[threads] = ingest_outcome(ingest_csv, path)
        assert got["1"] == got["2"] == ingest_outcome(ingest_csv_reference, path)

    @pytest.mark.parametrize("body", [0, 1], ids=["no-line", "one-line"])
    def test_body_shorter_than_two_lines_starts_no_child(self, tmp_path, monkeypatch, body):
        """The head's two data rows are read by the csv module; the pieces
        after them hold no line or one."""
        monkeypatch.setattr(data_module, "_read_rows", no_csv_past_the_head)
        path = tmp_path / "speed.csv"
        path.write_text("t,x,y,z\n" + lines(self.rows(2 + body)))
        assert ingest_outcome(ingest_csv, path) == ingest_outcome(ingest_csv_reference, path)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_pipe_is_read_here_alone(self, tmp_path, monkeypatch):
        """A file that cannot seek reads in pieces like any other."""
        monkeypatch.setattr(data_module, "_read_rows", no_csv_past_the_head)
        path = tmp_path / "speed.csv"
        path.write_text(lines(self.rows(40)))
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(path.read_bytes())
        try:
            got = ingest_outcome(ingest_csv, f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert got == ingest_outcome(ingest_csv_reference, path)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_pipe_the_piece_reader_turns_down_is_read_by_the_exact_reader(self, tmp_path, monkeypatch):
        """The csv module reads on in the pipe from the group the piece
        reader turns down, the first after the head."""
        path = tmp_path / "speed.csv"
        path.write_text('a,b\n1,2\n3,4\n5,6\n"7",8\n9,10\n')
        starts = csv_starts(monkeypatch)
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(path.read_bytes())
        try:
            got = ingest_outcome(ingest_csv, f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert not isinstance(got[0], type), got
        assert got[0] == (5, 2)
        assert got == ingest_outcome(ingest_csv_reference, path)
        assert starts == [2]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_pipe_with_a_late_quote_is_read_in_one_pass(self, tmp_path, monkeypatch):
        """Each read asks for one piece, the reads add up to the file once,
        and the csv module reads on from the quoted row's group."""
        rows = self.rows(40)
        rows[-3] = rows[-3].replace(".25,", '.25,"4"')
        path = tmp_path / "speed.csv"
        path.write_text(lines(rows))
        reads = []

        def logged_open(file, mode="r", **kwargs):
            fh = open(file, mode, **kwargs)
            read = fh.read

            def logged_read(size=-1):
                chunk = read(size)
                reads.append((size, len(chunk)))
                return chunk

            fh.read = logged_read
            return fh

        monkeypatch.setattr(data_module, "open", logged_open, raising=False)
        starts = csv_starts(monkeypatch)
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(path.read_bytes())
        try:
            got = ingest_outcome(ingest_csv, f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert not isinstance(got[0], type), got
        assert got == ingest_outcome(ingest_csv_reference, path)
        assert {size for size, _ in reads} == {data_module._PIECE_BYTES}
        assert sum(n for _, n in reads) == path.stat().st_size
        assert len(starts) == 1 and 2 < starts[0] <= 37

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    @pytest.mark.parametrize("quote", [False, True], ids=["no-quote", "late-quote"])
    def test_pipe_peaks_as_the_file_does(self, tmp_path, monkeypatch, quote):
        """The traced peak of reading a 1.7 MB file through a pipe is at most
        two pieces above that of reading the file, with or without a late
        quote that has the csv module read the last group. One thread, so
        that neither peak hangs on how two threads' pieces overlap."""
        monkeypatch.setattr(data_module, "_PIECE_BYTES", 1 << 16)
        monkeypatch.setenv("GRAPHMARKOV_THREADS", "1")
        rows = self.rows(60_000)
        if quote:
            rows[-3] = rows[-3].replace(".25,", '.25,"4"')
        path = tmp_path / "speed.csv"
        path.write_text(lines(rows))
        text = path.read_bytes()

        def write(fd):
            view = memoryview(text)
            while view:
                view = view[os.write(fd, view) :]
            os.close(fd)

        def peak(read):
            tracemalloc.start()
            try:
                read()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def through_pipe():
            read_end, write_end = os.pipe()
            writer = threading.Thread(target=write, args=(write_end,))
            writer.start()
            try:
                ingest_csv(f"/dev/fd/{read_end}")
            finally:
                os.close(read_end)
                writer.join()

        expected = ingest_outcome(ingest_csv_reference, path)
        assert ingest_outcome(ingest_csv, path) == expected
        from_file, from_pipe = peak(lambda: ingest_csv(path)), peak(through_pipe)
        assert from_pipe <= from_file + 2 * data_module._PIECE_BYTES, (from_file, from_pipe)

    @pytest.mark.parametrize(
        "text",
        [
            "a,b\r\n1,2\r\n3,4\r\n5,6\r\n\r\n7,8\r\n9,10\r\n",
            "a,b\r1,2\r3,4\r\r5,6\n7,8\r9,10\r\n11,12",
            "\ufeff1,2\n\n3,4\n\n\n5,6\n\r\n\n7,8\n \n9,10\n\n",
        ],
        ids=["crlf", "mixed-line-ends", "blank-lines-and-mark"],
    )
    def test_every_cut_parts_the_lines_of_the_whole(self, tmp_path, monkeypatch, text):
        """At every piece size, each piece but the last ends after a line
        end, the pieces hold the file's bytes in order, and the file reads as
        the reference (the last, with a line of a space, is ragged)."""
        path = tmp_path / "speed.csv"
        path.write_bytes(text.encode())
        data = path.read_bytes()
        expected = ingest_outcome(ingest_csv_reference, path)
        for size in range(1, len(data) + 2):
            monkeypatch.setattr(data_module, "_PIECE_BYTES", size)
            with open(path, "rb") as fh:
                pieces = list(data_module._pieces(fh))
            assert all(piece.endswith((b"\n", b"\r")) for piece in pieces[:-1])
            assert b"".join(pieces) == data
            assert ingest_outcome(ingest_csv, path) == expected

    @pytest.mark.parametrize("name", sorted(good_files(3)))
    def test_every_piece_size_reads_as_reference(self, tmp_path, monkeypatch, name):
        path = tmp_path / "speed.csv"
        path.write_bytes(good_files(3)[name].encode())
        expected = ingest_outcome(ingest_csv_reference, path)
        for size in range(1, 65):
            monkeypatch.setattr(data_module, "_PIECE_BYTES", size)
            assert ingest_outcome(ingest_csv, path) == expected, size

    @pytest.mark.parametrize(
        "stamp",
        [
            "2012-03-01 00:05:00",
            "2012-03-01t00:05:00",
            "0000-03-01T00:05:00",
            "-012-03-01T00:05:00",
            "2012-02-30T00:05:00",
            "2012-03-01T24:00:00",
            "2012-03-01T00:04:60",
            "2012-03-01T00:05:00Z",
            " 2012-03-01T00:05",
        ],
    )
    def test_timestamp_numpy_reads_otherwise(self, tmp_path, stamp):
        """A time cell in a later piece that numpy would parse otherwise than
        datetime, or not at all, reads as the reference reads it."""
        rows = self.rows(6)
        rows[1] = stamp + "," + rows[1].split(",", 1)[1]
        rows[4] = stamp.replace("00:05", "00:20").replace("03-01", "03-01", 1) + "," + rows[4].split(",", 1)[1]
        path = tmp_path / "speed.csv"
        path.write_text("t,x,y,z\n" + lines(rows[:1] * 2 + rows[1:]))
        assert ingest_outcome(ingest_csv, path) == ingest_outcome(ingest_csv_reference, path)


class TestInjectMissing:
    def test_rate_zero_is_identity(self):
        s = make_series(np.ones((5, 3)))
        assert inject_missing(s, 0.0, seed=1) is s

    def test_deterministic_per_seed(self):
        s = make_series(np.random.default_rng(0).random((50, 20)) + 1.0)
        a = inject_missing(s, 0.3, seed=42)
        b = inject_missing(s, 0.3, seed=42)
        c = inject_missing(s, 0.3, seed=43)
        np.testing.assert_array_equal(a.mask, b.mask)
        assert not np.array_equal(a.mask, c.mask)

    def test_drop_count_is_binomial(self):
        """2000 x 4 fully observed entries at 10% should lose close to 800
        (within five standard deviations, ~27 each way)."""
        s = make_series(np.random.default_rng(1).random((2000, 4)) + 1.0)
        injected = inject_missing(s, 0.1, seed=7)
        dropped = int(s.mask.sum() - injected.mask.sum())
        assert 800 - 135 <= dropped <= 800 + 135

    def test_never_revives_missing(self):
        mask = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        s = make_series(np.ones((3, 2)), mask)
        injected = inject_missing(s, 0.5, seed=3)
        assert np.all(injected.mask <= s.mask)
        np.testing.assert_array_equal(injected.values * (1 - injected.mask), 0.0)

    def test_mask_is_read_only_bool(self):
        s = make_series(np.ones((4, 3)), np.array([[1.0, 0.0, 1.0]] * 4))
        assert_read_only_bool(inject_missing(s, 0.5, seed=5).mask)

    def test_rejects_bad_rate(self):
        s = make_series(np.ones((3, 2)))
        with pytest.raises(ValueError):
            inject_missing(s, 1.0, seed=0)
        with pytest.raises(ValueError):
            inject_missing(s, -0.1, seed=0)


class TestNormalize:
    def test_affine_map(self):
        s = make_series(np.array([[10.0, 20.0], [30.0, 40.0]]))
        stats = observed_stats(s)
        assert stats == NormStats(vmin=10.0, vmax=40.0)
        normed = normalize(s, stats)
        np.testing.assert_allclose(
            normed.values, [[0.0, 1.0 / 3.0], [2.0 / 3.0, 1.0]]
        )

    def test_stats_ignore_missing(self):
        mask = np.array([[1.0, 0.0], [1.0, 1.0]])
        s = make_series(np.array([[5.0, 99.0], [10.0, 15.0]]), mask)
        stats = observed_stats(s)
        assert stats.vmin == 5.0 and stats.vmax == 15.0

    @pytest.mark.parametrize("first", [0, 700, 1400])
    def test_stats_are_the_readings_alone_across_row_blocks(self, first):
        """Over several row blocks, with the first reading at step `first`,
        the stats are the min and max of the readings: neither the zeros of
        the gaps nor values a mask hides, beyond the readings' range, leak in."""
        rng = np.random.default_rng(first)
        values = rng.random((1500, 3)) * 50.0 + 5.0
        mask = rng.random((1500, 3)) < 0.3
        mask[:first] = False
        mask[first, 1] = True
        hidden = ~mask & (rng.random((1500, 3)) < 0.5)
        values[hidden] = np.where(rng.random(hidden.sum()) < 0.5, -1000.0, 1000.0)
        expected = NormStats(vmin=values[mask].min(), vmax=values[mask].max())
        assert data_module._observed_stats(values, mask) == expected
        assert observed_stats(make_series(values, mask)) == expected

    def test_an_extreme_counts_when_later_blocks_read_its_entry_too(self):
        values = np.full((3 * data_module._BLOCK_ROWS, 2), 10.0)
        values[1] = (1.0, 99.0)
        assert observed_stats(make_series(values)) == NormStats(vmin=1.0, vmax=99.0)

    def test_missing_stays_zero(self):
        mask = np.array([[1.0, 0.0], [1.0, 1.0]])
        s = make_series(np.array([[5.0, 1.0], [10.0, 15.0]]), mask)
        normed = normalize(s, observed_stats(s))
        assert normed.values[0, 1] == 0.0

    def test_external_stats(self):
        """Validation data normalized with training stats can leave [0,1]."""
        s = make_series(np.array([[50.0], [150.0]]))
        normed = normalize(s, NormStats(vmin=0.0, vmax=100.0))
        np.testing.assert_allclose(normed.values, [[0.5], [1.5]])

    def test_denormalize_round_trip(self):
        rng = np.random.default_rng(13)
        s = make_series(rng.random((8, 5)) * 70.0 + 1.0)
        stats = observed_stats(s)
        normed = normalize(s, stats)
        np.testing.assert_allclose(denormalize(normed.values, stats), s.values, atol=1e-12)

    def test_rejects_constant(self):
        s = make_series(np.full((3, 2), 7.0))
        with pytest.raises(ValueError, match="constant"):
            normalize(s, observed_stats(s))

    def test_rejects_all_missing(self):
        s = StateSeries(
            values=np.zeros((2, 2)),
            mask=np.zeros((2, 2)),
            timestamps=synthesize_timestamps(2),
        )
        with pytest.raises(ValueError, match="no observed"):
            observed_stats(s)


class TestSplit:
    def test_floor_with_remainder_to_test(self):
        s = make_series(np.arange(22.0).reshape(11, 2) + 1.0)
        train, val, test = split(s, SplitSpec())
        assert (train.steps, val.steps, test.steps) == (6, 2, 3)
        # Contiguous and ordered: boundaries line up exactly.
        np.testing.assert_array_equal(train.values, s.values[:6])
        np.testing.assert_array_equal(val.values, s.values[6:8])
        np.testing.assert_array_equal(test.values, s.values[8:])

    def test_exact_fractions(self):
        s = make_series(np.arange(10.0).reshape(10, 1) + 1.0)
        train, val, test = split(s, SplitSpec())
        assert (train.steps, val.steps, test.steps) == (6, 2, 2)

    def test_custom_fractions(self):
        s = make_series(np.arange(20.0).reshape(20, 1) + 1.0)
        train, val, test = split(s, SplitSpec(0.5, 0.25, 0.25))
        assert (train.steps, val.steps, test.steps) == (10, 5, 5)

    def test_parts_share_memory_with_source(self):
        """Parts of a series are read-only views of its frozen arrays, not
        copies; so is the mask of a normalized series, a bool array."""
        s = make_series(np.arange(20.0).reshape(10, 2) + 1.0)
        normed = normalize(s, observed_stats(s))
        assert np.shares_memory(normed.mask, s.mask)
        assert_read_only_bool(normed.mask)
        for part in split(normed, SplitSpec()):
            assert_read_only_bool(part.mask)
            for name in ("values", "mask", "timestamps"):
                assert np.shares_memory(getattr(part, name), getattr(normed, name))
                assert not getattr(part, name).flags.writeable

    def test_rejects_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            split(make_series(np.ones((2, 1))), SplitSpec())

    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            SplitSpec(0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            SplitSpec(1.0, 0.0, 0.0)


def assert_same_windows(data, reference):
    """Field-by-field equality of two LastObservations, and of the gated
    input of every lag."""
    assert data.n == reference.n
    for name in ("value", "lag", "label", "label_mask"):
        np.testing.assert_array_equal(getattr(data, name), getattr(reference, name), err_msg=name)
    for i in range(data.n):
        np.testing.assert_array_equal(data.at_lag(i), reference.at_lag(i))


class TestWindow:
    def test_count_and_alignment(self):
        s = make_series(np.arange(10.0).reshape(10, 1) + 1.0)
        data = last_observations(s, 3)
        assert len(data) == 7
        # Window k holds steps k..k+2; fully observed, so its last
        # observation is step k+2 at lag 0. Its label is step k+3.
        np.testing.assert_array_equal(data.value[:, 0], np.arange(3.0, 10.0))
        np.testing.assert_array_equal(data.lag, 0)
        np.testing.assert_array_equal(data.label[:, 0], np.arange(4.0, 11.0))

    def test_history_property(self):
        s = make_series(np.ones((5, 2)))
        data = last_observations(s, 2)
        assert data.n == 2 and data[np.array([0])].n == 2

    def test_label_series_override(self):
        """The series windowed behind an injected mask gives the oracle's
        windows of the injected series labelled by the series, on random
        masks and rates and on every split part."""
        rng = np.random.default_rng(43)
        for n in (1, 2, 4):
            for rate in (0.1, 0.5, 0.9):
                mask = (rng.random((40, 5)) >= 0.2).astype(float)
                base = make_series(rng.random((40, 5)) + 1.0, mask)
                injected = inject_missing(base, rate, seed=int(rng.integers(1000)))
                for part, gate in zip(split(base, SplitSpec()), split(injected, SplitSpec())):
                    data = last_observations(part, n, observed=gate.mask)
                    assert_same_windows(data, series_windows(gate, n, label_series=part))
                    np.testing.assert_array_equal(data.label, part.values[n:])
                    np.testing.assert_array_equal(data.label_mask, part.mask[n:])

    def test_label_mask_is_read_only_bool(self):
        s = make_series(np.ones((6, 2)), np.array([[1.0, 0.0]] * 6))
        gate = inject_missing(s, 0.5, seed=2).mask
        for observed in (None, gate):
            assert_read_only_bool(last_observations(s, 2, observed).label_mask)

    def test_rejects_short_series(self):
        with pytest.raises(ValueError, match="at least"):
            last_observations(make_series(np.ones((3, 1))), 3)

    def test_rejects_mismatched_gate(self):
        s = make_series(np.ones((5, 2)))
        with pytest.raises(ValueError, match=r"gate must be bool \(5, 2\), not bool \(5, 3\)"):
            last_observations(s, 2, observed=np.ones((5, 3), dtype=bool))

    @pytest.mark.parametrize("entry", [0.5, 2.0, -1.0, np.nan])
    def test_rejects_non_binary_gate(self, entry):
        """Only a bool gate is read; a float gate is rejected whatever it
        holds."""
        s = make_series(np.ones((5, 2)))
        gate = np.ones((5, 2))
        gate[3, 1] = gate[4, 0] = entry
        message = r"gate must be bool \(5, 2\), not float64 \(5, 2\)"
        with pytest.raises(ValueError, match=message):
            last_observations(s, 2, observed=gate)

    def test_rejects_gate_reading_a_gap(self):
        """A zero-filled gap of the series is never read as a reading."""
        mask = np.ones((5, 2))
        mask[2, 0] = mask[4, 1] = 0.0
        s = make_series(np.arange(10.0).reshape(5, 2) + 1.0, mask)
        with pytest.raises(ValueError, match="set at step 2, sensor 0, where the series has no reading"):
            last_observations(s, 2, observed=np.ones((5, 2), dtype=bool))


class TestLastObservationScan:
    """The forward-fill scan against full n x S windows gated by the
    cumulative mask."""

    def test_random_masks_match_reference(self):
        rng = np.random.default_rng(31)
        for n in (1, 2, 4, 7):
            for rate in (0.1, 0.5, 0.9):
                mask = (rng.random((30, 5)) >= rate).astype(float)
                s = make_series(rng.standard_normal((30, 5)), mask)
                assert_same_windows(last_observations(s, n), series_windows(s, n))

    def test_gated_lags_match_reference(self):
        rng = np.random.default_rng(33)
        mask = (rng.random((25, 4)) < 0.6).astype(float)
        s = make_series(rng.standard_normal((25, 4)), mask)
        data = last_observations(s, 3)
        windows = np.stack([s.values[k : k + 3] for k in range(22)])
        masks = np.stack([s.mask[k : k + 3] for k in range(22)])
        reference = gated_lags(windows, masks)
        for i in range(3):
            np.testing.assert_array_equal(data.at_lag(i), reference[:, i, :])

    @pytest.mark.parametrize("steps", [128, 129, 32768, 32769])
    def test_matches_reference_where_the_step_index_widens(self, steps):
        """The scan indexes steps in int8 up to 128 steps, in int16 up to
        32,768 and in int32 beyond; the windows are the reference's on each
        side of both bounds."""
        rng = np.random.default_rng(steps)
        mask = (rng.random((steps, 2)) >= 0.7).astype(float)
        s = make_series(rng.random((steps, 2)) + 1.0, mask)
        assert_same_windows(last_observations(s, 3), series_windows(s, 3))

    def test_window_without_observation(self):
        mask = np.ones((8, 2))
        mask[2:6, 1] = 0.0  # sensor 1 dark for steps 2..5
        s = make_series(np.arange(16.0).reshape(8, 2) + 1.0, mask)
        data = last_observations(s, 3)
        assert_same_windows(data, series_windows(s, 3))
        # Window 3 covers steps 3..5, where sensor 1 saw nothing.
        assert data.lag[3, 1] == 3 and data.value[3, 1] == 0.0
        np.testing.assert_array_equal(data.at_lag(0)[3], [s.values[5, 0], 0.0])
        # Window 2 covers steps 2..4: nothing either, although step 1 was seen.
        assert data.lag[2, 1] == 3 and data.value[2, 1] == 0.0
        # Window 1 covers steps 1..3: step 1 is its newest reading, at lag 2.
        assert data.lag[1, 1] == 2 and data.value[1, 1] == s.values[1, 1]

    def test_fully_observed_window(self):
        rng = np.random.default_rng(35)
        s = make_series(rng.random((6, 3)) + 1.0)
        data = last_observations(s, 4)
        assert_same_windows(data, series_windows(s, 4))
        np.testing.assert_array_equal(data.lag, 0)
        np.testing.assert_array_equal(data.value, s.values[3:5])

    def test_first_windows_of_val_and_test_stay_inside_their_part(self):
        """A sensor dark for the first n steps of the val and test parts has
        no observation in their first window, although the step just before
        the part boundary was observed."""
        rng = np.random.default_rng(37)
        steps, n = 50, 3
        mask = np.ones((steps, 2))
        for start in (30, 40):  # 6:2:2 boundaries of 50 steps
            mask[start : start + n, 0] = 0.0
        s = make_series(rng.random((steps, 2)) * 50.0 + 5.0, mask)
        bundle = prepare_datasets(s, n=n, missing_rate=0.0, seed=0)
        _, val, test = split(normalize(s, bundle.stats), SplitSpec())
        for data, part in ((bundle.val, val), (bundle.test, test)):
            assert_same_windows(data, series_windows(part, n))
            assert data.lag[0, 0] == n and data.value[0, 0] == 0.0
            assert data.lag[0, 1] == 0


class TestPrepareDatasets:
    def test_pipeline_shapes(self):
        rng = np.random.default_rng(19)
        s = make_series(rng.random((40, 5)) * 60.0 + 5.0)
        bundle = prepare_datasets(s, n=3, missing_rate=0.2, seed=99)
        # 24/8/8 split minus a 3-step warmup per part.
        assert len(bundle.train) == 21
        assert len(bundle.val) == 5
        assert len(bundle.test) == 5
        # The label step of each test window: the part's steps after the first n.
        np.testing.assert_array_equal(bundle.test_label_times, s.timestamps[35:])

    def test_labels_come_from_pre_injection_series(self):
        """Injected gaps appear in the inputs but the labels keep the original
        observations, so the model is scored on values it never saw."""
        rng = np.random.default_rng(21)
        s = make_series(rng.random((30, 4)) * 50.0 + 5.0)
        bundle = prepare_datasets(s, n=2, missing_rate=0.5, seed=1)
        assert bundle.train.label_mask.mean() == 1.0  # original data fully observed
        assert (bundle.train.lag == 0).mean() < 0.8  # injection visibly hit the inputs

    def test_stats_from_train_slice_only(self):
        values = np.outer(np.arange(1.0, 21.0), np.ones(2))
        s = make_series(values)
        bundle = prepare_datasets(s, n=2, missing_rate=0.0, seed=0)
        assert bundle.stats.vmin == 1.0
        assert bundle.stats.vmax == 12.0  # max of the 12-step train slice

    def test_builds_no_float_array_of_the_series_shape(self):
        """The injection is drawn into a bool gate a row block at a time, and
        the stats are taken a block at a time, so prepare_datasets never
        holds a T x S float array: its peak allocation stays below half the
        series' values, at ten row blocks of steps."""
        steps = 10 * data_module._BLOCK_ROWS + 5
        rng = np.random.default_rng(25)
        mask = rng.random((steps, 4)) < 0.9
        s = make_series(np.where(mask, rng.random((steps, 4)) + 1.0, 0.0), mask)
        tracemalloc.start()
        try:
            bundle = prepare_datasets(s, n=2, missing_rate=0.3, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < s.values.nbytes / 2
        assert bundle.stats == observed_stats(split(inject_missing(s, 0.3, 4), SplitSpec())[0])

    def test_each_part_is_windowed_on_first_read(self, monkeypatch):
        """A part is normalized and windowed once, when it is first read;
        the other parts are not touched."""
        normalized = []

        def normalize_part(series, stats):
            normalized.append(series.steps)
            return normalize(series, stats)

        monkeypatch.setattr(data_module, "normalize", normalize_part)
        rng = np.random.default_rng(26)
        bundle = prepare_datasets(make_series(rng.random((50, 3)) + 1.0), n=2, missing_rate=0.3, seed=4)
        assert len(bundle.test) == 8 and bundle.test is bundle.test
        assert normalized == [10]
        assert bundle.test_label_times.size == 8 and normalized == [10]
        assert len(bundle.train) == 28 and len(bundle.val) == 8
        assert normalized == [10, 30, 10]

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_parts_match_the_windows_of_the_whole_normalized_series(self, rate):
        """Windowing each part after normalizing it alone gives the windows
        of the whole series normalized once, behind the injected masks."""
        rng = np.random.default_rng(27)
        mask = rng.random((60, 4)) < 0.8
        s = make_series(np.where(mask, rng.random((60, 4)) * 50.0 + 5.0, 0.0), mask)
        bundle = prepare_datasets(s, n=3, missing_rate=rate, seed=8)
        gates = split(inject_missing(s, rate, 8), SplitSpec())
        assert bundle.stats == observed_stats(gates[0])
        parts = split(normalize(s, bundle.stats), SplitSpec())
        for data, part, gate in zip((bundle.train, bundle.val, bundle.test), parts, gates):
            expected = last_observations(part, 3, gate.mask)
            for name in ("value", "lag", "label", "label_mask"):
                assert getattr(data, name).tobytes() == getattr(expected, name).tobytes()
        np.testing.assert_array_equal(bundle.test_label_times, parts[2].timestamps[3:])

    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.5])
    def test_matches_the_composition_of_the_public_steps(self, rate):
        """The gates, the stats and the windows are those of split,
        inject_missing, observed_stats, normalize and last_observations,
        byte for byte, over native gaps and a last row block cut short; the
        injected mask is that of one draw of the whole shape."""
        steps, n, seed = 2 * data_module._BLOCK_ROWS + 123, 4, 9
        rng = np.random.default_rng(28)
        mask = rng.random((steps, 3)) < 0.85
        s = make_series(np.where(mask, rng.random((steps, 3)) * 50.0 + 5.0, 0.0), mask)
        bundle = prepare_datasets(s, n=n, missing_rate=rate, seed=seed)

        injected = inject_missing(s, rate, seed)
        drop = (np.random.default_rng(seed).random(s.values.shape) < rate) & s.mask
        assert injected.mask.tobytes() == (s.mask & ~drop).tobytes()
        assert injected.values.tobytes() == np.where(drop, 0.0, s.values).tobytes()
        gates = split(injected, SplitSpec())
        stats = observed_stats(gates[0])
        assert bundle.stats == stats
        windows = (bundle.train, bundle.val, bundle.test)
        for data, part, gate, kept in zip(windows, split(s, SplitSpec()), gates, bundle.gates):
            assert kept.tobytes() == gate.mask.tobytes()
            expected = last_observations(normalize(part, stats), n, gate.mask)
            for name in ("value", "lag", "label", "label_mask"):
                assert getattr(data, name).tobytes() == getattr(expected, name).tobytes(), name

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        s = make_series(rng.random((25, 3)) + 1.0)
        b1 = prepare_datasets(s, n=2, missing_rate=0.3, seed=4)
        b2 = prepare_datasets(s, n=2, missing_rate=0.3, seed=4)
        for name in ("value", "lag", "label", "label_mask"):
            np.testing.assert_array_equal(getattr(b1.train, name), getattr(b2.train, name))


class TestDerivedData:
    """Series and datasets that the module derives from checked data skip
    the public constructors' checks; rebuilt through those constructors,
    each still passes them."""

    def series(self):
        rng = np.random.default_rng(29)
        mask = rng.random((1500, 4)) < 0.7
        return make_series(np.where(mask, rng.random((1500, 4)) * 50.0 + 5.0, 0.0), mask)

    def test_series_pass_the_public_checks(self):
        s = self.series()
        bundle = prepare_datasets(s, n=3, missing_rate=0.4, seed=2)
        derived = [
            *split(s, SplitSpec()),
            normalize(s, observed_stats(s)),
            inject_missing(s, 0.4, seed=2),
            *bundle.parts,
            *(normalize(part, bundle.stats) for part in bundle.parts),
        ]
        for series in derived:
            rebuilt = StateSeries(series.values, series.mask, series.timestamps)
            for name in ("values", "mask", "timestamps"):
                np.testing.assert_array_equal(getattr(rebuilt, name), getattr(series, name))
        for part, gate in zip(bundle.parts, bundle.gates):
            assert_read_only_bool(gate)
            last_observations(part, 3, gate)  # the gate is set only where the part has a reading

    def test_datasets_pass_the_public_checks(self):
        s = self.series()
        bundle = prepare_datasets(s, n=3, missing_rate=0.4, seed=2)
        whole = last_observations(s, 3)
        derived = [
            bundle.train,
            bundle.val,
            bundle.test,
            whole,
            last_observations(s, 3, inject_missing(s, 0.4, seed=2).mask),
            whole[np.random.default_rng(30).permutation(len(whole))[:64]],
            whole[5:9],
            *whole.chunks(),
        ]
        for data in derived:
            LastObservations(data.value, data.lag, data.label, data.label_mask, data.n)

    def test_rows_keep_the_shape_checks(self):
        data = last_observations(self.series(), 3)
        with pytest.raises(ValueError, match="empty dataset"):
            data[np.array([], dtype=int)]
        with pytest.raises(ValueError, match="not N x S"):
            data[0]


def observations(rows, size=2, seed=0):
    """A dataset of random labels and label masks with no input readings."""
    rng = np.random.default_rng(seed)
    return LastObservations(
        value=np.zeros((rows, size)),
        lag=np.ones((rows, size), dtype=np.uint8),
        label=rng.random((rows, size)),
        label_mask=rng.random((rows, size)) < 0.6,
        n=1,
    )


class TestWholeDatasetPass:
    @pytest.mark.parametrize("rows, parts", [
        (1, [1]), (1024, [1024]), (1025, [1024, 1]), (2049, [1024, 1024, 1]),
    ])
    def test_chunks_cover_each_row_once_in_order(self, rows, parts):
        data = observations(rows)
        chunks = list(data.chunks())
        assert [len(c) for c in chunks] == parts
        assert all(c.n == data.n for c in chunks)
        for name in ("value", "lag", "label", "label_mask"):
            np.testing.assert_array_equal(
                np.concatenate([getattr(c, name) for c in chunks]), getattr(data, name)
            )

    def test_squared_error_matches_masked_mse(self):
        data = observations(9, size=4, seed=3)
        pred = np.random.default_rng(4).standard_normal((9, 4))
        sq, observed, diff = data.squared_error(pred)
        assert observed == data.label_mask.sum()
        assert sq / observed == masked_mse(pred, data.label, data.label_mask)
        np.testing.assert_array_equal(diff, np.where(data.label_mask, pred - data.label, 0.0))

    def test_squared_error_leaves_an_empty_count_to_its_caller(self):
        data = observations(3)
        data = LastObservations(data.value, data.lag, data.label, np.zeros((3, 2), bool), n=1)
        sq, observed, diff = data.squared_error(np.ones((3, 2)))
        assert (sq, observed) == (0.0, 0.0)
        np.testing.assert_array_equal(diff, 0.0)
