"""Tests for series validation, CSV ingestion, missing-value injection,
normalization, splitting, and last-observation windowing."""

from datetime import datetime, timedelta

import numpy as np
import pytest

from graphmarkov import data as data_module
from graphmarkov.data import (
    NormStats,
    SplitSpec,
    StateSeries,
    denormalize,
    ingest_csv,
    inject_missing,
    last_observations,
    normalize,
    observed_stats,
    prepare_datasets,
    split,
    synthesize_timestamps,
    write_speed_csv,
)

from oracles import gated_lags, ingest_csv_reference, series_windows, write_speed_csv_reference


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
        with pytest.raises(ValueError, match="spacing"):
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


@pytest.fixture(params=[None, 2, 3], ids=["default-block", "block-2", "block-3"])
def block_rows(request, monkeypatch):
    """The reader's and writer's block size: the module default, or shrunk so
    that tiny files span several blocks."""
    if request.param is not None:
        monkeypatch.setattr(data_module, "_CSV_BLOCK_ROWS", request.param)
    return data_module._CSV_BLOCK_ROWS


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
    """Speed files the reader must read exactly as the reference does; three
    of them run past the first block."""
    grid = [f"{t + 1}.5,{t % 7},{t * 0.25}" for t in range(block + 3)]
    padded = grid[: block + 1] + [" 7.5 , ,\t2", "  ,\t 0 , 1e1 "]
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
    }


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
    }


class TestCsvAgainstReference:
    """The block-streaming reader and writer against the whole-file,
    cell-by-cell reference, at the default block size and at 2 and 3 rows."""

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
        steps = 2 * block_rows + 1
        rng = np.random.default_rng(37)
        values = np.resize(np.array(cells), (steps, len(cells)))
        mask = (rng.random(values.shape) >= missing).astype(float)
        series = StateSeries(
            values=values * mask, mask=mask, timestamps=synthesize_timestamps(steps)
        )
        write_speed_csv(tmp_path / "got.csv", series)
        write_speed_csv_reference(tmp_path / "ref.csv", series)
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
        ],
        ids=["non-finite-first", "unparseable-first", "padded-non-finite"],
    )
    def test_first_bad_cell_of_a_block(self, tmp_path, block_rows, faults, message):
        """Within a block, unparseable and non-finite cells are reported in
        row-major order, which the reference (blind to non-finite cells)
        cannot check."""
        rows = [f"{t + 1},{t + 2}" for t in range(block_rows + 3)]
        rows[block_rows] = ",".join(faults)
        rows[block_rows + 1] = ",".join(reversed(faults))
        path = tmp_path / "speed.csv"
        path.write_text(lines(rows))
        with pytest.raises(ValueError) as err:
            ingest_csv(path)
        assert str(err.value) == message.format(path=path, row=block_rows)

    def test_writes_custom_sensor_ids_as_reference(self, tmp_path, block_rows):
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

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        s = make_series(rng.random((25, 3)) + 1.0)
        b1 = prepare_datasets(s, n=2, missing_rate=0.3, seed=4)
        b2 = prepare_datasets(s, n=2, missing_rate=0.3, seed=4)
        for name in ("value", "lag", "label", "label_mask"):
            np.testing.assert_array_equal(getattr(b1.train, name), getattr(b2.train, name))
