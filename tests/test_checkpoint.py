"""Tests for textual checkpoint round-trips."""

import numpy as np
import pytest

from graphmarkov.checkpoint import load_params, save_params
from graphmarkov.graph import build_graph
from graphmarkov.models import init_gmn, init_sgmn

from oracles import masked_params, per_hop_tensors


def random_graph(seed, size=5):
    rng = np.random.default_rng(seed)
    return build_graph((rng.random((size, size)) < 0.5).astype(float))


def awkward_values(shape, rng):
    """Floats that don't have short decimal expansions."""
    return rng.standard_normal(shape) / 3.0 + np.pi * rng.random(shape)


class TestRoundTrip:
    def test_gmn_exact(self, tmp_path):
        g = random_graph(1)
        rng = np.random.default_rng(2)
        params = masked_params(
            init_gmn(g, n=3, gamma=0.9), [awkward_values((5, 5), rng) for _ in range(3)]
        )
        path = tmp_path / "model.ckpt"
        save_params(path, params)
        loaded = load_params(path, g)
        assert loaded.n == 3 and loaded.gamma == 0.9
        for a, b in zip(params.weights, loaded.weights):
            np.testing.assert_array_equal(a, b)

    def test_sgmn_exact(self, tmp_path):
        g = random_graph(3)
        rng = np.random.default_rng(4)
        params = masked_params(
            init_sgmn(g, n=2, gamma=0.85), [awkward_values(5, rng) for _ in range(2)]
        )
        path = tmp_path / "model.ckpt"
        save_params(path, params)
        loaded = load_params(path, g)
        for a, b in zip(params.gains, loaded.gains):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(
            loaded.basis.eigenvectors, params.basis.eigenvectors
        )

    def test_save_load_save_is_byte_identical(self, tmp_path):
        g = random_graph(5)
        rng = np.random.default_rng(6)
        params = masked_params(
            init_gmn(g, n=2, gamma=0.9), [awkward_values((5, 5), rng) for _ in range(2)]
        )
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_params(p1, params)
        save_params(p2, load_params(p1, g))
        assert p1.read_bytes() == p2.read_bytes()

    def test_no_timestamps_in_file(self, tmp_path):
        """Two separately saved identical models are byte-identical, so the
        header cannot carry wall-clock state."""
        g = random_graph(7)
        params = init_sgmn(g, n=1, gamma=0.9)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_params(p1, params)
        save_params(p2, params)
        assert p1.read_bytes() == p2.read_bytes()


class TestLoadErrors:
    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("something else\nkind=gmn\n")
        with pytest.raises(ValueError, match="not a recognized"):
            load_params(path, random_graph(1))

    def test_rejects_size_mismatch(self, tmp_path):
        g5 = random_graph(1, size=5)
        g4 = random_graph(1, size=4)
        path = tmp_path / "model.ckpt"
        save_params(path, init_gmn(g5, n=1, gamma=0.9))
        with pytest.raises(ValueError, match="sensors"):
            load_params(path, g4)

    def test_rejects_missing_blocks(self, tmp_path):
        g = random_graph(2)
        path = tmp_path / "model.ckpt"
        save_params(path, init_gmn(g, n=2, gamma=0.9))
        text = path.read_text()
        truncated = text[: text.index("[hop_weights 2]")]
        path.write_text(truncated)
        with pytest.raises(ValueError, match="blocks"):
            load_params(path, g)

    def test_rejects_garbage_rows(self, tmp_path):
        g = random_graph(3)
        path = tmp_path / "model.ckpt"
        save_params(path, init_gmn(g, n=1, gamma=0.9))
        path.write_text(path.read_text().replace("0,", "oops,", 1))
        with pytest.raises(ValueError, match="unparseable"):
            load_params(path, g)

    @pytest.mark.parametrize(
        "init, label",
        [(init_gmn, "hop_weights"), (init_sgmn, "frequency_gains")],
        ids=["init_gmn-hop_weights", "init_sgmn-frequency_gains"],
    )
    def test_rejects_row_of_wrong_width(self, tmp_path, init, label):
        g = random_graph(6)
        path = tmp_path / "model.ckpt"
        save_params(path, init(g, n=2, gamma=0.9))
        lines = path.read_text().splitlines()
        row = lines.index(f"[{label} 2]") + 1
        lines[row] = lines[row].rpartition(",")[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"\[{label} 2\] row 1 has 4 values, want 5") as err:
            load_params(path, g)
        assert str(path) in str(err.value)

    def test_rejects_malformed_header(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("graphmarkov-model v1\nkind=gmn\nsize=notanumber\n")
        with pytest.raises(ValueError, match="header"):
            load_params(path, random_graph(1))

    def test_rejects_nonfinite_gmn_weight(self, tmp_path):
        g = random_graph(4)
        params = init_gmn(g, n=2, gamma=0.9)
        weights = per_hop_tensors(params)
        weights[1] = weights[1].copy()
        weights[1][2, 2] = np.inf
        path = tmp_path / "model.ckpt"
        save_params(path, masked_params(params, weights))
        with pytest.raises(ValueError, match=r"\[hop_weights 2\] row 3 holds a non-finite"):
            load_params(path, g)

    def test_rejects_nonfinite_sgmn_gain(self, tmp_path):
        g = random_graph(5)
        params = init_sgmn(g, n=2, gamma=0.9)
        gains = [np.array(t) for t in params.gains]
        gains[1][0] = np.nan
        path = tmp_path / "model.ckpt"
        save_params(path, masked_params(params, gains))
        with pytest.raises(ValueError, match=r"\[frequency_gains 2\] row 1 holds a non-finite"):
            load_params(path, g)

    def test_rejects_unknown_model_kind(self, tmp_path):
        g = random_graph(1)
        path = tmp_path / "model.ckpt"
        save_params(path, init_gmn(g, n=1, gamma=0.9))
        path.write_text(path.read_text().replace("kind=gmn", "kind=lstm"))
        with pytest.raises(ValueError) as err:
            load_params(path, g)
        assert str(err.value) == f"checkpoint {path} has unknown model kind 'lstm'"

    def test_rejects_blocks_out_of_order(self, tmp_path):
        g = random_graph(2)
        path = tmp_path / "model.ckpt"
        save_params(path, init_gmn(g, n=2, gamma=0.9))
        text = path.read_text().replace("[hop_weights 1]", "[hop_weights 0]")
        path.write_text(text.replace("[hop_weights 2]", "[hop_weights 1]").replace("[hop_weights 0]", "[hop_weights 2]"))
        with pytest.raises(ValueError) as err:
            load_params(path, g)
        assert str(err.value) == f"checkpoint {path}: expected block [hop_weights 1]"

    def test_model_error_names_the_file(self, tmp_path):
        g = random_graph(3)
        path = tmp_path / "model.ckpt"
        save_params(path, init_sgmn(g, n=1, gamma=0.9))
        lines = ["gamma=1.5" if line.startswith("gamma=") else line for line in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            load_params(path, g)
        assert str(err.value) == f"checkpoint {path}: damping factor must lie in (0,1], got 1.5"

    def test_blank_lines_inside_a_block_are_skipped(self, tmp_path):
        g = random_graph(4)
        rng = np.random.default_rng(5)
        params = masked_params(
            init_gmn(g, n=2, gamma=0.9), [awkward_values((5, 5), rng) for _ in range(2)]
        )
        path = tmp_path / "model.ckpt"
        save_params(path, params)
        lines = path.read_text().splitlines()
        row = lines.index("[hop_weights 2]") + 2
        path.write_text("\n".join(lines[:row] + ["", "   "] + lines[row:]) + "\n")
        for got, want in zip(load_params(path, g).weights, params.weights):
            assert got.tobytes() == want.tobytes()

    def test_rejects_data_outside_any_block(self, tmp_path):
        """A marker with a trailing space is no marker, so the rows after
        the header start outside any block."""
        g = random_graph(6)
        path = tmp_path / "model.ckpt"
        save_params(path, init_gmn(g, n=1, gamma=0.9))
        path.write_text(path.read_text().replace("[hop_weights 1]", "[hop_weights 1] "))
        with pytest.raises(ValueError) as err:
            load_params(path, g)
        assert str(err.value) == (
            f"checkpoint {path}: line 7 '[hop_weights 1] ' is data outside any block"
        )

    @pytest.mark.parametrize("row", ["7,7,7", "  7,7,7", "kind"])
    def test_rejects_a_header_line_that_is_no_key_value(self, tmp_path, row):
        """A line before the first block that is neither key=value nor a
        marker is not skipped: its row would be lost."""
        g = random_graph(6, size=3)
        path = tmp_path / "model.ckpt"
        save_params(path, init_gmn(g, n=1, gamma=0.9))
        lines = path.read_text().splitlines()
        lines.insert(lines.index("[hop_weights 1]"), row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            load_params(path, g)
        assert str(err.value) == (
            f"checkpoint {path}: line 7 {row!r} is neither key=value nor a block marker"
        )

    def test_blank_header_lines_are_skipped(self, tmp_path):
        g = random_graph(6, size=3)
        path = tmp_path / "model.ckpt"
        params = init_gmn(g, n=1, gamma=0.9)
        save_params(path, params)
        path.write_text(path.read_text().replace("[hop_weights 1]", "\n  \n[hop_weights 1]"))
        assert load_params(path, g).theta.tobytes() == params.theta.tobytes()


class TestRowParsing:
    """Rows are read by one np.loadtxt per block where numpy and float()
    agree, else row by row with float(), which names the first fault."""

    @pytest.fixture
    def saved(self, tmp_path):
        g = random_graph(7)
        rng = np.random.default_rng(8)
        params = masked_params(
            init_gmn(g, n=2, gamma=0.9), [awkward_values((5, 5), rng) for _ in range(2)]
        )
        path = tmp_path / "model.ckpt"
        save_params(path, params)
        return g, path

    def test_cells_only_float_reads_load_row_by_row(self, saved):
        g, path = saved
        expected = load_params(path, g)
        text = path.read_text()
        path.write_text(text.replace("\n0,", "\n0_0,", 1).replace(",0,", ",٠,", 1))
        assert path.read_text() != text
        for got, want in zip(per_hop_tensors(load_params(path, g)), per_hop_tensors(expected)):
            np.testing.assert_array_equal(got, want)

    def test_control_character_padding_is_unparseable(self, saved):
        """numpy reads a cell padded with \\x1c; float() does not."""
        g, path = saved
        path.write_text(path.read_text().replace("\n0,", "\n\x1c0,", 1))
        with pytest.raises(ValueError, match=r"unparseable row '\\x1c0,"):
            load_params(path, g)

    def test_first_fault_in_file_order(self, saved):
        g, path = saved
        text = path.read_text().replace("\n0,", "\noops,", 1)
        path.write_text(text.replace("[hop_weights 2]", "[hop_weights two]"))
        with pytest.raises(ValueError, match="unparseable row 'oops,"):
            load_params(path, g)
