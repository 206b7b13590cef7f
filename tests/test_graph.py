"""Tests for graph construction, hop reachability, and the spectral basis."""

import numpy as np
import pytest

from graphmarkov.graph import (
    build_graph,
    hop_masks,
    normalized_laplacian,
    read_adjacency_csv,
    spectral_basis,
    write_adjacency_csv,
)


def path_graph(size):
    a = np.zeros((size, size))
    for i in range(size - 1):
        a[i, i + 1] = a[i + 1, i] = 1.0
    return build_graph(a)


class TestBuildGraph:
    def test_binarizes_and_symmetrizes(self):
        raw = np.array([[0.0, 2.5, 0.0], [0.0, 0.0, 0.1], [0.0, 0.0, 0.0]])
        g = build_graph(raw)
        expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        np.testing.assert_array_equal(g.adjacency, expected)

    def test_discards_diagonal(self):
        g = build_graph(np.array([[5.0, 1.0], [1.0, 5.0]]))
        np.testing.assert_array_equal(np.diag(g.adjacency), [0.0, 0.0])
        np.testing.assert_array_equal(np.diag(g.self_adjacency), [1.0, 1.0])

    def test_self_adjacency_is_adjacency_plus_identity(self):
        g = path_graph(4)
        np.testing.assert_array_equal(g.self_adjacency, g.adjacency + np.eye(4))

    def test_degree_counts_edges(self):
        g = path_graph(3)
        np.testing.assert_array_equal(g.degree, [1.0, 2.0, 1.0])

    def test_idempotent_on_clean_input(self):
        """Rebuilding from an already-binary symmetric adjacency changes nothing."""
        rng = np.random.default_rng(7)
        raw = rng.random((6, 6))
        g1 = build_graph(raw)
        g2 = build_graph(g1.adjacency)
        np.testing.assert_array_equal(g1.adjacency, g2.adjacency)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            build_graph(np.zeros((2, 3)))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            build_graph(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_graph(np.zeros((0, 0)))


class TestHopMasks:
    def test_first_mask_is_self_adjacency(self):
        g = path_graph(4)
        ms = hop_masks(g, 3)
        np.testing.assert_array_equal(ms.mask(1), g.self_adjacency)

    def test_path_graph_reachability(self):
        """On a 3-vertex path, the ends meet only at two hops."""
        g = path_graph(3)
        ms = hop_masks(g, 2)
        np.testing.assert_array_equal(
            ms.mask(1), [[1, 1, 0], [1, 1, 1], [0, 1, 1]]
        )
        np.testing.assert_array_equal(ms.mask(2), np.ones((3, 3)))

    def test_masks_grow_monotonically(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            g = build_graph((rng.random((8, 8)) < 0.25).astype(float))
            ms = hop_masks(g, 6)
            for k in range(1, 6):
                assert np.all(ms.mask(k) <= ms.mask(k + 1))

    def test_saturation_at_diameter(self):
        g = path_graph(5)  # diameter 4
        ms = hop_masks(g, 6)
        assert not np.all(ms.mask(3) == 1.0)
        np.testing.assert_array_equal(ms.mask(4), np.ones((5, 5)))
        np.testing.assert_array_equal(ms.mask(5), ms.mask(4))

    def test_dense_graph_deep_orders_do_not_overflow(self):
        """Path counts on a dense graph pass the float range within a few
        hundred powers; the masks must stay binary and complete."""
        rng = np.random.default_rng(13)
        g = build_graph((rng.random((50, 50)) < 0.9).astype(float))
        ms = hop_masks(g, 190)
        for k in (2, 100, 190):
            np.testing.assert_array_equal(ms.mask(k), np.ones((50, 50)))

    def test_matches_matrix_powers(self):
        rng = np.random.default_rng(17)
        g = build_graph((rng.random((12, 12)) < 0.15).astype(float))
        ms = hop_masks(g, 8)
        for k in range(1, 9):
            power = np.linalg.matrix_power(g.self_adjacency, k)
            np.testing.assert_array_equal(ms.mask(k), (power > 0).astype(float))

    def test_masks_are_read_only_bool(self):
        for mask in hop_masks(path_graph(4), 3).masks:
            assert mask.dtype == np.bool_
            assert not mask.flags.writeable

    def test_order_and_bounds(self):
        ms = hop_masks(path_graph(3), 2)
        assert ms.order == 2
        with pytest.raises(ValueError):
            ms.mask(0)
        with pytest.raises(ValueError):
            ms.mask(3)
        with pytest.raises(ValueError):
            hop_masks(path_graph(3), 0)


class TestNormalizedLaplacian:
    def test_two_vertex_analytic(self):
        g = build_graph(np.array([[0.0, 1.0], [1.0, 0.0]]))
        lap = normalized_laplacian(g)
        np.testing.assert_allclose(lap, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12)

    def test_path_three_analytic(self):
        g = path_graph(3)
        lap = normalized_laplacian(g)
        r = 1.0 / np.sqrt(2.0)
        expected = np.array([[1, -r, 0], [-r, 1, -r], [0, -r, 1]])
        np.testing.assert_allclose(lap, expected, atol=1e-12)

    def test_isolated_vertex_keeps_unit_diagonal(self):
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = 1.0
        lap = normalized_laplacian(build_graph(a))
        assert lap[2, 2] == 1.0
        np.testing.assert_array_equal(lap[2, :2], [0.0, 0.0])

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        g = build_graph((rng.random((10, 10)) < 0.3).astype(float))
        lap = normalized_laplacian(g)
        np.testing.assert_allclose(lap, lap.T, atol=1e-14)


class TestSpectralBasis:
    def test_two_vertex_analytic(self):
        g = build_graph(np.array([[0.0, 1.0], [1.0, 0.0]]))
        basis = spectral_basis(normalized_laplacian(g))
        r = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(basis.eigenvalues, [0.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(basis.eigenvectors), [[r, r], [r, r]], atol=1e-12)

    def test_path_three_eigenvalues(self):
        basis = spectral_basis(normalized_laplacian(path_graph(3)))
        np.testing.assert_allclose(basis.eigenvalues, [0.0, 1.0, 2.0], atol=1e-12)

    def test_orthonormal_and_reconstructs(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            g = build_graph((rng.random((12, 12)) < 0.3).astype(float))
            lap = normalized_laplacian(g)
            basis = spectral_basis(lap)
            u = basis.eigenvectors
            np.testing.assert_allclose(u.T @ u, np.eye(12), atol=1e-10)
            np.testing.assert_allclose(
                u @ np.diag(basis.eigenvalues) @ u.T, lap, atol=1e-10
            )

    def test_eigenvalues_ascending_and_nonnegative(self):
        rng = np.random.default_rng(23)
        g = build_graph((rng.random((9, 9)) < 0.4).astype(float))
        basis = spectral_basis(normalized_laplacian(g))
        assert np.all(np.diff(basis.eigenvalues) >= -1e-12)
        assert np.all(basis.eigenvalues >= 0.0)

    def test_sign_convention_deterministic(self):
        """Each column's largest-magnitude entry comes out positive, so two
        solves of the same matrix agree exactly."""
        g = build_graph((np.random.default_rng(5).random((7, 7)) < 0.4).astype(float))
        lap = normalized_laplacian(g)
        b1 = spectral_basis(lap)
        b2 = spectral_basis(lap.copy())
        np.testing.assert_array_equal(b1.eigenvectors, b2.eigenvectors)
        pivots = np.argmax(np.abs(b1.eigenvectors), axis=0)
        assert np.all(b1.eigenvectors[pivots, np.arange(7)] > 0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            spectral_basis(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestAdjacencyCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(29)
        a = (rng.random((5, 5)) < 0.5).astype(float)
        path = tmp_path / "adj.csv"
        write_adjacency_csv(path, a)
        np.testing.assert_array_equal(read_adjacency_csv(path), a)

    def test_round_trip_weighted(self, tmp_path):
        a = np.array([[0.0, 0.25], [0.125, 0.0]])
        path = tmp_path / "adj.csv"
        write_adjacency_csv(path, a)
        np.testing.assert_array_equal(read_adjacency_csv(path), a)

    def test_rejects_ragged(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n0\n")
        with pytest.raises(ValueError, match="ragged"):
            read_adjacency_csv(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_adjacency_csv(path)

    def test_rejects_text(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("a,b\nc,d\n")
        with pytest.raises(ValueError, match="unparseable"):
            read_adjacency_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_cell(self, tmp_path, cell):
        """A NaN weight used to pass the sign check and silently drop its
        edge; every non-finite cell is named by row and column."""
        path = tmp_path / "nf.csv"
        path.write_text(f"0,1,0\n1,0,{cell}\n0,1,0\n")
        with pytest.raises(ValueError, match="row 1, column 2 is .*must be finite"):
            build_graph(read_adjacency_csv(path))
