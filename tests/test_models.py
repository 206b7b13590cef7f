"""Tests for the predictions and gradients of both model parameterizations."""

from dataclasses import replace

import numpy as np
import pytest

from graphmarkov.data import LastObservations
from graphmarkov.graph import build_graph, hop_masks, normalized_laplacian, spectral_basis
from graphmarkov.models import (
    GmnParams,
    SgmnParams,
    init_gmn,
    init_params,
    init_sgmn,
)

from oracles import (
    complete_dataset,
    cumulative_mask,
    dense_passes,
    dense_spectral_map,
    fd_theta_grad,
    gmn_backward,
    masked_mse_grad,
    masked_params,
    mse_of,
    per_hop_tensors,
    random_instance,
    relative_grad_error,
    sgmn_backward,
    windows_dataset,
)


def two_node_graph():
    return build_graph(np.array([[0.0, 1.0], [1.0, 0.0]]))


def with_labels(data, labels):
    """The same windows with every label replaced and observed."""
    labels = np.asarray(labels, dtype=np.float64)
    return LastObservations(
        value=data.value, lag=data.lag, label=labels, label_mask=np.ones_like(labels), n=data.n
    )


class TestCumulativeMask:
    """The reference gate that the last-observation datasets are checked
    against."""

    def test_complete_data_keeps_only_newest(self):
        m = np.ones((2, 3, 4))
        c = cumulative_mask(m)
        np.testing.assert_array_equal(c[:, 0, :], 1.0)
        np.testing.assert_array_equal(c[:, 1:, :], 0.0)

    def test_missing_newest_opens_one_step_fallback(self):
        # Newest step missing everywhere, older steps observed.
        m = np.array([[[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]])
        c = cumulative_mask(m)
        np.testing.assert_array_equal(c[0, 0], [1.0, 1.0])
        np.testing.assert_array_equal(c[0, 1], [1.0, 1.0])
        np.testing.assert_array_equal(c[0, 2], [0.0, 0.0])

    def test_single_sensor_chain(self):
        """Masks newest-to-oldest [0,0,1]: both newer steps missing, so all
        three lags stay open."""
        m = np.array([[1.0], [0.0], [0.0]])  # oldest-first
        c = cumulative_mask(m)
        np.testing.assert_array_equal(c, [[1.0], [1.0], [1.0]])

    def test_lag_zero_is_always_open(self):
        rng = np.random.default_rng(2)
        m = (rng.random((5, 4, 3)) < 0.5).astype(float)
        c = cumulative_mask(m)
        np.testing.assert_array_equal(c[:, 0, :], 1.0)

    def test_gate_closes_after_first_observation(self):
        """Once a lag sees an observed newer reading, every deeper lag at that
        sensor is gated off."""
        rng = np.random.default_rng(4)
        m = (rng.random((3, 5, 2)) < 0.5).astype(float)
        c = cumulative_mask(m)
        newest_first = m[:, ::-1, :]
        for lag in range(1, 5):
            seen = newest_first[:, :lag, :].max(axis=1)
            np.testing.assert_array_equal(c[:, lag, :] * seen, 0.0)


class TestBatch:
    """Batches are row subsets of a LastObservations dataset."""

    def test_from_samples_stacks_in_order(self):
        inputs = np.stack([np.full((2, 3), float(k)) for k in range(1, 5)])
        data = complete_dataset(inputs, labels=inputs[:, 0, :])
        batch = data[np.array([2, 0, 3])]
        assert len(batch) == 3 and batch.n == 2 and batch.size == 3
        np.testing.assert_array_equal(batch.value[0], 3.0)
        np.testing.assert_array_equal(batch.label[1], 1.0)
        np.testing.assert_array_equal(batch.lag, 0)

    def test_rejects_empty(self):
        data = complete_dataset(np.ones((2, 2, 3)))
        with pytest.raises(ValueError, match="empty"):
            data[np.array([], dtype=int)]

    def test_rejects_unzeroed_inputs(self):
        with pytest.raises(ValueError, match="value 0"):
            LastObservations(
                value=np.ones((1, 2)),
                lag=np.full((1, 2), 2),
                label=np.ones((1, 2)),
                label_mask=np.ones((1, 2)),
                n=2,
            )

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            LastObservations(
                value=np.ones((1, 2)),
                lag=np.zeros((1, 2), dtype=int),
                label=np.ones((1, 3)),
                label_mask=np.ones((1, 3)),
                n=2,
            )
        with pytest.raises(ValueError, match="lags"):
            LastObservations(
                value=np.ones((1, 2)),
                lag=np.full((1, 2), 3),
                label=np.ones((1, 2)),
                label_mask=np.ones((1, 2)),
                n=2,
            )


class TestGmnForward:
    def test_one_hop_all_ones_weight(self):
        """With the weight equal to the support itself and no damping, a unit
        impulse spreads to both vertices of a connected pair."""
        g = two_node_graph()
        params = GmnParams.from_weights((g.self_adjacency.copy(),), hop_masks(g, 1), gamma=1.0)
        batch = complete_dataset([[[1.0, 0.0]]])
        np.testing.assert_allclose(params.predict(batch), [[1.0, 1.0]])

    def test_identity_init_predicts_damped_newest(self):
        g = two_node_graph()
        params = init_gmn(g, n=1, gamma=0.9)
        batch = complete_dataset([[[0.5, 0.5]]])
        np.testing.assert_allclose(params.predict(batch), [[0.45, 0.45]])

    def test_complete_data_reduces_to_first_term(self):
        """On fully observed windows, depth-3 output is bit-identical to the
        depth-1 output with the same first-hop weight."""
        rng = np.random.default_rng(6)
        g = build_graph((rng.random((5, 5)) < 0.5).astype(float))
        masks3 = hop_masks(g, 3)
        w1 = rng.standard_normal((5, 5)) * masks3.mask(1)
        w2 = rng.standard_normal((5, 5)) * masks3.mask(2)
        w3 = rng.standard_normal((5, 5)) * masks3.mask(3)
        deep = GmnParams.from_weights((w1, w2, w3), masks3, gamma=0.8)
        shallow = GmnParams.from_weights((w1,), hop_masks(g, 1), gamma=0.8)

        inputs3 = rng.random((4, 3, 5))
        out_deep = deep.predict(complete_dataset(inputs3))
        out_shallow = shallow.predict(complete_dataset(inputs3[:, 2:, :]))
        np.testing.assert_array_equal(out_deep, out_shallow)

    def test_zero_weights_zero_output(self):
        g = two_node_graph()
        params = GmnParams.from_weights(
            (np.zeros((2, 2)), np.zeros((2, 2))), hop_masks(g, 2), gamma=0.9
        )
        batch = complete_dataset(np.random.default_rng(1).random((3, 2, 2)))
        np.testing.assert_array_equal(params.predict(batch), 0.0)

    def test_missing_newest_falls_back_to_history(self):
        """A sensor whose newest reading is missing is predicted from the
        older reading through the two-hop term instead of contributing zero."""
        g = two_node_graph()
        masks = hop_masks(g, 2)
        params = GmnParams.from_weights((np.eye(2), np.eye(2)), masks, gamma=0.5)
        inputs = np.array([[[0.8, 0.6], [0.4, 0.0]]])
        mask = np.array([[[1.0, 1.0], [1.0, 0.0]]])  # sensor 1 newest missing
        batch = windows_dataset(inputs, mask, np.zeros((1, 2)), np.ones((1, 2)))
        out = params.predict(batch)
        # Sensor 0: newest observed -> gamma * 0.4. Sensor 1: falls back to
        # the older 0.6 through the hop-2 identity -> gamma^2 * 0.6.
        np.testing.assert_allclose(out, [[0.5 * 0.4, 0.25 * 0.6]])

    def test_rejects_mismatched_history(self):
        g = two_node_graph()
        params = init_gmn(g, n=2, gamma=0.9)
        with pytest.raises(ValueError, match="history"):
            params.predict(complete_dataset(np.ones((1, 3, 2))))
        with pytest.raises(ValueError, match="history"):
            params.loss_and_grad(complete_dataset(np.ones((1, 3, 2))))

    def test_rejects_mismatched_size(self):
        g = two_node_graph()
        params = init_gmn(g, n=1, gamma=0.9)
        with pytest.raises(ValueError, match="sensors"):
            params.predict(complete_dataset(np.ones((1, 1, 3))))
        with pytest.raises(ValueError, match="sensors"):
            params.loss_and_grad(complete_dataset(np.ones((1, 1, 3))))


class TestGmnBackward:
    """Gradients of the masked MSE with respect to the packed weights; the
    gradient has theta's layout, so replace(params, theta=grad).weights
    spreads it over the dense matrices."""

    def test_zero_upstream_zero_grads(self):
        """A perfect fit has a zero output gradient, hence zero gradients."""
        g = two_node_graph()
        params = init_gmn(g, n=2, gamma=0.9)
        batch = complete_dataset(np.random.default_rng(3).random((2, 2, 2)))
        batch = with_labels(batch, params.predict(batch))
        sq, observed, grad = params.loss_and_grad(batch)
        assert sq == 0.0 and observed == 4.0
        assert grad.shape == params.theta.shape
        np.testing.assert_array_equal(grad, 0.0)

    def test_single_element_outer_product(self):
        """B=1, n=1: the gradient is gamma times the outer product of the
        output gradient with the newest state, on the support. Labels are
        chosen so that the output gradient 2 (pred - label) / 2 is [3, -1]."""
        g = two_node_graph()
        params = init_gmn(g, n=1, gamma=0.5)
        batch = complete_dataset([[[0.2, 0.7]]], labels=[[0.1 - 3.0, 0.35 + 1.0]])
        _, _, grad = params.loss_and_grad(batch)
        expected = 0.5 * np.outer([3.0, -1.0], [0.2, 0.7])
        np.testing.assert_allclose(replace(params, theta=grad).weights[0], expected)

    def test_grads_vanish_off_support(self):
        """The packed gradient is the dense backward pass masked to the
        supports, entry for entry; off-support entries have no place in it."""
        rng = np.random.default_rng(8)
        g = build_graph(np.diag(np.ones(3), 1)[:4, :4] + np.diag(np.ones(3), -1)[:4, :4])
        params = init_gmn(g, n=2, gamma=0.7)
        mask = (rng.random((3, 2, 4)) < 0.6).astype(float)
        batch = windows_dataset(
            rng.random((3, 2, 4)) * mask, mask, rng.random((3, 4)), np.ones((3, 4))
        )
        _, _, grad = params.loss_and_grad(batch)
        support = sum(int(params.masks.mask(k).sum()) for k in (1, 2))
        assert grad.size == support < 2 * 4 * 4  # fewer than the dense entries
        upstream = masked_mse_grad(params.predict(batch), batch.label, batch.label_mask)
        dense = gmn_backward(params.weights, params.masks, params.gamma, batch, upstream)
        np.testing.assert_array_equal(replace(params, theta=grad).weights, dense)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        for _ in range(8):
            params, batch = random_instance(rng, init_gmn, build_graph)
            _, _, analytic = params.loss_and_grad(batch)
            numeric = fd_theta_grad(lambda p: mse_of(p, batch), params)
            assert relative_grad_error([analytic], [numeric]) < 1e-6


class TestSgmnForward:
    def test_unit_gains_reproduce_damped_newest(self):
        rng = np.random.default_rng(14)
        g = build_graph((rng.random((6, 6)) < 0.5).astype(float))
        params = init_sgmn(g, n=1, gamma=0.9)
        inputs = rng.random((3, 1, 6))
        out = params.predict(complete_dataset(inputs))
        np.testing.assert_allclose(out, 0.9 * inputs[:, 0, :], atol=1e-10)

    def test_zero_gains_zero_output(self):
        g = two_node_graph()
        params = SgmnParams.from_gains(
            (np.zeros(2), np.zeros(2)), spectral_basis(normalized_laplacian(g)), gamma=0.9
        )
        batch = complete_dataset(np.random.default_rng(0).random((2, 2, 2)))
        np.testing.assert_array_equal(params.predict(batch), 0.0)

    def test_matches_dense_matrix_oracle(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            params, batch = random_instance(rng, init_sgmn, build_graph)
            fast = params.predict(batch)
            u = params.basis.eigenvectors
            slow = np.zeros_like(fast)
            for i in range(params.n):
                dense = dense_spectral_map(u, params.gains[i])
                slow += (params.gamma ** (i + 1)) * batch.at_lag(i) @ dense.T
            np.testing.assert_allclose(fast, slow, atol=1e-10)

    def test_linear_in_inputs(self):
        rng = np.random.default_rng(18)
        g = build_graph((rng.random((5, 5)) < 0.5).astype(float))
        params = init_sgmn(g, n=2, gamma=0.8)
        params = masked_params(params, [rng.standard_normal(5) for _ in range(2)])
        mask = (rng.random((3, 2, 5)) < 0.7).astype(float)
        x1 = rng.random((3, 2, 5)) * mask
        x2 = rng.random((3, 2, 5)) * mask

        def run(x):
            return params.predict(windows_dataset(x, mask, np.zeros((3, 5)), np.ones((3, 5))))

        combined = run(2.0 * x1 + 3.0 * x2)
        np.testing.assert_allclose(combined, 2.0 * run(x1) + 3.0 * run(x2), atol=1e-10)

    def test_complete_data_reduces_to_first_term(self):
        rng = np.random.default_rng(20)
        g = build_graph((rng.random((4, 4)) < 0.6).astype(float))
        basis = spectral_basis(normalized_laplacian(g))
        g1 = rng.standard_normal(4)
        deep = SgmnParams.from_gains((g1, rng.standard_normal(4)), basis, gamma=0.9)
        shallow = SgmnParams.from_gains((g1,), basis, gamma=0.9)
        inputs = rng.random((2, 2, 4))
        out_deep = deep.predict(complete_dataset(inputs))
        out_shallow = shallow.predict(complete_dataset(inputs[:, 1:, :]))
        np.testing.assert_array_equal(out_deep, out_shallow)


class TestSgmnBackward:
    def test_zero_upstream_zero_grads(self):
        g = two_node_graph()
        params = init_sgmn(g, n=2, gamma=0.9)
        batch = complete_dataset(np.random.default_rng(5).random((2, 2, 2)))
        batch = with_labels(batch, params.predict(batch))
        _, _, grad = params.loss_and_grad(batch)
        assert grad.shape == params.theta.shape
        np.testing.assert_array_equal(grad, 0.0)

    def test_hand_computed_two_sensor_case(self):
        """On the connected pair the basis is [[1,1],[1,-1]]/sqrt(2); with
        x=[1,0], output gradient [1,2], damping 0.5 the gain gradient works
        out to [0.75, -0.25] by direct arithmetic. Unit gains predict
        0.5 x = [0.5, 0]; labels [-0.5, -2] make 2 (pred - label) / 2 the
        output gradient [1, 2]."""
        g = two_node_graph()
        params = init_sgmn(g, n=1, gamma=0.5)
        batch = complete_dataset([[[1.0, 0.0]]], labels=[[-0.5, -2.0]])
        _, _, grad = params.loss_and_grad(batch)
        np.testing.assert_allclose(grad, [0.75, -0.25], atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        for _ in range(8):
            params, batch = random_instance(rng, init_sgmn, build_graph)
            _, _, analytic = params.loss_and_grad(batch)
            numeric = fd_theta_grad(lambda p: mse_of(p, batch), params)
            assert relative_grad_error([analytic], [numeric]) < 1e-6
            upstream = masked_mse_grad(params.predict(batch), batch.label, batch.label_mask)
            dense = sgmn_backward(params.gains, params.basis, params.gamma, batch, upstream)
            np.testing.assert_array_equal(analytic, np.concatenate(dense))


class TestPresentLags:
    """Both models skip the lags that hold no reading in a batch; the
    predictions and gradients still equal the dense passes over every lag
    bit for bit."""

    def batch(self, lags, seed=0):
        rng = np.random.default_rng(seed)
        lag = np.asarray(lags)
        value = np.where(lag < 5, rng.standard_normal(lag.shape), 0.0)
        label = rng.standard_normal(lag.shape)
        return LastObservations(
            value=value, lag=lag, label=label, label_mask=np.ones(lag.shape, dtype=bool), n=5
        )

    def random_params(self, kind, seed=0):
        rng = np.random.default_rng(seed)
        adjacency = (rng.random((6, 6)) < 0.4).astype(float)
        g = build_graph(np.maximum(adjacency, adjacency.T))
        params = init_params(kind, g, n=5, gamma=0.8)
        return masked_params(params, [rng.standard_normal(np.shape(t)) for t in per_hop_tensors(params)])

    def check_against_dense(self, params, data):
        tensors, forward, backward, _ = dense_passes(params)
        expected = forward(tensors, data)
        np.testing.assert_array_equal(params.predict(data), expected)
        sq, observed, grad = params.loss_and_grad(data)
        diff = (expected - data.label) * data.label_mask
        assert (sq, observed) == (float((diff * diff).sum()), float(data.label_mask.sum()))
        upstream = masked_mse_grad(expected, data.label, data.label_mask)
        dense = masked_params(params, backward(tensors, data, upstream)).theta
        np.testing.assert_array_equal(grad, dense)
        return grad

    @pytest.mark.parametrize("kind", ["gmn", "sgmn"])
    def test_empty_middle_and_deepest_lags(self, kind):
        """Lags 0, 1 and 3 hold readings; lag 2 between them and lag 4
        below them hold none, and some sensors saw nothing (lag 5)."""
        data = self.batch([[0, 1, 3, 0, 5, 1], [3, 0, 0, 5, 1, 0], [1, 1, 0, 3, 0, 5]])
        assert data.present_lags() == [0, 1, 3]
        self.check_against_dense(self.random_params(kind), data)

    @pytest.mark.parametrize("kind", ["gmn", "sgmn"])
    def test_no_reading_in_any_window(self, kind):
        data = self.batch(np.full((4, 6), 5))
        assert data.present_lags() == []
        params = self.random_params(kind, seed=1)
        np.testing.assert_array_equal(params.predict(data), 0.0)
        np.testing.assert_array_equal(self.check_against_dense(params, data), 0.0)


class TestInitParams:
    def test_gmn_support_holds_at_init(self):
        rng = np.random.default_rng(24)
        g = build_graph((rng.random((6, 6)) < 0.4).astype(float))
        params = init_gmn(g, n=3, gamma=0.9)
        for k in range(1, 4):
            w = params.weights[k - 1]
            np.testing.assert_array_equal(w * (1 - params.masks.mask(k)), 0.0)
        np.testing.assert_array_equal(params.weights[0], np.eye(6))

    def test_dispatch(self):
        g = two_node_graph()
        assert init_params("gmn", g, 2, 0.9).kind == "gmn"
        assert init_params("sgmn", g, 2, 0.9).kind == "sgmn"
        with pytest.raises(ValueError, match="kind"):
            init_params("mlp", g, 2, 0.9)

    def test_rejects_bad_history(self):
        with pytest.raises(ValueError):
            init_gmn(two_node_graph(), n=0, gamma=0.9)

    def test_rejects_bad_gamma(self):
        g = two_node_graph()
        with pytest.raises(ValueError, match="damping"):
            init_gmn(g, n=1, gamma=0.0)
        with pytest.raises(ValueError, match="damping"):
            init_sgmn(g, n=1, gamma=1.5)
        # gamma = 1 is allowed: it is the undamped baseline configuration.
        init_gmn(g, n=1, gamma=1.0)

    def test_params_reject_off_support_weights(self):
        g = build_graph(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=float))
        bad = np.ones((3, 3))  # vertex 2 is isolated; (0,2) is off-support
        with pytest.raises(ValueError, match="support"):
            GmnParams.from_weights((bad,), hop_masks(g, 1), gamma=0.9)

    def test_off_support_entries_cannot_be_set(self):
        """theta holds one entry per support position, so no vector of its
        length reaches an off-support weight: the all-ones vector rebuilds
        the support itself."""
        g = build_graph(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=float))
        params = init_gmn(g, n=1, gamma=0.9)
        assert params.theta.size == int(g.self_adjacency.sum()) == 5
        updated = replace(params, theta=np.ones(params.theta.size))
        np.testing.assert_array_equal(updated.weights[0], g.self_adjacency)
        with pytest.raises(ValueError):
            updated.weights[0][0, 2] = 1.0

    def test_shape_checks(self):
        g = two_node_graph()
        with pytest.raises(ValueError, match="2 hop masks"):
            GmnParams.from_weights((np.eye(2),), hop_masks(g, 2), gamma=0.9)
        with pytest.raises(ValueError, match="shape"):
            GmnParams.from_weights((np.eye(3),), hop_masks(g, 1), gamma=0.9)
        basis = spectral_basis(normalized_laplacian(g))
        with pytest.raises(ValueError, match="shape"):
            SgmnParams.from_gains((np.ones(3),), basis, gamma=0.9)
        with pytest.raises(ValueError, match="at least one"):
            SgmnParams.from_gains((), basis, gamma=0.9)
