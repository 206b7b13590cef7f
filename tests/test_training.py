"""Tests for masked loss, Adam, and the epoch loop with its schedule."""

import numpy as np
import pytest

from graphmarkov.data import prepare_datasets
from graphmarkov.graph import build_graph
from graphmarkov.models import forward, gmn_backward, gmn_forward, init_gmn, init_sgmn
from graphmarkov.simulate import random_transition, simulate_gmp
from graphmarkov.training import (
    AdamState,
    EpochRecord,
    TrainConfig,
    TrainHistory,
    adam_step,
    masked_mse,
    masked_mse_grad,
    train,
    write_history_csv,
)

from oracles import complete_dataset


def ring_graph(size):
    a = np.zeros((size, size))
    for i in range(size):
        a[i, (i + 1) % size] = a[(i + 1) % size, i] = 1.0
    return build_graph(a)


def simulated_bundle(seed=0, size=6, steps=80, gamma=0.95, noise=0.0, n=1, missing=0.0):
    g = ring_graph(size)
    spec = random_transition(g, seed, gamma=gamma, noise_std=noise)
    series = simulate_gmp(g, spec, steps=steps, seed=seed + 1)
    return g, prepare_datasets(series, n=n, missing_rate=missing, seed=seed + 2)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 64
        assert cfg.lr_init == 1e-3
        assert cfg.lr_floor == 1e-5
        assert cfg.lr_patience == 4
        assert cfg.stop_patience == 5
        assert cfg.min_delta == 1e-5
        assert cfg.max_epochs == 200

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(lr_init=1e-5, lr_floor=1e-3)
        with pytest.raises(ValueError):
            TrainConfig(lr_patience=0)
        with pytest.raises(ValueError):
            TrainConfig(min_delta=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(max_epochs=0)


class TestMaskedMse:
    def test_perfect_fit(self):
        pred = np.array([[1.0, 2.0]])
        assert masked_mse(pred, pred, np.ones((1, 2))) == 0.0

    def test_hand_value_all_observed(self):
        loss = masked_mse(
            np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]])
        )
        assert loss == 0.5

    def test_masked_entry_excluded(self):
        loss = masked_mse(
            np.array([[1.0, 0.0]]), np.array([[0.0, 5.0]]), np.array([[1.0, 0.0]])
        )
        assert loss == 1.0

    def test_rejects_all_masked(self):
        with pytest.raises(ValueError, match="observed"):
            masked_mse(np.ones((1, 2)), np.ones((1, 2)), np.zeros((1, 2)))

    def test_grad_matches_loss_slope(self):
        rng = np.random.default_rng(0)
        pred = rng.random((3, 4))
        labels = rng.random((3, 4))
        mask = (rng.random((3, 4)) < 0.7).astype(float)
        grad = masked_mse_grad(pred, labels, mask)
        step = 1e-7
        bump = np.zeros_like(pred)
        bump[1, 2] = step
        fd = (masked_mse(pred + bump, labels, mask) - masked_mse(pred - bump, labels, mask)) / (
            2 * step
        )
        np.testing.assert_allclose(grad[1, 2], fd, atol=1e-6)


class TestAdamStep:
    def make(self, seed=0):
        g = ring_graph(4)
        params = init_gmn(g, n=2, gamma=0.9)
        rng = np.random.default_rng(seed)
        grads = tuple(
            rng.standard_normal((4, 4)) * params.masks.mask(k) for k in (1, 2)
        )
        return params, grads

    def test_zero_grads_leave_params_unchanged(self):
        params, _ = self.make()
        zeros = tuple(np.zeros((4, 4)) for _ in range(2))
        updated, state = adam_step(params, zeros, AdamState.fresh(params), lr=1e-3)
        for a, b in zip(params.weights, updated.weights):
            np.testing.assert_array_equal(a, b)
        assert state.step == 1

    def test_first_step_is_signlike(self):
        """With fresh moments the bias-corrected update is g/(|g|+eps), so
        each touched entry moves by almost exactly lr against the gradient."""
        params, grads = self.make(seed=1)
        updated, _ = adam_step(params, grads, AdamState.fresh(params), lr=1e-3)
        delta = updated.weights[0] - params.weights[0]
        moved = np.abs(grads[0]) > 1e-3
        np.testing.assert_allclose(
            delta[moved], -1e-3 * np.sign(grads[0][moved]), rtol=1e-4
        )

    def test_deterministic(self):
        params, grads = self.make(seed=2)
        a, _ = adam_step(params, grads, AdamState.fresh(params), lr=1e-3)
        b, _ = adam_step(params, grads, AdamState.fresh(params), lr=1e-3)
        for x, y in zip(a.weights, b.weights):
            np.testing.assert_array_equal(x, y)

    def test_support_preserved_across_updates(self):
        params, grads = self.make(seed=3)
        state = AdamState.fresh(params)
        for _ in range(10):
            params, state = adam_step(params, grads, state, lr=1e-2)
        for k in (1, 2):
            w = params.weights[k - 1]
            np.testing.assert_array_equal(w * (1 - params.masks.mask(k)), 0.0)

    def test_rejects_nonfinite_grads(self):
        params, grads = self.make()
        bad = tuple(np.where(np.eye(4) > 0, np.nan, g) for g in grads)
        with pytest.raises(ValueError, match="non-finite"):
            adam_step(params, bad, AdamState.fresh(params), lr=1e-3)

    def test_small_step_decreases_quadratic_loss(self):
        g = ring_graph(5)
        params = init_gmn(g, n=1, gamma=0.9)
        rng = np.random.default_rng(7)
        batch = complete_dataset(rng.random((8, 1, 5)), labels=rng.random((8, 5)))
        before = masked_mse(gmn_forward(params, batch), batch.label, batch.label_mask)
        grad_out = masked_mse_grad(gmn_forward(params, batch), batch.label, batch.label_mask)
        grads = gmn_backward(params, batch, grad_out)
        params, _ = adam_step(params, grads, AdamState.fresh(params), lr=1e-4)
        after = masked_mse(gmn_forward(params, batch), batch.label, batch.label_mask)
        assert after < before


class TestTrainHistory:
    def records(self, vals, lrs=None):
        lrs = lrs or [1e-3] * len(vals)
        return tuple(
            EpochRecord(epoch=i + 1, train_loss=v, val_loss=v, lr=lrs[i], seconds=0.1)
            for i, v in enumerate(vals)
        )

    def test_best_epoch(self):
        h = TrainHistory(records=self.records([3.0, 1.0, 2.0]))
        assert h.best_epoch == 2
        assert h.epochs == 3

    def test_rejects_gapped_epochs(self):
        recs = self.records([1.0, 2.0])
        broken = (recs[0], EpochRecord(epoch=5, train_loss=1, val_loss=1, lr=1e-3, seconds=0))
        with pytest.raises(ValueError, match="contiguous"):
            TrainHistory(records=broken)

    def test_rejects_increasing_lr(self):
        with pytest.raises(ValueError, match="non-increasing"):
            TrainHistory(records=self.records([1.0, 1.0], lrs=[1e-4, 1e-3]))

    def test_csv_layout_and_determinism(self, tmp_path):
        h = TrainHistory(records=self.records([0.5, 0.25]))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_history_csv(p1, h)
        write_history_csv(p2, h)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "epoch,train_loss,val_loss,lr"
        assert "seconds" not in p1.read_text()


class TestTrainLoop:
    def test_val_loss_decreases_on_clean_simulation(self):
        """Noiseless generated data with the model damping set well below the
        generator's: the warm start is then clearly wrong and every early
        epoch improves validation loss. (With matched damping the warm start
        is already optimal in the generator's stationary regime — a
        row-stochastic transition preserves constant vectors — and there is
        nothing to learn.)"""
        g, bundle = simulated_bundle(seed=3, noise=0.0, n=1, gamma=0.95)
        params = init_gmn(g, n=1, gamma=0.5)
        cfg = TrainConfig(batch_size=16, seed=1, max_epochs=5, min_delta=0.0)
        _, history = train(params, bundle.train, bundle.val, cfg)
        vals = history.val_losses()
        assert len(vals) == 5
        assert np.all(np.diff(vals) < 0)

    def test_zero_lr_keeps_params(self):
        g, bundle = simulated_bundle(seed=5, n=2)
        params = init_gmn(g, n=2, gamma=0.9)
        cfg = TrainConfig(lr_init=0.0, lr_floor=0.0, max_epochs=1, seed=0)
        trained, history = train(params, bundle.train, bundle.val, cfg)
        assert history.epochs == 1
        for a, b in zip(params.weights, trained.weights):
            np.testing.assert_array_equal(a, b)

    def test_plateau_decays_then_stops(self):
        """A model that starts at the exact optimum never improves, so the
        loop decays once after lr_patience epochs and stops after
        stop_patience."""
        g = ring_graph(4)
        params = init_gmn(g, n=1, gamma=0.5)
        rng = np.random.default_rng(9)
        x = rng.random((12, 1, 4))
        samples = complete_dataset(x, labels=0.5 * x[:, 0, :])
        cfg = TrainConfig(batch_size=4, seed=2, max_epochs=50)
        _, history = train(params, samples, samples, cfg)
        assert history.epochs == 6
        lrs = [rec.lr for rec in history.records]
        np.testing.assert_allclose(lrs, [1e-3] * 5 + [1e-4])
        assert np.all(history.val_losses() == 0.0)

    def test_lr_never_below_floor(self):
        g = ring_graph(4)
        params = init_gmn(g, n=1, gamma=0.5)
        rng = np.random.default_rng(11)
        x = np.tile(rng.random((1, 1, 4)), (8, 1, 1))
        samples = complete_dataset(x, labels=0.5 * x[:, 0, :])
        cfg = TrainConfig(
            batch_size=8, seed=0, max_epochs=80, lr_init=1e-4, lr_floor=1e-5,
            lr_patience=1, stop_patience=10,
        )
        _, history = train(params, samples, samples, cfg)
        lrs = np.array([rec.lr for rec in history.records])
        assert lrs.min() == 1e-5
        assert np.all(lrs >= 1e-5)

    def test_returns_best_epoch_params(self):
        g, bundle = simulated_bundle(seed=7, noise=0.01, n=2, missing=0.2)
        params = init_sgmn(g, n=2, gamma=0.95)
        cfg = TrainConfig(batch_size=16, seed=3, max_epochs=12, min_delta=0.0)
        best, history = train(params, bundle.train, bundle.val, cfg)
        from graphmarkov.training import _dataset_loss

        achieved = _dataset_loss(best, bundle.val)
        np.testing.assert_allclose(achieved, history.val_losses().min(), rtol=1e-12)

    def test_bit_identical_reruns(self):
        g, bundle = simulated_bundle(seed=13, noise=0.01, n=2, missing=0.1)
        params = init_gmn(g, n=2, gamma=0.95)
        cfg = TrainConfig(batch_size=8, seed=5, max_epochs=6)
        _, h1 = train(params, bundle.train, bundle.val, cfg)
        _, h2 = train(params, bundle.train, bundle.val, cfg)
        np.testing.assert_array_equal(h1.val_losses(), h2.val_losses())
        np.testing.assert_array_equal(
            [r.train_loss for r in h1.records], [r.train_loss for r in h2.records]
        )

    def test_rejects_empty_sets(self):
        """An empty set cannot reach train: selecting no rows raises."""
        g, bundle = simulated_bundle(seed=15)
        params = init_gmn(g, n=1, gamma=0.9)
        nothing = np.array([], dtype=int)
        with pytest.raises(ValueError, match="empty"):
            train(params, bundle.train[nothing], bundle.val, TrainConfig())
        with pytest.raises(ValueError, match="empty"):
            train(params, bundle.train, bundle.val[nothing], TrainConfig())
