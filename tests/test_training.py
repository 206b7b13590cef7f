"""Tests for masked loss, Adam, and the epoch loop with its schedule."""

from dataclasses import replace

import numpy as np
import pytest

from graphmarkov import training
from graphmarkov.data import LastObservations, prepare_datasets
from graphmarkov.graph import build_graph
from graphmarkov.models import init_gmn, init_params, init_sgmn
from graphmarkov.simulate import random_transition, simulate_gmp
from graphmarkov.training import (
    EpochRecord,
    TrainConfig,
    TrainHistory,
    _dataset_loss,
    adam_step,
    train,
    write_history_csv,
)

from oracles import (
    adam_tensors,
    complete_dataset,
    masked_mse,
    mse_of,
    per_hop_tensors,
    train_reference,
)


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

    @pytest.mark.parametrize("name", ["lr_init", "lr_floor", "min_delta"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            TrainConfig(**{name: value})


def identity_model(size=2):
    """The undamped one-step identity map: it predicts each window's value."""
    a = np.ones((size, size)) - np.eye(size)
    return init_gmn(build_graph(a), n=1, gamma=1.0)


class TestMaskedMse:
    """The masked squared-error sum and count that loss_and_grad returns,
    on a model that predicts its input, so pred is the window value."""

    def test_perfect_fit(self):
        data = complete_dataset([[[1.0, 2.0]]], labels=[[1.0, 2.0]])
        assert identity_model().loss_and_grad(data)[:2] == (0.0, 2.0)

    def test_hand_value_all_observed(self):
        data = complete_dataset([[[1.0, 0.0]]], labels=[[0.0, 0.0]])
        assert mse_of(identity_model(), data) == 0.5

    def test_masked_entry_excluded(self):
        data = complete_dataset([[[1.0, 0.0]]], labels=[[0.0, 5.0]])
        data = LastObservations(
            value=data.value, lag=data.lag, label=data.label,
            label_mask=np.array([[1.0, 0.0]]), n=1,
        )
        sq, observed, _ = identity_model().loss_and_grad(data)
        assert (sq, observed) == (1.0, 1.0)
        assert sq / observed == masked_mse(data.value, data.label, data.label_mask)

    def test_rejects_all_masked(self):
        data = complete_dataset([[[1.0, 1.0]]])
        data = LastObservations(
            value=data.value, lag=data.lag, label=data.label,
            label_mask=np.zeros((1, 2)), n=1,
        )
        with pytest.raises(ValueError, match="observed"):
            identity_model().loss_and_grad(data)

    def test_dataset_loss_rejects_all_masked(self):
        data = complete_dataset(np.ones((1100, 1, 2)))
        data = LastObservations(
            value=data.value, lag=data.lag, label=data.label,
            label_mask=np.zeros((1100, 2), bool), n=1,
        )
        with pytest.raises(ValueError, match="dataset has no observed label entries"):
            _dataset_loss(identity_model(), data)

    def test_grad_matches_loss_slope(self):
        rng = np.random.default_rng(0)
        params = init_gmn(ring_graph(4), n=2, gamma=0.8)
        mask = (rng.random((3, 2, 4)) < 0.7).astype(float)
        data = complete_dataset(rng.random((3, 2, 4)), labels=rng.random((3, 4)))
        data = LastObservations(
            value=data.value, lag=data.lag, label=data.label, label_mask=mask[:, 0, :], n=2,
        )
        _, _, grad = params.loss_and_grad(data)
        step = 1e-7
        bump = np.zeros_like(params.theta)
        bump[5] = step
        fd = (mse_of(replace(params, theta=params.theta + bump), data)
              - mse_of(replace(params, theta=params.theta - bump), data)) / (2 * step)
        np.testing.assert_allclose(grad[5], fd, atol=1e-6)


class TestAdamStep:
    def make(self, seed=0):
        """Warm-start params, a writable copy of their theta and a gradient."""
        g = ring_graph(4)
        params = init_gmn(g, n=2, gamma=0.9)
        rng = np.random.default_rng(seed)
        return params, params.theta.copy(), rng.standard_normal(params.theta.shape)

    def fresh(self, theta):
        """Zero first and second moments, as train starts them."""
        return np.zeros_like(theta), np.zeros_like(theta)

    def test_zero_grads_leave_params_unchanged(self):
        params, theta, _ = self.make()
        first, second = self.fresh(theta)
        assert adam_step(theta, np.zeros_like(theta), first, second, 1, lr=1e-3) is None
        assert theta.tobytes() == params.theta.tobytes()
        np.testing.assert_array_equal(params.weights, replace(params, theta=theta).weights)
        np.testing.assert_array_equal(first, 0.0)
        np.testing.assert_array_equal(second, 0.0)

    def test_first_step_is_signlike(self):
        """With fresh moments the bias-corrected update is g/(|g|+eps), so
        each touched entry moves by almost exactly lr against the gradient."""
        params, theta, grad = self.make(seed=1)
        adam_step(theta, grad, *self.fresh(theta), 1, lr=1e-3)
        delta = theta - params.theta
        moved = np.abs(grad) > 1e-3
        np.testing.assert_allclose(delta[moved], -1e-3 * np.sign(grad[moved]), rtol=1e-4)

    def test_deterministic(self):
        _, a, grad = self.make(seed=2)
        b = a.copy()
        adam_step(a, grad, *self.fresh(a), 1, lr=1e-3)
        adam_step(b, grad, *self.fresh(b), 1, lr=1e-3)
        assert a.tobytes() == b.tobytes()

    def test_support_preserved_across_updates(self):
        """The flat update matches the per-tensor update with re-masking
        entry for entry, so off-support weights stay exactly zero."""
        params, theta, grad = self.make(seed=3)
        moments = self.fresh(theta)
        tensors = per_hop_tensors(params)
        first = [np.zeros_like(t) for t in tensors]
        second = [np.zeros_like(t) for t in tensors]
        dense_grads = list(replace(params, theta=grad).weights)
        remask = lambda ts: [t * params.masks.mask(k) for k, t in enumerate(ts, start=1)]
        for step in range(1, 11):
            adam_step(theta, grad, *moments, step, lr=1e-2)
            tensors, first, second = adam_tensors(
                tensors, dense_grads, first, second, step, 1e-2, remask
            )
        weights = replace(params, theta=theta).weights
        np.testing.assert_array_equal(weights, tensors)
        for k in (1, 2):
            np.testing.assert_array_equal(weights[k - 1] * (1 - params.masks.mask(k)), 0.0)

    def test_rejects_nonfinite_grads(self):
        params, theta, grad = self.make()
        grad[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            adam_step(theta, grad, *self.fresh(theta), 1, lr=1e-3)
        assert theta.tobytes() == params.theta.tobytes()

    def test_aborted_update_leaves_moments_untouched(self):
        """A non-finite gradient entry, even the last one, is caught before
        theta or either moment array is written."""
        _, theta, grad = self.make(seed=4)
        first, second = self.fresh(theta)
        adam_step(theta, grad, first, second, 1, lr=1e-3)
        before = theta.copy(), first.copy(), second.copy()
        grad[-1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            adam_step(theta, grad, first, second, 2, lr=1e-3)
        for got, want in zip((theta, first, second), before):
            assert got.tobytes() == want.tobytes()

    def test_small_step_decreases_quadratic_loss(self):
        g = ring_graph(5)
        params = init_gmn(g, n=1, gamma=0.9)
        rng = np.random.default_rng(7)
        batch = complete_dataset(rng.random((8, 1, 5)), labels=rng.random((8, 5)))
        before = mse_of(params, batch)
        _, _, grad = params.loss_and_grad(batch)
        theta = params.theta.copy()
        adam_step(theta, grad, *self.fresh(theta), 1, lr=1e-4)
        assert mse_of(replace(params, theta=theta), batch) < before


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

    @pytest.mark.parametrize("kind", ["gmn", "sgmn"])
    def test_works_on_its_own_copy_of_theta(self, kind, monkeypatch):
        """Adam writes one vector per run, never the caller's theta, and the
        returned params hold a read-only copy of it."""
        g, bundle = simulated_bundle(seed=13, noise=0.01, n=2, missing=0.1)
        params = init_params(kind, g, n=2, gamma=0.95)
        before = params.theta.tobytes()
        written = []

        def recording_adam_step(theta, *args, **kwargs):
            written.append(theta)
            return adam_step(theta, *args, **kwargs)

        monkeypatch.setattr(training, "adam_step", recording_adam_step)
        config = TrainConfig(batch_size=8, seed=5, max_epochs=3)
        trained, _ = train(params, bundle.train, bundle.val, config)
        assert params.theta.tobytes() == before
        assert len({id(theta) for theta in written}) == 1
        assert not np.shares_memory(written[0], params.theta)
        assert not np.shares_memory(written[0], trained.theta)
        assert not trained.theta.flags.writeable
        assert trained.theta.tobytes() != before

    @pytest.mark.parametrize("kind", ["gmn", "sgmn"])
    def test_leaves_no_cached_blocks_on_the_callers_params(self, kind):
        g, bundle = simulated_bundle(seed=13, noise=0.01, n=2, missing=0.1)
        params = init_params(kind, g, n=2, gamma=0.95)
        train(params, bundle.train, bundle.val, TrainConfig(batch_size=8, seed=5, max_epochs=2))
        assert "blocks" not in params.__dict__

    @pytest.mark.parametrize("kind", ["gmn", "sgmn"])
    def test_adam_gets_the_full_gradient_at_the_active_entries(self, kind, monkeypatch):
        """Each step's compact gradient is loss_and_grad's full gradient of
        the params Adam holds, gathered at the active entries, bit for bit,
        on batches missing some lags and on the short final batch."""
        g, bundle = simulated_bundle(seed=17, steps=120, noise=0.01, n=3, missing=0.2)
        data = bundle.train
        config = TrainConfig(batch_size=8, seed=4, max_epochs=2, lr_init=1e-2)
        params = init_params(kind, g, n=3, gamma=0.9)
        active = params.active_entries(data)
        steps = []

        def recording_adam_step(values, grad, *args, **kwargs):
            steps.append((values.copy(), grad.copy()))
            return adam_step(values, grad, *args, **kwargs)

        monkeypatch.setattr(training, "adam_step", recording_adam_step)
        _, history = train(params, data, bundle.val, config)
        rng = np.random.default_rng(config.seed)
        batches = []
        for _ in range(history.epochs):
            order = rng.permutation(len(data))
            batches += [data[order[lo : lo + 8]] for lo in range(0, len(data), 8)]
        assert len(batches) == len(steps) and len(data) % 8
        assert any(0 < len(b.present_lags()) < 3 for b in batches)
        for batch, (values, grad) in zip(batches, steps):
            theta = params.theta.copy()
            theta[active] = values
            _, _, full = replace(params, theta=theta).loss_and_grad(batch)
            assert grad.tobytes() == full[active].tobytes()

    @pytest.mark.parametrize("kind", ["gmn", "sgmn"])
    @pytest.mark.parametrize("where", ["reading", "label"])
    def test_non_finite_gradient_stops_before_any_write(self, kind, where, monkeypatch):
        """A reading of 1e300 overflows the gradient at an active entry; a
        label of 1e308 overflows the output gradient of sensor 0, whose
        gmn entries are all inactive (it is isolated and never read), so
        only the output gradient shows it, and train checks it before
        calling Adam. Either way nothing is written, and the caller's theta
        is unchanged."""
        g = build_graph(np.array([[0.0, 0, 0], [0, 0, 1], [0, 1, 0]]))
        rows = 4
        value = np.tile([0.0, 0.5, 0.25], (rows, 1))
        lag = np.tile(np.array([1, 0, 0], dtype=np.uint8), (rows, 1))
        label = np.full((rows, 3), 0.5)
        if where == "reading":
            value[:, 1] = 1e300
        else:
            label[:, 0] = 1e308
        data = LastObservations(value=value, lag=lag, label=label, label_mask=np.ones((rows, 3)), n=1)
        val = replace(data, value=np.tile([0.0, 0.5, 0.25], (rows, 1)), label=np.full((rows, 3), 0.5))
        params = init_params(kind, g, n=1, gamma=0.9)
        before = params.theta.tobytes()
        seen = []

        def recording_adam_step(values, grad, first, second, *args, **kwargs):
            seen.append((values, values.tobytes(), first, second))
            return adam_step(values, grad, first, second, *args, **kwargs)

        monkeypatch.setattr(training, "adam_step", recording_adam_step)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="non-finite gradient"
        ):
            train(params, data, val, TrainConfig(batch_size=rows))
        assert params.theta.tobytes() == before
        for values, written, first, second in seen:
            assert values.tobytes() == written
            assert not first.any() and not second.any()
        assert len(seen) == (where == "reading")

    def test_overflowing_validation_loss_stops_training(self):
        """Readings near 1e200 square past the largest double, so the first
        epoch's validation loss is inf."""
        g, bundle = simulated_bundle(seed=5, n=2)
        val = bundle.val
        huge = replace(val, value=val.value * 1e200, label=val.label * 1e200)
        params = init_gmn(g, n=2, gamma=0.9)
        with np.errstate(over="ignore"), pytest.raises(
            FloatingPointError, match=r"non-finite loss at epoch 1 \(train [0-9.e-]+, val inf\)"
        ):
            train(params, bundle.train, huge, TrainConfig(max_epochs=3))

    def test_rejects_empty_sets(self):
        """An empty set cannot reach train: selecting no rows raises."""
        g, bundle = simulated_bundle(seed=15)
        params = init_gmn(g, n=1, gamma=0.9)
        nothing = np.array([], dtype=int)
        with pytest.raises(ValueError, match="empty"):
            train(params, bundle.train[nothing], bundle.val, TrainConfig())
        with pytest.raises(ValueError, match="empty"):
            train(params, bundle.train, bundle.val[nothing], TrainConfig())


class TestTrainOracle:
    """`train` against the per-tensor reference loop of tests/oracles.py."""

    @pytest.mark.parametrize("kind", ["gmn", "sgmn"])
    def test_matches_dense_reference_bit_for_bit(self, kind):
        g, bundle = simulated_bundle(seed=17, steps=120, noise=0.01, n=3, missing=0.2)
        config = TrainConfig(batch_size=8, seed=4, max_epochs=4, lr_init=1e-2)
        data = bundle.train
        assert len(data) % config.batch_size != 0  # a short final batch
        assert np.any((data.lag > 0) & (data.lag < 3))  # older lags in use
        # The second batch of the first epoch observes no label.
        first_order = np.random.default_rng(config.seed).permutation(len(data))
        label_mask = data.label_mask.copy()
        label_mask[first_order[8:16]] = 0.0
        data = LastObservations(
            value=data.value, lag=data.lag, label=data.label, label_mask=label_mask, n=3
        )

        params = init_params(kind, g, n=3, gamma=0.9)
        trained, history = train(params, data, bundle.val, config)
        best, records = train_reference(params, data, bundle.val, config)
        assert history.epochs >= 2
        np.testing.assert_array_equal(np.stack(per_hop_tensors(trained)), np.stack(best))
        assert [(r.train_loss, r.val_loss, r.lr) for r in history.records] == records

    @pytest.mark.parametrize("kind", ["gmn", "sgmn"])
    def test_deepest_lag_never_present(self, kind):
        """No training window holds a reading at lag 4, so Adam never reaches
        hop 5's entries at the end of theta; they keep their initial values
        and everything else still matches the reference bit for bit."""
        g, bundle = simulated_bundle(seed=17, steps=120, noise=0.01, n=5, missing=0.2)
        config = TrainConfig(batch_size=8, seed=4, max_epochs=4, lr_init=1e-2)
        data = bundle.train
        assert not np.any(data.lag == 4) and np.any(data.lag == 3)

        params = init_params(kind, g, n=5, gamma=0.9)
        trained, history = train(params, data, bundle.val, config)
        best, records = train_reference(params, data, bundle.val, config)
        assert history.epochs >= 2
        np.testing.assert_array_equal(np.stack(per_hop_tensors(trained)), np.stack(best))
        assert [(r.train_loss, r.val_loss, r.lr) for r in history.records] == records
        tail = params.hop_entries[-1][0] if kind == "gmn" else slice(-g.size, None)
        assert trained.theta[tail].size > 0
        assert trained.theta[tail].tobytes() == params.theta[tail].tobytes()
        assert not np.array_equal(trained.theta, params.theta)
