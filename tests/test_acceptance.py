"""End-to-end acceptance gate.

Each check prints one PASS/FAIL line on stdout (run with
``pytest tests/test_acceptance.py -v -s`` to watch them live) and asserts the
same condition, so this module is both a report and a hard gate. The heavier
fixtures — a 10-sensor synthetic network rollout shared by the recovery and
missing-data checks — are built once per session.

The network-recovery check deliberately uses a one-directional cyclic
transition: every mode of a cyclic permutation decays at the same slow rate,
and a half-on/half-off initial state spreads energy across all of them, so the
informative start-up transient is as long and as rich as the dynamics allow.
With a generic random transition most of the rollout sits in the clamped noise
regime near zero, whose rectified samples bias any least-squares fit of the
transition and put the 5% recovery target out of reach for every estimator;
the design choice here is what makes honest recovery feasible. The training
schedule for that check disables the small-improvement cutoff (the default
1e-5 threshold is a tenth of the achievable loss, so it trips patience within
a handful of epochs) and holds the step size above 1e-4 long enough for the
weakly-determined directions to converge.
"""

import os
import time
from functools import lru_cache

import numpy as np
import pytest

from graphmarkov.data import NormStats, ingest_csv, prepare_datasets
from graphmarkov.evaluation import evaluate, metrics, persistence_baseline
from graphmarkov.graph import build_graph, read_adjacency_csv
from graphmarkov.models import init_gmn, init_params, init_sgmn
from graphmarkov.simulate import TransitionSpec, simulate_gmp
from graphmarkov.training import TrainConfig, train, _dataset_loss

from oracles import (
    complete_dataset,
    fd_theta_grad,
    masked_params,
    per_hop_tensors,
    quadratic_loss_and_grad,
    random_instance,
    relative_grad_error,
)

NETWORK_SIZE = 10
ROLLOUT_STEPS = 5000
DATA_DAMPING = 0.9
DATA_NOISE = 0.01


def _verdict(num, name, ok, detail):
    print(f"[acceptance] {num} {name}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"acceptance check {num} ({name}): {detail}"


def _ring_adjacency(size):
    a = np.zeros((size, size))
    for i in range(size):
        a[i, (i + 1) % size] = a[(i + 1) % size, i] = 1.0
    return a


@lru_cache(maxsize=None)
def _network_rollout():
    """The shared ground-truth instance: cyclic one-directional dynamics on a
    10-sensor ring, damped by 0.9, driven by 0.01 noise, 5000 steps."""
    graph = build_graph(_ring_adjacency(NETWORK_SIZE))
    matrix = np.zeros((NETWORK_SIZE, NETWORK_SIZE))
    for i in range(NETWORK_SIZE):
        matrix[i, (i + 1) % NETWORK_SIZE] = 1.0
    initial = np.random.default_rng(17).integers(0, 2, NETWORK_SIZE).astype(float)
    spec = TransitionSpec(
        matrix=matrix, gamma=DATA_DAMPING, noise_std=DATA_NOISE, initial_state=initial
    )
    series = simulate_gmp(graph, spec, steps=ROLLOUT_STEPS, seed=117)
    return graph, spec, series


class TestAcceptance:
    def test_1_gradient_oracle(self):
        """Analytic gradients of both models match central finite differences
        on 50 seeded random instances (3-8 sensors, history 1-4, batch 1-4,
        random masks) to relative error below 1e-6, in under 10 seconds."""
        started = time.perf_counter()
        rng = np.random.default_rng(1234)
        worst = 0.0
        for index in range(50):
            init = init_gmn if index % 2 == 0 else init_sgmn
            params, batch = random_instance(rng, init, build_graph, min_size=3)

            def loss_of(moved, batch=batch):
                loss, _ = quadratic_loss_and_grad(
                    moved.predict(batch), batch.label, batch.label_mask
                )
                return loss

            _, _, analytic = params.loss_and_grad(batch)
            numeric = fd_theta_grad(loss_of, params)
            worst = max(worst, relative_grad_error([analytic], [numeric]))
        elapsed = time.perf_counter() - started
        ok = worst < 1e-6 and elapsed < 10.0
        _verdict(1, "gradient oracle", ok,
                 f"worst relative error {worst:.2e} over 50 instances in {elapsed:.1f}s")

    def test_2_complete_data_reduction(self):
        """With every entry observed, the dense model's prediction equals its
        newest-step term bit for bit, and the spectral model with unit
        first-step gains returns the damped newest state to 1e-10. Under 1s."""
        started = time.perf_counter()
        rng = np.random.default_rng(7)
        raw = (rng.random((6, 6)) < 0.5).astype(float)
        graph = build_graph(np.maximum(raw, raw.T))

        dense = init_gmn(graph, n=3, gamma=0.7)
        dense = masked_params(dense, [rng.standard_normal(t.shape) for t in dense.weights])
        inputs = rng.random((5, 3, 6))
        batch = complete_dataset(inputs, labels=np.zeros((5, 6)))
        newest = inputs[:, -1, :]
        single_term = 0.7 * (newest @ dense.weights[0].T)
        dense_exact = np.array_equal(dense.predict(batch), single_term)

        spectral = init_sgmn(graph, n=3, gamma=0.7)
        tensors = per_hop_tensors(spectral)
        tensors[1] = rng.standard_normal(6)
        tensors[2] = rng.standard_normal(6)
        spectral = masked_params(spectral, tensors)
        spectral_err = np.max(np.abs(spectral.predict(batch) - 0.7 * newest))
        elapsed = time.perf_counter() - started
        ok = dense_exact and spectral_err < 1e-10 and elapsed < 1.0
        _verdict(2, "complete-data reduction", ok,
                 f"dense bit-exact={dense_exact}, spectral max error {spectral_err:.1e}, "
                 f"{elapsed:.2f}s")

    def test_3_transition_recovery(self):
        """Training the one-step dense model on the clean rollout recovers the
        ground-truth damped transition to relative Frobenius error below 0.05
        with test error below 5e-4 in normalized units, in under 2 minutes."""
        started = time.perf_counter()
        graph, spec, series = _network_rollout()
        bundle = prepare_datasets(series, n=1, missing_rate=0.0, seed=217)
        params = init_gmn(graph, n=1, gamma=DATA_DAMPING)
        config = TrainConfig(
            batch_size=64,
            lr_init=3e-3,
            lr_floor=1e-4,
            lr_patience=40,
            stop_patience=250,
            min_delta=0.0,
            max_epochs=400,
            seed=17,
        )
        trained, history = train(params, bundle.train, bundle.val, config)
        recovered = trained.weights[0]
        target = graph.self_adjacency * spec.matrix
        rel_frob = np.linalg.norm(recovered - target) / np.linalg.norm(target)
        test_mse = _dataset_loss(trained, bundle.test)
        elapsed = time.perf_counter() - started
        ok = rel_frob < 0.05 and test_mse < 5e-4 and elapsed < 120.0
        _verdict(3, "transition recovery", ok,
                 f"relative Frobenius error {rel_frob:.4f}, test MSE {test_mse:.2e} "
                 f"(normalized), {history.epochs} epochs in {elapsed:.1f}s")

    def test_4_missing_data_advantage(self):
        """With 20% of observations dropped, six-step dense and spectral
        models each beat the carry-forward baseline's MAE on the identical
        test windows, in under 5 minutes."""
        started = time.perf_counter()
        graph, _, series = _network_rollout()
        bundle = prepare_datasets(series, n=6, missing_rate=0.2, seed=217)
        baseline = persistence_baseline(bundle.test, bundle.stats)
        maes = {}
        for kind in ("gmn", "sgmn"):
            params = init_params(kind, graph, n=6, gamma=DATA_DAMPING)
            trained, _ = train(params, bundle.train, bundle.val,
                               TrainConfig(batch_size=64, seed=17))
            maes[kind] = evaluate(trained, bundle.test, bundle.stats)[0].mae
        elapsed = time.perf_counter() - started
        ok = (maes["gmn"] < baseline.mae and maes["sgmn"] < baseline.mae
              and elapsed < 300.0)
        _verdict(4, "missing-data advantage", ok,
                 f"dense MAE {maes['gmn']:.4f} and spectral MAE {maes['sgmn']:.4f} "
                 f"vs carry-forward {baseline.mae:.4f}, {elapsed:.1f}s")

    def test_5_metric_oracles(self):
        """The hand-computed error report (MAE 3, RMSE 3, MAPE 7.5%)
        reproduces exactly, and MAE never exceeds RMSE on seeded random
        reports."""
        identity = NormStats(vmin=0.0, vmax=1.0)
        truth = np.array([[60.0, 30.0]])
        pred = np.array([[63.0, 27.0]])
        report = metrics(pred, truth, np.ones((1, 2)), identity)
        exact = (report.mae == 3.0 and report.rmse == 3.0
                 and abs(report.mape - 7.5) <= 7.5 * 1e-12)

        rng = np.random.default_rng(55)
        ordered = True
        for _ in range(200):
            t = rng.random((6, 5)) * 80.0 + 1.0
            p = t + rng.standard_normal((6, 5)) * rng.uniform(0.1, 5.0)
            mask = (rng.random((6, 5)) < 0.7).astype(float)
            if not mask.any():
                continue
            r = metrics(p, t, mask, identity)
            ordered = ordered and r.mae <= r.rmse * (1 + 1e-12)
        ok = exact and ordered
        _verdict(5, "metric oracles", ok,
                 f"hand values exact={exact}; MAE<=RMSE on 200 random reports={ordered} "
                 "(the report type also rejects violations at construction)")

    def test_6_schedule_conformance(self):
        """On a scripted plateau the learning rate decays by exactly 10x after
        4 non-improving epochs, training stops after 5 non-improving epochs,
        and the rate never falls below the 1e-5 floor."""
        graph = build_graph(_ring_adjacency(4))
        rng = np.random.default_rng(9)
        x = rng.random((12, 1, 4))
        samples = complete_dataset(x, labels=0.5 * x[:, 0, :])

        # The warm start is already optimal for these labels, so no epoch
        # improves: epoch 6 runs at lr/10, and training stops after it.
        params = init_gmn(graph, n=1, gamma=0.5)
        _, history = train(params, samples, samples,
                           TrainConfig(batch_size=4, seed=2, max_epochs=50))
        lrs = [record.lr for record in history.records]
        decayed = history.epochs == 6 and lrs == [1e-3] * 5 + [1e-3 / 10.0]

        _, floored = train(params, samples, samples,
                           TrainConfig(batch_size=4, seed=2, max_epochs=50, lr_init=1e-5))
        floor_held = all(record.lr == 1e-5 for record in floored.records)
        ok = decayed and floor_held
        _verdict(6, "schedule conformance", ok,
                 f"plateau ran {history.epochs} epochs with rates {lrs}; "
                 f"floor held at 1e-5={floor_held}")

    def test_7_determinism(self, tmp_path):
        """Two command-line training runs with identical flags and seeds write
        byte-identical checkpoints and history logs."""
        from graphmarkov.cli import main

        sim = tmp_path / "sim"
        assert main(["simulate", "--nodes", "10", "--steps", "400",
                     "--seed", "3", "--out", str(sim)]) == 0
        outputs = []
        for name in ("run-a", "run-b"):
            out = tmp_path / name
            rc = main(["train", "--model", "sgmn", "--n", "3",
                       "--speed", str(sim / "speed.csv"),
                       "--adjacency", str(sim / "adjacency.csv"),
                       "--missing-rate", "0.1", "--seed", "5",
                       "--out", str(out)])
            assert rc == 0
            outputs.append(out)
        ckpt_same = (outputs[0] / "model.ckpt").read_bytes() == \
            (outputs[1] / "model.ckpt").read_bytes()
        hist_same = (outputs[0] / "history.csv").read_bytes() == \
            (outputs[1] / "history.csv").read_bytes()
        ok = ckpt_same and hist_same
        _verdict(7, "determinism", ok,
                 f"checkpoint bytes identical={ckpt_same}, history bytes identical={hist_same}")

    def test_8_dataset_benchmark(self):
        """Optional (not gating): on a METR-LA export, the ten-step spectral
        model at 10% injected missing lands within 15% of MAE 3.152. Provide
        the data via METR_LA_SPEED_CSV and METR_LA_ADJACENCY_CSV."""
        speed_path = os.environ.get("METR_LA_SPEED_CSV", "")
        adjacency_path = os.environ.get("METR_LA_ADJACENCY_CSV", "")
        if not (speed_path and adjacency_path
                and os.path.exists(speed_path) and os.path.exists(adjacency_path)):
            print("[acceptance] 8 dataset benchmark: SKIP — METR-LA export not "
                  "provided (set METR_LA_SPEED_CSV and METR_LA_ADJACENCY_CSV)")
            pytest.skip("METR-LA export not provided")
        started = time.perf_counter()
        series = ingest_csv(speed_path)
        graph = build_graph(read_adjacency_csv(adjacency_path))
        bundle = prepare_datasets(series, n=10, missing_rate=0.1, seed=0)
        params = init_sgmn(graph, n=10, gamma=0.9)
        trained, _ = train(params, bundle.train, bundle.val,
                           TrainConfig(batch_size=64, seed=0))
        mae = evaluate(trained, bundle.test, bundle.stats)[0].mae
        elapsed = time.perf_counter() - started
        ok = abs(mae - 3.152) <= 0.15 * 3.152
        _verdict(8, "dataset benchmark", ok,
                 f"test MAE {mae:.3f} vs reference 3.152 +/-15%, {elapsed:.0f}s")
