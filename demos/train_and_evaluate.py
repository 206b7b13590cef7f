"""Train both model families on synthetic data with missing readings.

Simulates a 10-sensor network, hides 20% of the observations, trains a
four-step dense model and its spectral counterpart, and compares both against
the carry-forward baseline on the held-out test windows. Finishes with a
residual breakdown by hour of day. Run from the repository root:

    python3 demos/train_and_evaluate.py
"""

import numpy as np

from graphmarkov import build_graph, prepare_datasets, random_transition, simulate_gmp
from graphmarkov.evaluation import (
    evaluate,
    format_metrics,
    persistence_baseline,
    predict,
    residual_summary,
)
from graphmarkov.models import init_params
from graphmarkov.training import TrainConfig, train

HISTORY = 4


def ring_with_chords(size, rng):
    adjacency = np.zeros((size, size))
    for i in range(size):
        adjacency[i, (i + 1) % size] = adjacency[(i + 1) % size, i] = 1.0
    for _ in range(size // 3):
        i, j = rng.choice(size, size=2, replace=False)
        adjacency[i, j] = adjacency[j, i] = 1.0
    return build_graph(adjacency)


def main():
    rng = np.random.default_rng(3)
    graph = ring_with_chords(10, rng)
    spec = random_transition(graph, seed=3, gamma=0.9, noise_std=0.01)
    series = simulate_gmp(graph, spec, steps=1500, seed=4)
    bundle = prepare_datasets(series, n=HISTORY, missing_rate=0.2, seed=5)
    print(f"data: {len(bundle.train)} train / {len(bundle.val)} val / "
          f"{len(bundle.test)} test windows of {HISTORY} steps, 20% missing")

    reports = {"baseline": persistence_baseline(bundle.test, bundle.stats)}
    config = TrainConfig(batch_size=32, seed=0, min_delta=0.0, stop_patience=8, max_epochs=60)
    for kind in ("gmn", "sgmn"):
        params = init_params(kind, graph, n=HISTORY, gamma=0.9)
        print(f"\ntraining {kind} ({params.theta.size} free parameters over {HISTORY} steps)")
        trained, history = train(params, bundle.train, bundle.val, config, log=print)
        print(f"  best epoch {history.best_epoch} of {history.epochs}")
        reports[kind] = evaluate(trained, bundle.test, bundle.stats)
        if kind == "gmn":
            gmn_trained = trained

    print("\ntest-set error (original units):")
    print(format_metrics(reports))

    # Where do the dense model's errors live across the day?
    label_times = bundle.test_label_times
    predictions = predict(gmn_trained, bundle.test)
    summary = residual_summary(
        predictions, bundle.test.label, bundle.test.label_mask, label_times, "hour", bundle.stats
    )
    populated = summary.keys[summary.counts > 0]
    print(f"\nresiduals by hour: {populated.size} populated of {summary.keys.size} groups")
    for key in populated[:4]:
        print(f"  hour {key:2d}: n={summary.counts[key]:4d}  mean {summary.means[key]:+.4f}  "
              f"median {summary.q50[key]:+.4f}")


if __name__ == "__main__":
    main()
