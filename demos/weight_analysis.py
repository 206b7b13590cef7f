"""Inspect what a trained model learned about the network.

Builds a hub-and-spokes network whose ground-truth dynamics make every rim
sensor listen mostly to the hub, trains a short-history dense model, saves
and reloads the checkpoint, and ranks sensors by learned weight mass. The
hub's dominant driving role is visible in the learned one-hop map's column
scores, and training pulls that map toward the generator it came from. Run
from the repository root:

    python3 demos/weight_analysis.py
"""

from pathlib import Path

import numpy as np

from graphmarkov import build_graph, prepare_datasets, simulate_gmp
from graphmarkov.checkpoint import load_params, save_params
from graphmarkov.evaluation import format_influence, influence_scores
from graphmarkov.models import init_gmn
from graphmarkov.simulate import TransitionSpec
from graphmarkov.training import TrainConfig, train

OUT = Path("demo_output/analysis")
HUB_WEIGHT = 0.75


def hub_and_spokes(size):
    """Vertex 0 joined to everyone, plus a rim path connecting the rest."""
    adjacency = np.zeros((size, size))
    for i in range(1, size):
        adjacency[0, i] = adjacency[i, 0] = 1.0
    for i in range(1, size - 1):
        adjacency[i, i + 1] = adjacency[i + 1, i] = 1.0
    return build_graph(adjacency)


def hub_driven_transition(graph):
    """Row-stochastic dynamics where each rim sensor takes most of its next
    value from the hub, and the hub averages the whole network."""
    size = graph.size
    matrix = np.zeros((size, size))
    matrix[0] = graph.self_adjacency[0] / graph.self_adjacency[0].sum()
    for i in range(1, size):
        support = np.flatnonzero(graph.self_adjacency[i])
        rest = support[support != 0]
        matrix[i, 0] = HUB_WEIGHT
        matrix[i, rest] = (1.0 - HUB_WEIGHT) / rest.size
    initial = np.random.default_rng(11).integers(0, 2, size).astype(float)
    return TransitionSpec(matrix=matrix, gamma=0.9, noise_std=0.01, initial_state=initial)


def main():
    graph = hub_and_spokes(8)
    spec = hub_driven_transition(graph)
    series = simulate_gmp(graph, spec, steps=2000, seed=12)
    bundle = prepare_datasets(series, n=2, missing_rate=0.0, seed=13)

    params = init_gmn(graph, n=2, gamma=0.9)
    trained, history = train(
        params, bundle.train, bundle.val,
        TrainConfig(batch_size=32, seed=1, min_delta=0.0, max_epochs=120, stop_patience=25),
    )
    print(f"trained {history.epochs} epochs (best {history.best_epoch})")

    OUT.mkdir(parents=True, exist_ok=True)
    ckpt = OUT / "model.ckpt"
    save_params(ckpt, trained)
    reloaded = load_params(ckpt, graph)
    print(f"checkpoint round-trip exact: "
          f"{np.array_equal(trained.theta, reloaded.theta)}")

    print("\nhow strongly each sensor FEEDS the network (one hop, column mass);")
    print("the hub, vertex 0, should rank first by a wide margin:")
    feeds = influence_scores(reloaded, step=1, mode="column")
    print(format_influence(feeds, top=4))

    print("\nhow strongly each sensor DRAWS ON the network (one hop, row mass);")
    print("rim sensors concentrate their mass, so they outrank the spread-thin hub:")
    draws = influence_scores(reloaded, step=1, mode="row")
    print(format_influence(draws, top=4))

    # Training should pull the one-hop map toward the generator.
    truth = graph.self_adjacency * spec.matrix
    start = init_gmn(graph, n=2, gamma=0.9)
    start_map = start.weights[0]
    learned = reloaded.weights[0]
    before = np.linalg.norm(start_map - truth) / np.linalg.norm(truth)
    after = np.linalg.norm(learned - truth) / np.linalg.norm(truth)
    print(f"\nrelative distance to the ground-truth one-hop map: "
          f"{before:.3f} at the warm start -> {after:.3f} after training")


if __name__ == "__main__":
    main()
