"""Synthetic state-sequence generator.

Draws a random row-stochastic transition matrix supported on a graph's
self-connection structure and rolls the linear dynamics

    x[t+1] = clamp(gamma * P @ x[t] + noise, 0, 1)

forward from a chosen initial state, where P has no mass off the
self-connection adjacency.
With gamma < 1 the map is a contraction toward the noise floor, which makes
long runs statistically stationary after a transient. The generator is the
ground truth that model training should recover, so it lives apart from the
models themselves.
"""

from dataclasses import dataclass

import numpy as np

from .data import StateSeries, synthesize_timestamps
from .graph import Graph

SPECTRAL_RADIUS_TOL = 1e-9


@dataclass(frozen=True)
class TransitionSpec:
    """Ground-truth dynamics: a transition matrix, a damping factor, the
    additive noise scale, and the initial state the rollout starts from.

    The damped map ``gamma * matrix`` must have spectral radius at most 1 so
    the noiseless dynamics cannot blow up. Row-stochastic matrices with
    gamma <= 1 satisfy this automatically.
    """

    matrix: np.ndarray
    gamma: float
    noise_std: float
    initial_state: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"transition matrix must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("transition matrix entries must be finite")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"damping factor must lie in [0,1], got {self.gamma}")
        if self.noise_std < 0.0:
            raise ValueError(f"noise level must be nonnegative, got {self.noise_std}")
        if m.size:
            radius = np.max(np.abs(np.linalg.eigvals(self.gamma * m)))
            if radius > 1.0 + SPECTRAL_RADIUS_TOL:
                raise ValueError(
                    "damped transition map must have spectral radius at most 1, "
                    f"got {radius}"
                )
        x0 = np.array(self.initial_state, dtype=np.float64)
        if x0.shape != (m.shape[0],):
            raise ValueError(
                f"initial state must have one entry per vertex, got shape {x0.shape} "
                f"for {m.shape[0]} vertices"
            )
        if np.any(x0 < 0.0) or np.any(x0 > 1.0):
            raise ValueError("initial state entries must lie in [0,1]")
        m.setflags(write=False)
        x0.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "initial_state", x0)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def random_transition(
    graph: Graph,
    seed: int,
    *,
    gamma: float = 0.9,
    noise_std: float = 0.01,
    initial_state: np.ndarray | None = None,
) -> TransitionSpec:
    """Draw a random row-stochastic transition supported on the graph.

    Entries where a vertex connects (including to itself) get independent
    uniform(0,1) draws; each row is then normalized to sum 1, so the damped
    map is a contraction for gamma < 1. Every vertex has a self-connection,
    so no row is all-zero. The initial state is drawn uniform(0,1) from the
    same seed unless one is supplied.
    """
    rng = np.random.default_rng(seed)
    raw = rng.random((graph.size, graph.size)) * graph.self_adjacency
    matrix = raw / raw.sum(axis=1, keepdims=True)
    if initial_state is None:
        initial_state = rng.random(graph.size)
    return TransitionSpec(
        matrix=matrix, gamma=gamma, noise_std=noise_std, initial_state=initial_state
    )


def simulate_gmp(graph: Graph, spec: TransitionSpec, steps: int, seed: int) -> StateSeries:
    """Roll the dynamics forward for `steps` total states.

    The sequence starts at the transition's initial state; each subsequent
    state applies the damped transition (whose mass lies on the graph's
    self-connection support) to the previous state, adds gaussian noise, and
    clamps into [0,1]. The result is fully observed (mask of ones) with
    timestamps at the default 5-minute spacing.

    Raises:
        ValueError: steps < 2, size mismatch, or transition mass on vertex
            pairs the graph does not connect.
    """
    if steps < 2:
        raise ValueError(f"need at least 2 steps to form a sequence, got {steps}")
    if spec.size != graph.size:
        raise ValueError(
            f"transition acts on {spec.size} vertices but graph has {graph.size}"
        )
    if np.any((spec.matrix != 0.0) & (graph.self_adjacency == 0.0)):
        raise ValueError(
            "transition matrix has mass on vertex pairs the graph does not connect"
        )
    rng = np.random.default_rng(seed)
    s = spec.size
    values = np.zeros((steps, s))
    values[0] = spec.initial_state
    for t in range(steps - 1):
        drift = spec.gamma * (spec.matrix @ values[t])
        noise = rng.normal(0.0, spec.noise_std, size=s) if spec.noise_std > 0 else 0.0
        values[t + 1] = np.clip(drift + noise, 0.0, 1.0)
    return StateSeries(
        values=values,
        mask=np.ones((steps, s), dtype=bool),
        timestamps=synthesize_timestamps(steps),
    )
