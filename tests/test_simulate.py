"""Tests for the synthetic generator: transition drawing and rollout."""

from dataclasses import replace

import numpy as np
import pytest

from graphmarkov import simulate as simulate_module
from graphmarkov.graph import build_graph
from graphmarkov.simulate import TransitionSpec, random_transition, simulate_gmp


def ring_graph(size):
    a = np.zeros((size, size))
    for i in range(size):
        a[i, (i + 1) % size] = a[(i + 1) % size, i] = 1.0
    return build_graph(a)


def per_step_rollout(spec, steps, seed):
    """The rollout one step and one noise draw at a time."""
    rng = np.random.default_rng(seed)
    values = np.zeros((steps, spec.size))
    values[0] = spec.initial_state
    for t in range(steps - 1):
        drift = spec.gamma * (spec.matrix @ values[t])
        noise = rng.normal(0.0, spec.noise_std, size=spec.size) if spec.noise_std > 0 else 0.0
        values[t + 1] = np.clip(drift + noise, 0.0, 1.0)
    return values


class TestTransitionSpec:
    def test_accepts_row_stochastic(self):
        m = np.array([[0.5, 0.5], [0.25, 0.75]])
        spec = TransitionSpec(matrix=m, gamma=0.9, noise_std=0.01, initial_state=[0.5, 0.5])
        assert spec.size == 2

    def test_accepts_substochastic_contraction(self):
        spec = TransitionSpec(matrix=np.eye(2) * 0.5, gamma=0.9, noise_std=0.0,
                              initial_state=[0.0, 1.0])
        assert spec.size == 2

    def test_rejects_expanding_map(self):
        with pytest.raises(ValueError, match="spectral radius"):
            TransitionSpec(matrix=np.eye(2) * 2.0, gamma=0.9, noise_std=0.0,
                           initial_state=[0.0, 0.0])

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError, match="damping"):
            TransitionSpec(matrix=np.eye(2), gamma=1.5, noise_std=0.0,
                           initial_state=[0.0, 0.0])
        with pytest.raises(ValueError, match="damping"):
            TransitionSpec(matrix=np.eye(2), gamma=-0.1, noise_std=0.0,
                           initial_state=[0.0, 0.0])

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError, match="noise"):
            TransitionSpec(matrix=np.eye(2), gamma=0.9, noise_std=-1.0,
                           initial_state=[0.0, 0.0])

    @pytest.mark.parametrize("noise", [np.nan, np.inf])
    def test_rejects_non_finite_noise(self, noise):
        with pytest.raises(ValueError, match="noise level must be finite"):
            TransitionSpec(matrix=np.eye(2), gamma=0.9, noise_std=noise,
                           initial_state=[0.0, 0.0])

    def test_rejects_nan_initial_state(self):
        with pytest.raises(ValueError, match="initial state"):
            TransitionSpec(matrix=np.eye(2), gamma=0.9, noise_std=0.0,
                           initial_state=[0.5, np.nan])

    def test_rejects_initial_state_outside_unit_interval(self):
        with pytest.raises(ValueError, match="initial state"):
            TransitionSpec(matrix=np.eye(2), gamma=0.9, noise_std=0.0,
                           initial_state=[0.0, 1.5])
        with pytest.raises(ValueError, match="initial state"):
            TransitionSpec(matrix=np.eye(2), gamma=0.9, noise_std=0.0,
                           initial_state=[-0.1, 0.5])

    def test_rejects_initial_state_size_mismatch(self):
        with pytest.raises(ValueError, match="initial state"):
            TransitionSpec(matrix=np.eye(3), gamma=0.9, noise_std=0.0,
                           initial_state=[0.5, 0.5])


class TestRandomTransition:
    def test_supported_on_self_adjacency(self):
        g = ring_graph(6)
        spec = random_transition(g, seed=0)
        off_support = spec.matrix * (1.0 - g.self_adjacency)
        np.testing.assert_array_equal(off_support, 0.0)

    def test_rows_sum_to_one(self):
        g = ring_graph(5)
        spec = random_transition(g, seed=2, gamma=0.8, noise_std=0.0)
        np.testing.assert_allclose(spec.matrix.sum(axis=1), 1.0, atol=1e-12)

    def test_support_entries_positive(self):
        g = ring_graph(4)
        spec = random_transition(g, seed=3, gamma=0.5, noise_std=0.0)
        assert np.all(spec.matrix[g.self_adjacency == 1.0] > 0.0)

    def test_default_damping_and_noise(self):
        g = ring_graph(4)
        spec = random_transition(g, seed=1)
        assert spec.gamma == 0.9
        assert spec.noise_std == 0.01

    def test_initial_state_drawn_in_unit_interval(self):
        g = ring_graph(8)
        spec = random_transition(g, seed=5)
        assert spec.initial_state.shape == (8,)
        assert np.all((spec.initial_state >= 0.0) & (spec.initial_state <= 1.0))

    def test_initial_state_override(self):
        g = ring_graph(3)
        x0 = np.array([1.0, 0.0, 0.5])
        spec = random_transition(g, seed=5, initial_state=x0)
        np.testing.assert_array_equal(spec.initial_state, x0)

    def test_seed_determinism(self):
        g = ring_graph(7)
        a = random_transition(g, seed=11)
        b = random_transition(g, seed=11)
        c = random_transition(g, seed=12)
        np.testing.assert_array_equal(a.matrix, b.matrix)
        np.testing.assert_array_equal(a.initial_state, b.initial_state)
        assert not np.array_equal(a.matrix, c.matrix)


class TestSimulateGmp:
    def test_shapes_and_mask(self):
        g = ring_graph(5)
        spec = random_transition(g, seed=0)
        series = simulate_gmp(g, spec, steps=50, seed=1)
        assert series.steps == 50 and series.size == 5
        np.testing.assert_array_equal(series.mask, 1.0)
        assert series.mask.dtype == np.bool_ and not series.mask.flags.writeable
        assert series.timestamps[1] - series.timestamps[0] == 300.0

    def test_rollout_starts_at_initial_state(self):
        g = ring_graph(4)
        x0 = np.array([0.25, 1.0, 0.0, 0.5])
        spec = random_transition(g, seed=0, initial_state=x0)
        series = simulate_gmp(g, spec, steps=5, seed=1)
        np.testing.assert_array_equal(series.values[0], x0)

    def test_values_clamped_to_unit_interval(self):
        g = ring_graph(5)
        spec = random_transition(g, seed=0, noise_std=0.5)
        series = simulate_gmp(g, spec, steps=200, seed=2)
        assert series.values.min() >= 0.0
        assert series.values.max() <= 1.0

    def test_noiseless_step_is_exact_linear_map(self):
        g = ring_graph(4)
        spec = random_transition(g, seed=4, gamma=0.7, noise_std=0.0)
        series = simulate_gmp(g, spec, steps=3, seed=5)
        expected = np.clip(0.7 * (spec.matrix @ series.values[0]), 0.0, 1.0)
        np.testing.assert_array_equal(series.values[1], expected)

    def test_noiseless_contraction(self):
        """With damping below 1 and no noise the state decays geometrically:
        row-stochastic P keeps the max-norm, so each step shrinks it by gamma."""
        g = ring_graph(6)
        spec = random_transition(g, seed=6, noise_std=0.0)
        series = simulate_gmp(g, spec, steps=100, seed=7)
        norms = np.abs(series.values).max(axis=1)
        assert norms[-1] <= (0.9 ** 99) * norms[0] + 1e-12

    def test_negative_zero_noise_is_noiseless(self):
        """TransitionSpec accepts a -0.0 noise level, which numpy's normal
        turns down; it rolls out as the 0.0 level does."""
        g = ring_graph(4)
        spec = random_transition(g, seed=4, gamma=0.7, noise_std=0.0)
        series = simulate_gmp(g, spec, steps=50, seed=5)
        negative = simulate_gmp(g, replace(spec, noise_std=-0.0), steps=50, seed=5)
        assert negative.values.tobytes() == series.values.tobytes()

    def test_one_step_influence_confined_to_neighborhood(self):
        """Perturbing one vertex changes the next state only at that vertex
        and its direct neighbors."""
        g = ring_graph(7)
        spec = random_transition(g, seed=3, noise_std=0.0)
        base = np.full(7, 0.5)
        bumped = base.copy()
        bumped[0] = 0.9
        step_base = 0.9 * (spec.matrix @ base)
        step_bumped = 0.9 * (spec.matrix @ bumped)
        changed = np.flatnonzero(np.abs(step_bumped - step_base) > 1e-15)
        neighborhood = np.flatnonzero(g.self_adjacency[:, 0])
        assert set(changed) <= set(neighborhood)

    @pytest.mark.parametrize("noise", [0.0, 0.05])
    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["block-less-1", "block", "block-plus-1"])
    def test_equals_per_step_rollout(self, noise, offset):
        """Noise drawn a block of steps at a time, for one step fewer than a
        block, a block and one step more, gives the per-step bytes."""
        g = ring_graph(6)
        spec = random_transition(g, seed=11, noise_std=noise)
        steps = simulate_module._NOISE_BLOCK_STEPS + 1 + offset
        got = simulate_gmp(g, spec, steps=steps, seed=12).values
        assert got.tobytes() == per_step_rollout(spec, steps, seed=12).tobytes()

    def test_seed_determinism(self):
        g = ring_graph(5)
        spec = random_transition(g, seed=8)
        a = simulate_gmp(g, spec, steps=40, seed=9)
        b = simulate_gmp(g, spec, steps=40, seed=9)
        c = simulate_gmp(g, spec, steps=40, seed=10)
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_rejects_too_few_steps(self):
        g = ring_graph(3)
        spec = random_transition(g, seed=0, noise_std=0.0)
        with pytest.raises(ValueError, match="at least 2"):
            simulate_gmp(g, spec, steps=1, seed=0)

    def test_rejects_graph_size_mismatch(self):
        spec = random_transition(ring_graph(3), seed=0)
        with pytest.raises(ValueError, match="vertices"):
            simulate_gmp(ring_graph(4), spec, steps=10, seed=0)

    def test_rejects_unsupported_transition_mass(self):
        g3 = ring_graph(3)
        dense = build_graph(np.ones((3, 3)) - np.eye(3))
        spec = random_transition(dense, seed=0)
        # A 3-ring is complete, so build one that truly misses an edge.
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = a[1, 2] = a[2, 1] = a[2, 3] = a[3, 2] = 1.0
        path = build_graph(a)
        full = random_transition(build_graph(np.ones((4, 4)) - np.eye(4)), seed=1)
        with pytest.raises(ValueError, match="does not connect"):
            simulate_gmp(path, full, steps=10, seed=0)
        # Matching support passes.
        ok = random_transition(g3, seed=2)
        simulate_gmp(g3, ok, steps=5, seed=0)
