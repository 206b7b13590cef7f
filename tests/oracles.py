"""Slow, independent reference implementations used to pin the fast paths.

Nothing here imports model internals beyond the public API: the finite
difference oracle only needs a scalar loss over parameter tensors, the
dense spectral oracle rebuilds U diag(g) U^T the obvious way, and the window
oracles gate full n x S windows with a cumulative product of missingness
instead of a forward-fill scan.
"""

import numpy as np


def fd_tensor_grads(loss_of_tensors, tensors, step=1e-5):
    """Central finite differences of a scalar loss over a tuple of arrays.

    loss_of_tensors receives a list of arrays shaped like `tensors` and
    returns a float. Returns one gradient array per tensor.
    """
    grads = []
    for which, tensor in enumerate(tensors):
        base = np.asarray(tensor, dtype=np.float64)
        g = np.zeros_like(base)
        for idx in np.ndindex(base.shape):
            plus = [np.array(t, dtype=np.float64) for t in tensors]
            minus = [np.array(t, dtype=np.float64) for t in tensors]
            plus[which][idx] += step
            minus[which][idx] -= step
            g[idx] = (loss_of_tensors(plus) - loss_of_tensors(minus)) / (2.0 * step)
        grads.append(g)
    return grads


def quadratic_loss_and_grad(pred, labels, label_mask):
    """Mean squared error over observed labels, with its output gradient."""
    observed = label_mask.sum()
    diff = (pred - labels) * label_mask
    loss = float((diff**2).sum() / observed)
    grad = 2.0 * diff / observed
    return loss, grad


def relative_grad_error(analytic, numeric):
    """Frobenius-norm relative error between two gradient tuples."""
    a = np.concatenate([np.asarray(g).ravel() for g in analytic])
    b = np.concatenate([np.asarray(g).ravel() for g in numeric])
    denom = max(np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def dense_spectral_map(eigenvectors, gains):
    """The S x S matrix U diag(gains) U^T, materialized explicitly."""
    return eigenvectors @ np.diag(gains) @ eigenvectors.T


def cumulative_mask(input_mask):
    """Per-lag gate built from the observation mask.

    Input is ordered oldest-first along its time axis (axis -2); output is
    ordered by lag: out[..., i, :] gates the state i steps back and equals the
    product of (1 - mask) over all strictly newer steps in the window. Lag 0
    (the newest step) is gated by the empty product, all ones. Consequently a
    fully observed window passes only its newest step through, and a sensor's
    older readings contribute only while every newer one is missing.
    """
    m = np.asarray(input_mask, dtype=np.float64)
    newest_first = m[..., ::-1, :]
    complement = 1.0 - newest_first
    out = np.ones_like(m)
    out[..., 1:, :] = np.cumprod(complement[..., :-1, :], axis=-2)
    return out


def gated_lags(inputs, input_mask):
    """B x n x S model input of B x n x S windows (oldest step first): the
    lag-i slice is the state i steps back, gated by the cumulative mask."""
    return np.asarray(inputs, dtype=np.float64)[:, ::-1, :] * cumulative_mask(input_mask)


def windows_dataset(inputs, input_mask, labels, label_mask):
    """LastObservations of B x n x S windows (oldest step first), found
    through the cumulative-mask gate: the one open lag with an observed
    reading, or lag n with value 0 where the window saw nothing."""
    from graphmarkov.data import LastObservations

    inputs = np.asarray(inputs, dtype=np.float64)
    input_mask = np.asarray(input_mask, dtype=np.float64)
    n = inputs.shape[1]
    chosen = cumulative_mask(input_mask) * input_mask[:, ::-1, :]
    lag = np.where(chosen.any(axis=1), chosen.argmax(axis=1), n)
    value = (inputs[:, ::-1, :] * chosen).sum(axis=1)
    return LastObservations(
        value=value,
        lag=lag,
        label=np.asarray(labels, dtype=np.float64),
        label_mask=np.asarray(label_mask, dtype=np.float64),
        n=n,
    )


def complete_dataset(inputs, labels=None):
    """windows_dataset of fully observed B x n x S windows; labels default
    to ones, all observed."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if labels is None:
        labels = np.ones((inputs.shape[0], inputs.shape[2]))
    labels = np.asarray(labels, dtype=np.float64)
    return windows_dataset(inputs, np.ones_like(inputs), labels, np.ones_like(labels))


def series_windows(series, n, label_series=None):
    """The T - n windows of a series, sliced step by step as n x S blocks
    and gated by windows_dataset."""
    labels = series if label_series is None else label_series
    starts = range(series.steps - n)
    return windows_dataset(
        np.stack([series.values[k : k + n] for k in starts]),
        np.stack([series.mask[k : k + n] for k in starts]),
        np.stack([labels.values[k + n] for k in starts]),
        np.stack([labels.mask[k + n] for k in starts]),
    )


def random_instance(rng, model_init, graph_builder, min_size=2, max_size=8,
                    max_history=4, max_batch=4):
    """Draw a random small model + dataset pair for gradient sweeps.

    Returns (params, data). Weights/gains are randomized (masked to support
    for the dense model), inputs carry random missingness, and labels are
    random values observed at a random subset of entries (at least one).
    """
    size = int(rng.integers(min_size, max_size + 1))
    history = int(rng.integers(1, max_history + 1))
    count = int(rng.integers(1, max_batch + 1))
    gamma = float(rng.uniform(0.3, 1.0))

    adjacency = (rng.random((size, size)) < 0.5).astype(float)
    graph = graph_builder(np.maximum(adjacency, adjacency.T))
    params = model_init(graph, history, gamma)
    randomized = [rng.standard_normal(np.asarray(t).shape) for t in params.tensors]
    params = params.with_tensors(randomized)

    mask = (rng.random((count, history, size)) < 0.7).astype(float)
    inputs = rng.standard_normal((count, history, size)) * mask
    label_mask = (rng.random((count, size)) < 0.8).astype(float)
    if label_mask.sum() == 0.0:
        label_mask.flat[0] = 1.0
    data = windows_dataset(inputs, mask, rng.standard_normal((count, size)), label_mask)
    return params, data
