"""Slow, independent reference implementations used to pin the fast paths.

Nothing here imports model internals beyond the public API: the finite
difference oracle only needs a scalar loss over parameter tensors, the
dense spectral oracle rebuilds U diag(g) U^T the obvious way, and the window
oracles gate full n x S windows with a cumulative product of missingness
instead of a forward-fill scan. The dense reference passes, the masked MSE
pair, the per-tensor Adam and the training loop built from them keep each
model as a list of per-hop tensors and re-mask dense weights to their hop
supports at every step, as the models once did; the packed parameter
vectors must reproduce them bit for bit. The speed CSV reader and writer
here hold the whole file as Python strings and walk it one cell at a time,
as the package once did; the block-streaming versions must read the same
arrays, raise the same errors and write the same bytes.
"""

import csv
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from graphmarkov.data import StateSeries, synthesize_timestamps

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
EVAL_CHUNK = 1024


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
    randomized = [rng.standard_normal(np.asarray(t).shape) for t in per_hop_tensors(params)]
    params = masked_params(params, randomized)

    mask = (rng.random((count, history, size)) < 0.7).astype(float)
    inputs = rng.standard_normal((count, history, size)) * mask
    label_mask = (rng.random((count, size)) < 0.8).astype(float)
    if label_mask.sum() == 0.0:
        label_mask.flat[0] = 1.0
    data = windows_dataset(inputs, mask, rng.standard_normal((count, size)), label_mask)
    return params, data


def per_hop_tensors(params):
    """The model's per-hop tensors: S x S weights or length-S gains."""
    return list(params.weights) if hasattr(params, "masks") else list(params.gains)


def masked_params(params, tensors):
    """Params of the same structure and damping holding `tensors`; dense
    weights are masked to their hop supports first."""
    from graphmarkov.models import GmnParams, SgmnParams

    if hasattr(params, "masks"):
        masked = [np.asarray(t, dtype=np.float64) * params.masks.mask(k)
                  for k, t in enumerate(tensors, start=1)]
        return GmnParams.from_weights(masked, params.masks, params.gamma)
    return SgmnParams.from_gains(list(tensors), params.basis, params.gamma)


def mse_of(params, data):
    """The masked MSE of params on data, from its loss_and_grad."""
    sq, observed, _ = params.loss_and_grad(data)
    return sq / observed


def fd_theta_grad(loss_of_params, params, step=1e-5):
    """Central finite differences of a scalar loss over the packed vector."""

    def loss_of(tensors):
        return loss_of_params(replace(params, theta=tensors[0]))

    return fd_tensor_grads(loss_of, (params.theta,), step)[0]


def gmn_forward(weights, masks, gamma, data):
    """Dense forward pass over per-hop weights, each re-masked on use."""
    out = np.zeros((len(data), data.size))
    for i, w in enumerate(weights):
        effective = masks.mask(i + 1) * w
        out = out + (gamma ** (i + 1)) * (data.at_lag(i) @ effective.T)
    return out


def gmn_backward(weights, masks, gamma, data, grad_out):
    """Per-hop weight gradients for an output gradient, masked to support."""
    grads = []
    for i in range(len(weights)):
        g = (gamma ** (i + 1)) * (grad_out.T @ data.at_lag(i))
        grads.append(masks.mask(i + 1) * g)
    return grads


def sgmn_forward(gains, basis, gamma, data):
    """Spectral forward pass over per-hop gain vectors."""
    u = basis.eigenvectors
    out = np.zeros((len(data), data.size))
    for i, g in enumerate(gains):
        coords = data.at_lag(i) @ u
        out = out + (gamma ** (i + 1)) * ((coords * g) @ u.T)
    return out


def sgmn_backward(gains, basis, gamma, data, grad_out):
    """Per-hop gain gradients for an output gradient."""
    u = basis.eigenvectors
    grad_coords = grad_out @ u
    grads = []
    for i in range(len(gains)):
        z_coords = data.at_lag(i) @ u
        grads.append((gamma ** (i + 1)) * (grad_coords * z_coords).sum(axis=0))
    return grads


def masked_mse(pred, labels, label_mask):
    """Mean squared error over entries with label_mask = 1."""
    observed = label_mask.sum()
    if observed == 0:
        raise ValueError("masked_mse needs at least one observed label entry")
    diff = (pred - labels) * label_mask
    return float((diff * diff).sum() / observed)


def masked_mse_grad(pred, labels, label_mask):
    """Gradient of masked_mse at pred."""
    observed = label_mask.sum()
    if observed == 0:
        raise ValueError("masked_mse needs at least one observed label entry")
    return 2.0 * (pred - labels) * label_mask / observed


def dense_passes(params):
    """(per-hop tensors, forward(tensors, data), backward(tensors, data,
    grad_out), remask(tensors)) of the params' kind."""
    tensors = [np.array(t) for t in per_hop_tensors(params)]
    if hasattr(params, "masks"):
        masks, gamma = params.masks, params.gamma
        return (
            tensors,
            lambda ts, data: gmn_forward(ts, masks, gamma, data),
            lambda ts, data, g: gmn_backward(ts, masks, gamma, data, g),
            lambda ts: [t * masks.mask(k) for k, t in enumerate(ts, start=1)],
        )
    basis, gamma = params.basis, params.gamma
    return (
        tensors,
        lambda ts, data: sgmn_forward(ts, basis, gamma, data),
        lambda ts, data, g: sgmn_backward(ts, basis, gamma, data, g),
        lambda ts: ts,
    )


def adam_tensors(tensors, grads, first, second, step, lr, remask):
    """One per-tensor Adam update; returns (tensors, first, second) with
    the new tensors passed through remask."""
    scale1 = 1.0 - ADAM_BETA1**step
    scale2 = 1.0 - ADAM_BETA2**step
    new_first, new_second, new_tensors = [], [], []
    for t, g, m, v in zip(tensors, grads, first, second):
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
        update = lr * (m / scale1) / (np.sqrt(v / scale2) + ADAM_EPS)
        new_first.append(m)
        new_second.append(v)
        new_tensors.append(t - update)
    return remask(new_tensors), new_first, new_second


def train_reference(params, train_data, val_data, config):
    """The training loop on per-hop tensors with the dense passes, the
    masked MSE pair and per-tensor Adam, under the same schedule as
    `train`. Returns (best per-hop tensors, [(train_loss, val_loss, lr)]).
    """
    tensors, forward, backward, remask = dense_passes(params)

    def dataset_loss(ts, data):
        total_sq = 0.0
        total_obs = 0.0
        for lo in range(0, len(data), EVAL_CHUNK):
            chunk = data[lo : lo + EVAL_CHUNK]
            diff = (forward(ts, chunk) - chunk.label) * chunk.label_mask
            total_sq += float((diff * diff).sum())
            total_obs += float(chunk.label_mask.sum())
        return total_sq / total_obs

    rng = np.random.default_rng(config.seed)
    first = [np.zeros_like(t) for t in tensors]
    second = [np.zeros_like(t) for t in tensors]
    step = 0
    lr = config.lr_init
    best_val, best = np.inf, tensors
    plateau_lr = plateau_stop = 0
    records = []
    for _ in range(config.max_epochs):
        order = rng.permutation(len(train_data))
        epoch_sq = epoch_obs = 0.0
        for lo in range(0, len(order), config.batch_size):
            batch = train_data[order[lo : lo + config.batch_size]]
            if batch.label_mask.sum() == 0:
                continue
            pred = forward(tensors, batch)
            diff = (pred - batch.label) * batch.label_mask
            epoch_sq += float((diff * diff).sum())
            epoch_obs += float(batch.label_mask.sum())
            grads = backward(tensors, batch, masked_mse_grad(pred, batch.label, batch.label_mask))
            step += 1
            tensors, first, second = adam_tensors(tensors, grads, first, second, step, lr, remask)
        val_loss = dataset_loss(tensors, val_data)
        previous_best = min((r[1] for r in records), default=np.inf)
        records.append((epoch_sq / epoch_obs, val_loss, lr))
        if val_loss < best_val:
            best_val, best = val_loss, tensors
        if val_loss < previous_best - config.min_delta:
            plateau_lr = plateau_stop = 0
        else:
            plateau_lr += 1
            plateau_stop += 1
        if plateau_stop >= config.stop_patience:
            break
        if plateau_lr >= config.lr_patience:
            lr = max(lr / 10.0, config.lr_floor)
            plateau_lr = 0
    return best, records


def _is_float(text):
    try:
        float(text)
        return True
    except ValueError:
        return False


def _parse_iso(text):
    try:
        stamp = datetime.fromisoformat(text.strip())
    except ValueError:
        return None
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.timestamp()


def ingest_csv_reference(path):
    """The speed CSV reader that holds every row before it fills the
    arrays: sniffs the header and time column, treats empty cells and zeros
    as missing, and checks ragged rows before any cell."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"speed file {path} is empty")

    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"speed file {path} has ragged rows (widths {sorted(widths)})")

    sniff_row = rows[1] if len(rows) >= 2 else rows[0]
    has_time_col = _parse_iso(sniff_row[0]) is not None
    data_start_col = 1 if has_time_col else 0

    has_header = any(
        cell.strip() != "" and not _is_float(cell) for cell in rows[0][data_start_col:]
    )
    data_rows = rows[1:] if has_header else rows
    if not data_rows:
        raise ValueError(f"speed file {path} has a header but no data rows")

    steps = len(data_rows)
    sensors = len(data_rows[0]) - data_start_col
    if sensors < 1:
        raise ValueError(f"speed file {path} has no sensor columns")

    values = np.zeros((steps, sensors))
    mask = np.ones((steps, sensors))
    times = np.zeros(steps) if has_time_col else None
    for t, row in enumerate(data_rows):
        if has_time_col:
            stamp = _parse_iso(row[0])
            if stamp is None:
                raise ValueError(f"unparseable timestamp {row[0]!r} at data row {t}")
            times[t] = stamp
        for s, cell in enumerate(row[data_start_col:]):
            text = cell.strip()
            if text == "":
                mask[t, s] = 0.0
                continue
            try:
                v = float(text)
            except ValueError:
                raise ValueError(f"unparseable value {cell!r} at data row {t}, column {s}") from None
            if v == 0.0:
                mask[t, s] = 0.0
            else:
                values[t, s] = v

    if times is None:
        times = synthesize_timestamps(steps)
    elif steps >= 2 and np.any(np.diff(times) <= 0):
        raise ValueError(f"speed file {path} has non-monotonic timestamps")
    return StateSeries(values=values, mask=mask, timestamps=times)


def write_speed_csv_reference(path, series, sensor_ids=None):
    """The speed CSV writer that builds every row cell by cell through
    csv.writer."""
    if sensor_ids is None:
        sensor_ids = [f"sensor_{s}" for s in range(series.size)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp"] + list(sensor_ids))
        for t in range(series.steps):
            stamp = datetime.fromtimestamp(series.timestamps[t], tz=timezone.utc)
            row = [stamp.strftime("%Y-%m-%dT%H:%M:%S")]
            for s in range(series.size):
                row.append(repr(float(series.values[t, s])) if series.mask[t, s] else "")
            writer.writerow(row)
