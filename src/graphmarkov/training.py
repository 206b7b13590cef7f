"""Mini-batch training with masked loss, Adam, learning-rate decay, and
early stopping.

The loss only counts label entries whose observation mask is 1: injected
gaps corrupt the inputs, so every injected entry still has a usable label,
while readings the source data never had stay out of the loss entirely.

The schedule watches validation loss after every epoch. An epoch "improves"
when its validation loss drops more than min_delta below the best seen so
far. After lr_patience consecutive non-improving epochs the learning rate is
divided by 10 (never below lr_floor) and that counter restarts; after
stop_patience consecutive non-improving epochs training stops. The returned
parameters are the ones from the epoch with the lowest validation loss, not
the last epoch.
"""

import time
from dataclasses import dataclass, replace

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_EVAL_CHUNK = 1024


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for the training loop. Defaults match the reference setup:
    batches of 64, learning rate decaying from 1e-3 by factors of 10 down to
    1e-5, patience of 4 epochs per decay and 5 epochs to stop."""

    batch_size: int = 64
    lr_init: float = 1e-3
    lr_floor: float = 1e-5
    lr_patience: int = 4
    stop_patience: int = 5
    min_delta: float = 1e-5
    max_epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.lr_floor > self.lr_init:
            raise ValueError(f"lr_floor {self.lr_floor} exceeds lr_init {self.lr_init}")
        if self.lr_init < 0 or self.lr_floor < 0:
            raise ValueError("learning rates must be nonnegative")
        if self.lr_patience < 1 or self.stop_patience < 1:
            raise ValueError("patience values must be >= 1")
        if self.min_delta < 0:
            raise ValueError("min_delta must be nonnegative")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    lr: float
    seconds: float


@dataclass(frozen=True)
class TrainHistory:
    """Per-epoch loop telemetry, contiguous from epoch 1."""

    records: tuple

    def __post_init__(self):
        for k, rec in enumerate(self.records, start=1):
            if rec.epoch != k:
                raise ValueError(f"history records must be contiguous from 1, got {rec.epoch} at {k}")
        lrs = [rec.lr for rec in self.records]
        if any(b > a for a, b in zip(lrs, lrs[1:])):
            raise ValueError("learning rate must be non-increasing across epochs")

    @property
    def epochs(self) -> int:
        return len(self.records)

    @property
    def best_epoch(self) -> int:
        return min(self.records, key=lambda r: r.val_loss).epoch

    def val_losses(self) -> np.ndarray:
        return np.array([r.val_loss for r in self.records])


def write_history_csv(path, history: TrainHistory) -> None:
    """Write the history as CSV. Wall-clock seconds are deliberately left
    out so that reruns of the same configuration produce byte-identical
    files; timings still appear in the live log lines."""
    with open(path, "w", newline="") as fh:
        fh.write("epoch,train_loss,val_loss,lr\n")
        for rec in history.records:
            fh.write(
                f"{rec.epoch},{rec.train_loss:.17g},{rec.val_loss:.17g},{rec.lr:.17g}\n"
            )


def adam_step(params, grad: np.ndarray, first: np.ndarray, second: np.ndarray, step: int, lr: float):
    """The step-th (from 1) bias-corrected Adam update of the first
    len(grad) entries of the packed parameter vector; the rest are copied,
    which is exact while their gradients and moments are zero. Updates the
    moment estimates `first` and `second` in place and returns the new params.

    Raises:
        ValueError: non-finite gradient entries; the moments are left as
            they were.
    """
    if not np.all(np.isfinite(grad)):
        raise ValueError("non-finite gradient; aborting the update")

    scale1 = 1.0 - ADAM_BETA1**step
    scale2 = 1.0 - ADAM_BETA2**step
    # first = b1 * first + (1 - b1) * grad, second = b2 * second + (1 - b2) *
    # grad^2 and theta - lr * (first / scale1) / (sqrt(second / scale2) + eps),
    # each element through the same operations in the same order.
    scratch = np.multiply(grad, 1.0 - ADAM_BETA1)
    first *= ADAM_BETA1
    first += scratch
    np.multiply(grad, grad, out=scratch)
    scratch *= 1.0 - ADAM_BETA2
    second *= ADAM_BETA2
    second += scratch
    np.divide(second, scale2, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPS
    theta = params.theta.copy()
    update = np.divide(first, scale1, out=theta[: grad.size])
    update *= lr
    update /= scratch
    np.subtract(params.theta[: grad.size], update, out=update)
    theta.setflags(write=False)
    return replace(params, theta=theta)


def _dataset_loss(params, data) -> float:
    """Masked MSE over a whole dataset, evaluated in bounded chunks."""
    total_sq = 0.0
    total_obs = 0.0
    for lo in range(0, len(data), _EVAL_CHUNK):
        chunk = data[lo : lo + _EVAL_CHUNK]
        diff = (params.predict(chunk) - chunk.label) * chunk.label_mask
        total_sq += float((diff * diff).sum())
        total_obs += float(chunk.label_mask.sum())
    if total_obs == 0:
        raise ValueError("dataset has no observed label entries")
    return total_sq / total_obs


def train(params, train_data, val_data, config: TrainConfig, log=None):
    """Run the full training loop; returns (best params, TrainHistory).

    Each epoch shuffles the training windows with a seeded generator, walks
    them in batches of config.batch_size (final short batch included),
    updates via Adam, then scores the validation set. Batches without a
    single observed label are skipped. `log`, if given, receives one line
    per epoch.

    Raises:
        FloatingPointError: non-finite training or validation loss.
    """
    rng = np.random.default_rng(config.seed)
    first, second = np.zeros_like(params.theta), np.zeros_like(params.theta)
    end = 0  # past theta[:end] no gradient entry has been nonzero (or NaN) yet
    step = 0
    lr = config.lr_init

    best_val = np.inf
    best_params = params
    plateau_lr = 0
    plateau_stop = 0
    records = []

    for epoch in range(1, config.max_epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(len(train_data))
        epoch_sq = 0.0
        epoch_obs = 0.0
        for lo in range(0, len(order), config.batch_size):
            batch = train_data[order[lo : lo + config.batch_size]]
            if not batch.label_mask.any():
                continue
            sq, observed, grad = params.loss_and_grad(batch)
            epoch_sq += sq
            epoch_obs += observed
            step += 1
            touched = np.flatnonzero(grad[end:])
            if touched.size:
                end += int(touched[-1]) + 1
            params = adam_step(params, grad[:end], first[:end], second[:end], step, lr)

        train_loss = epoch_sq / epoch_obs if epoch_obs else np.nan
        val_loss = _dataset_loss(params, val_data)
        if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
            raise FloatingPointError(
                f"non-finite loss at epoch {epoch} (train {train_loss}, val {val_loss})"
            )
        seconds = time.perf_counter() - started
        records.append(
            EpochRecord(epoch=epoch, train_loss=train_loss, val_loss=val_loss, lr=lr, seconds=seconds)
        )
        if log is not None:
            log(
                f"epoch {epoch:3d}  train {train_loss:.6e}  val {val_loss:.6e}"
                f"  lr {lr:.1e}  {seconds:.2f}s"
            )

        improved = val_loss < best_val - config.min_delta
        if val_loss < best_val:
            best_val = val_loss
            best_params = params

        if improved:
            plateau_lr = 0
            plateau_stop = 0
        else:
            plateau_lr += 1
            plateau_stop += 1

        if plateau_stop >= config.stop_patience:
            break
        if plateau_lr >= config.lr_patience:
            lr = max(lr / 10.0, config.lr_floor)
            plateau_lr = 0

    return best_params, TrainHistory(records=tuple(records))
