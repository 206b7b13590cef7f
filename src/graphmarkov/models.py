"""Forecasting models over a sensor graph.

Both models predict the next network state as a damped sum of n linear maps,
one per history step. The map applied to the state i steps back is confined to
the (i+1)-hop structure of the graph, and that state only contributes where
it is the newest observed reading at its sensor — so each sensor's
prediction is driven by the most recent observation available within the
window, propagated through an appropriately-sized graph neighborhood. The
models therefore read a window as its last observation (a
`LastObservations` dataset) and form each lag's input with `at_lag`.

Two parameterizations of the per-hop linear maps:

* dense: an S x S weight matrix per hop, free only on the hop's
  reachability support;
* spectral: a per-frequency gain vector applied in the eigenbasis of the
  graph's normalized Laplacian, giving S parameters per hop instead of up
  to S^2.

Each params class packs its free parameters into one float64 vector, theta,
which the optimizer updates through `dataclasses.replace`: every vector of
the right length is a valid model. The `from_*` constructors check per-hop
arrays that come from outside. Backward passes are analytic, not autodiff;
their correctness is pinned by finite-difference tests.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .data import LastObservations
from .graph import Graph, HopMaskSet, SpectralBasis, hop_masks, normalized_laplacian, spectral_basis


def _check_gamma(gamma: float) -> None:
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"damping factor must lie in (0,1], got {gamma}")


def _check_compat(params, data: LastObservations) -> None:
    if data.n != params.n:
        raise ValueError(f"dataset history {data.n} != model history {params.n}")
    if data.size != params.size:
        raise ValueError(f"dataset has {data.size} sensors but model has {params.size}")


def _masked_error(pred: np.ndarray, data: LastObservations) -> tuple:
    """Squared-error sum and count over the observed labels, and the
    gradient of their ratio (the masked MSE) at pred."""
    observed = data.label_mask.sum()
    if observed == 0:
        raise ValueError("the loss needs at least one observed label entry")
    diff = (pred - data.label) * data.label_mask
    return float((diff * diff).sum()), float(observed), 2.0 * diff / observed


@dataclass(frozen=True)
class GmnParams:
    """Dense per-hop weights confined to the graph's hop reachability.

    theta holds each hop's weights inside its support, hop by hop in the
    slices of masks.hop_entries; weights outside have no entry, so they
    are zero. weights[k-1] is the S x S matrix applied to the state k-1
    steps back.
    """

    kind: ClassVar[str] = "gmn"
    block_label: ClassVar[str] = "hop_weights"

    theta: np.ndarray
    masks: HopMaskSet
    gamma: float

    @classmethod
    def from_weights(cls, weights, masks: HopMaskSet, gamma: float) -> "GmnParams":
        """Pack dense per-hop weights, checking them against the masks."""
        _check_gamma(gamma)
        if len(weights) != masks.order:
            raise ValueError(f"{len(weights)} weight matrices but {masks.order} hop masks")
        packed = []
        for k, w in enumerate(weights, start=1):
            w = np.asarray(w, dtype=np.float64)
            mask = masks.mask(k)
            if w.shape != mask.shape:
                raise ValueError(f"weight {k} shape {w.shape} != mask shape {mask.shape}")
            if np.any(w[~mask] != 0.0):
                raise ValueError(f"weight {k} has nonzero entries outside its {k}-hop support")
            packed.append(w[mask])
        theta = np.concatenate(packed)
        theta.setflags(write=False)
        return cls(theta=theta, masks=masks, gamma=gamma)

    @classmethod
    def from_blocks(cls, blocks, graph: Graph, gamma: float) -> "GmnParams":
        """Params from checkpoint blocks: one S x S weight matrix per hop."""
        return cls.from_weights(blocks, hop_masks(graph, len(blocks)), gamma)

    @property
    def n(self) -> int:
        return self.masks.order

    @property
    def size(self) -> int:
        return self.masks.mask(1).shape[0]

    @cached_property
    def weights(self) -> np.ndarray:
        """n x S x S dense weights, scattered from theta."""
        dense = np.zeros((self.n, self.size, self.size))
        for w, (entries, flat) in zip(dense, self.masks.hop_entries):
            w.reshape(-1)[flat] = self.theta[entries]
        dense.setflags(write=False)
        return dense

    @property
    def blocks(self) -> np.ndarray:
        """The per-hop arrays a checkpoint writes: the weight matrices."""
        return self.weights

    def step_map(self, k: int) -> np.ndarray:
        """The S x S linear map of hop k."""
        return self.weights[k - 1]

    def predict(self, data: LastObservations) -> np.ndarray:
        """Predict the next state for each window in the dataset.

        The lag-i term applies gamma^(i+1) times hop i+1's weights to the
        input of the state i steps back. On a fully observed window every
        term past lag 0 is exactly zero, so the result reduces bit-for-bit
        to the single newest-step term.
        """
        return self._forward(data)[1]

    def loss_and_grad(self, data: LastObservations) -> tuple:
        """Masked squared-error sum, observed label count, and the gradient
        of their ratio with respect to theta.

        Each lag's input is formed once for both directions. Hop k's
        gradient is gamma^k times the batch-summed outer product of the
        output gradient with the lag-(k-1) input, read on its support into
        hop k's slice of theta. A hop whose lag holds no reading keeps a
        zero gradient.
        """
        lags, pred = self._forward(data)
        sq, observed, grad_out = _masked_error(pred, data)
        grad = np.zeros_like(self.theta)
        for i, z in lags:
            entries, flat = self.masks.hop_entries[i]
            np.multiply(self.gamma ** (i + 1), (grad_out.T @ z).reshape(-1)[flat], out=grad[entries])
        return sq, observed, grad

    def _forward(self, data: LastObservations) -> tuple:
        """(lag, input) of each lag that holds a reading, and the
        prediction. Empty lags add exact zeros, so they are skipped; each
        other hop's S x S weights are built from its own slice of theta."""
        _check_compat(self, data)
        lags = [(i, data.at_lag(i)) for i in data.present_lags()]
        out = np.zeros((len(data), self.size))
        for i, z in lags:
            entries, flat = self.masks.hop_entries[i]
            w = np.zeros((self.size, self.size))
            w.reshape(-1)[flat] = self.theta[entries]
            out += (self.gamma ** (i + 1)) * (z @ w.T)
        return lags, out


@dataclass(frozen=True)
class SgmnParams:
    """Spectral per-hop gains in a fixed Laplacian eigenbasis.

    theta holds the gain vectors hop by hop; gains[k-1] is the length-S
    vector of per-frequency multipliers applied to the state k-1 steps back.
    """

    kind: ClassVar[str] = "sgmn"
    block_label: ClassVar[str] = "frequency_gains"

    theta: np.ndarray
    basis: SpectralBasis
    gamma: float

    @classmethod
    def from_gains(cls, gains, basis: SpectralBasis, gamma: float) -> "SgmnParams":
        """Pack per-hop gain vectors, checking their lengths."""
        _check_gamma(gamma)
        if len(gains) == 0:
            raise ValueError("need at least one gain vector")
        for k, g in enumerate(gains, start=1):
            if np.shape(g) != (basis.size,):
                raise ValueError(
                    f"gain vector {k} has shape {np.shape(g)}, expected ({basis.size},)"
                )
        theta = np.array(gains, dtype=np.float64).reshape(-1)
        theta.setflags(write=False)
        return cls(theta=theta, basis=basis, gamma=gamma)

    @classmethod
    def from_blocks(cls, blocks, graph: Graph, gamma: float) -> "SgmnParams":
        """Params from checkpoint blocks: one 1 x S row of gains per hop."""
        for k, block in enumerate(blocks, start=1):
            if np.shape(block) != (1, graph.size):
                raise ValueError(f"gain block {k} is {np.shape(block)}, want 1x{graph.size}")
        basis = spectral_basis(normalized_laplacian(graph))
        return cls.from_gains([block[0] for block in blocks], basis, gamma)

    @property
    def n(self) -> int:
        return self.theta.size // self.basis.size

    @property
    def size(self) -> int:
        return self.basis.size

    @property
    def gains(self) -> np.ndarray:
        """n x S gains, a view of theta."""
        return self.theta.reshape(self.n, self.size)

    @property
    def blocks(self) -> np.ndarray:
        """The per-hop arrays a checkpoint writes: each gain vector as a row."""
        return self.gains[:, None, :]

    def step_map(self, k: int) -> np.ndarray:
        """The S x S linear map of hop k, U diag(gains[k-1]) U^T."""
        u = self.basis.eigenvectors
        return (u * self.gains[k - 1]) @ u.T

    def predict(self, data: LastObservations) -> np.ndarray:
        """Spectral counterpart of GmnParams.predict: each lag term moves
        its input into the eigenbasis, scales it by that hop's gains and
        moves it back, never forming a dense S x S weight."""
        return self._forward(data)[1]

    def loss_and_grad(self, data: LastObservations) -> tuple:
        """Spectral counterpart of GmnParams.loss_and_grad.

        The spectral coordinates of each lag's input are computed once for
        both directions. In the eigenbasis the forward term is diagonal, so
        each gain's gradient is the batch sum of the transformed output
        gradient times the transformed input at that frequency. A hop whose
        lag holds no reading keeps a zero gradient.
        """
        coords, pred = self._forward(data)
        sq, observed, grad_out = _masked_error(pred, data)
        grad_coords = grad_out @ self.basis.eigenvectors
        grads = np.zeros((self.n, self.size))
        for i, c in coords:
            grads[i] = (self.gamma ** (i + 1)) * (grad_coords * c).sum(axis=0)
        return sq, observed, grads.reshape(-1)

    def _forward(self, data: LastObservations) -> tuple:
        """(lag, spectral coordinates) of each lag that holds a reading, and
        the prediction; empty lags add exact zeros, so they are skipped."""
        _check_compat(self, data)
        u = self.basis.eigenvectors
        coords = [(i, data.at_lag(i) @ u) for i in data.present_lags()]
        out = np.zeros((len(data), self.size))
        for i, c in coords:
            out += (self.gamma ** (i + 1)) * ((c * self.gains[i]) @ u.T)
        return coords, out


# Params classes by the kind name that checkpoints and the CLI use.
MODELS = {cls.kind: cls for cls in (GmnParams, SgmnParams)}


def init_gmn(graph: Graph, n: int, gamma: float) -> GmnParams:
    """Identity-on-hop-1 start: the fresh model predicts gamma times the
    newest observation (a damped-persistence forecast), with all deeper hops
    zeroed. Deterministic — no random initialization.
    """
    if n < 1:
        raise ValueError("history depth must be >= 1")
    weights = [np.eye(graph.size)] + [np.zeros((graph.size, graph.size)) for _ in range(n - 1)]
    return GmnParams.from_weights(weights, hop_masks(graph, n), gamma)


def init_sgmn(graph: Graph, n: int, gamma: float) -> SgmnParams:
    """Spectral analog of init_gmn: unit gains at hop 1 reconstruct the
    identity map through the orthonormal basis; deeper hops start at zero."""
    if n < 1:
        raise ValueError("history depth must be >= 1")
    basis = spectral_basis(normalized_laplacian(graph))
    gains = [np.ones(graph.size)] + [np.zeros(graph.size) for _ in range(n - 1)]
    return SgmnParams.from_gains(gains, basis, gamma)


def init_params(kind: str, graph: Graph, n: int, gamma: float):
    """Dispatch on model kind ("gmn" or "sgmn")."""
    if kind == "gmn":
        return init_gmn(graph, n, gamma)
    if kind == "sgmn":
        return init_sgmn(graph, n, gamma)
    raise ValueError(f"unknown model kind {kind!r}")
