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

* dense: a free S x S weight matrix per hop, zero outside the hop's
  reachability support;
* spectral: a per-frequency gain vector applied in the eigenbasis of the
  graph's normalized Laplacian, giving S parameters per hop instead of up
  to S^2.

Backward passes are analytic, not autodiff; their correctness is pinned by
finite-difference tests.
"""

from dataclasses import dataclass

import numpy as np

from .data import LastObservations
from .graph import Graph, HopMaskSet, SpectralBasis, hop_masks, normalized_laplacian, spectral_basis


@dataclass(frozen=True)
class GmnParams:
    """Dense per-hop weights, masked to the graph's hop reachability.

    weights[k-1] is the S x S matrix applied to the state k-1 steps back; its
    entries outside masks.mask(k) are exactly zero.
    """

    weights: tuple
    masks: HopMaskSet
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"damping factor must lie in (0,1], got {self.gamma}")
        if len(self.weights) != self.masks.order:
            raise ValueError(
                f"{len(self.weights)} weight matrices but {self.masks.order} hop masks"
            )
        frozen = []
        for k, w in enumerate(self.weights, start=1):
            w = np.array(w, dtype=np.float64)
            mask = self.masks.mask(k)
            if w.shape != mask.shape:
                raise ValueError(f"weight {k} shape {w.shape} != mask shape {mask.shape}")
            if np.any(w[mask == 0.0] != 0.0):
                raise ValueError(f"weight {k} has nonzero entries outside its {k}-hop support")
            w.setflags(write=False)
            frozen.append(w)
        object.__setattr__(self, "weights", tuple(frozen))

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def size(self) -> int:
        return self.weights[0].shape[0]

    @property
    def tensors(self) -> tuple:
        return self.weights

    def with_tensors(self, tensors) -> "GmnParams":
        """Rebuild with new weights, re-masked to the hop supports."""
        masked = tuple(
            np.asarray(t, dtype=np.float64) * self.masks.mask(k)
            for k, t in enumerate(tensors, start=1)
        )
        return GmnParams(weights=masked, masks=self.masks, gamma=self.gamma)


@dataclass(frozen=True)
class SgmnParams:
    """Spectral per-hop gains in a fixed Laplacian eigenbasis.

    gains[k-1] is the length-S vector of per-frequency multipliers applied to
    the state k-1 steps back.
    """

    gains: tuple
    basis: SpectralBasis
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"damping factor must lie in (0,1], got {self.gamma}")
        if not self.gains:
            raise ValueError("need at least one gain vector")
        frozen = []
        for k, g in enumerate(self.gains, start=1):
            g = np.array(g, dtype=np.float64)
            if g.shape != (self.basis.size,):
                raise ValueError(
                    f"gain vector {k} has shape {g.shape}, expected ({self.basis.size},)"
                )
            g.setflags(write=False)
            frozen.append(g)
        object.__setattr__(self, "gains", tuple(frozen))

    @property
    def n(self) -> int:
        return len(self.gains)

    @property
    def size(self) -> int:
        return self.basis.size

    @property
    def tensors(self) -> tuple:
        return self.gains

    def with_tensors(self, tensors) -> "SgmnParams":
        return SgmnParams(gains=tuple(tensors), basis=self.basis, gamma=self.gamma)


def _check_compat(params, data: LastObservations) -> None:
    if data.n != params.n:
        raise ValueError(f"dataset history {data.n} != model history {params.n}")
    if data.size != params.size:
        raise ValueError(f"dataset has {data.size} sensors but model has {params.size}")


def gmn_forward(params: GmnParams, data: LastObservations) -> np.ndarray:
    """Predict the next state for each window in the dataset.

    The lag-i term applies gamma^(i+1) times the masked weight matrix for hop
    i+1 to the gated state i steps back. On a fully observed window every term
    past lag 0 is exactly zero, so the result reduces bit-for-bit to the
    single newest-step term.
    """
    _check_compat(params, data)
    out = np.zeros((len(data), params.size))
    for i in range(params.n):
        effective = params.masks.mask(i + 1) * params.weights[i]
        out = out + (params.gamma ** (i + 1)) * (data.at_lag(i) @ effective.T)
    return out


def gmn_backward(params: GmnParams, data: LastObservations, grad_out: np.ndarray) -> tuple:
    """Gradients of a scalar loss with respect to each hop's weight matrix,
    given the loss gradient at the model output.

    Each gradient is the batch-summed outer product of the output gradient
    with the gated lag state, scaled by the hop's damping power and zeroed
    off-support (off-support weights are frozen, not just initialized, at 0).
    """
    _check_compat(params, data)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != (len(data), data.size):
        raise ValueError(f"output gradient must be B x S, got {grad_out.shape}")
    grads = []
    for i in range(params.n):
        g = (params.gamma ** (i + 1)) * (grad_out.T @ data.at_lag(i))
        grads.append(params.masks.mask(i + 1) * g)
    return tuple(grads)


def sgmn_forward(params: SgmnParams, data: LastObservations) -> np.ndarray:
    """Spectral counterpart of gmn_forward.

    Each lag term transforms the gated state into the eigenbasis, scales each
    coordinate by that hop's gain, and transforms back — two S-dimensional
    basis products and a pointwise scale, never a dense S x S weight.
    """
    _check_compat(params, data)
    u = params.basis.eigenvectors
    out = np.zeros((len(data), params.size))
    for i in range(params.n):
        coords = data.at_lag(i) @ u
        out = out + (params.gamma ** (i + 1)) * ((coords * params.gains[i]) @ u.T)
    return out


def sgmn_backward(params: SgmnParams, data: LastObservations, grad_out: np.ndarray) -> tuple:
    """Gradients of a scalar loss with respect to each hop's gain vector.

    In the eigenbasis the forward term is diagonal, so each gain's gradient is
    the batch sum of the product of the transformed output gradient and the
    transformed gated state at that frequency.
    """
    _check_compat(params, data)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != (len(data), data.size):
        raise ValueError(f"output gradient must be B x S, got {grad_out.shape}")
    u = params.basis.eigenvectors
    grad_coords = grad_out @ u
    grads = []
    for i in range(params.n):
        z_coords = data.at_lag(i) @ u
        grads.append((params.gamma ** (i + 1)) * (grad_coords * z_coords).sum(axis=0))
    return tuple(grads)


def init_gmn(graph: Graph, n: int, gamma: float) -> GmnParams:
    """Identity-on-hop-1 start: the fresh model predicts gamma times the
    newest observation (a damped-persistence forecast), with all deeper hops
    zeroed. Deterministic — no random initialization.
    """
    if n < 1:
        raise ValueError("history depth must be >= 1")
    masks = hop_masks(graph, n)
    weights = [np.eye(graph.size)] + [np.zeros((graph.size, graph.size)) for _ in range(n - 1)]
    return GmnParams(weights=tuple(weights), masks=masks, gamma=gamma)


def init_sgmn(graph: Graph, n: int, gamma: float) -> SgmnParams:
    """Spectral analog of init_gmn: unit gains at hop 1 reconstruct the
    identity map through the orthonormal basis; deeper hops start at zero."""
    if n < 1:
        raise ValueError("history depth must be >= 1")
    basis = spectral_basis(normalized_laplacian(graph))
    gains = [np.ones(graph.size)] + [np.zeros(graph.size) for _ in range(n - 1)]
    return SgmnParams(gains=tuple(gains), basis=basis, gamma=gamma)


def init_params(kind: str, graph: Graph, n: int, gamma: float):
    """Dispatch on model kind ("gmn" or "sgmn")."""
    if kind == "gmn":
        return init_gmn(graph, n, gamma)
    if kind == "sgmn":
        return init_sgmn(graph, n, gamma)
    raise ValueError(f"unknown model kind {kind!r}")


def model_kind(params) -> str:
    """Inverse of init_params' dispatch: the kind string for a params object."""
    if isinstance(params, GmnParams):
        return "gmn"
    if isinstance(params, SgmnParams):
        return "sgmn"
    raise TypeError(f"not a model parameter object: {type(params).__name__}")


def forward(params, data: LastObservations) -> np.ndarray:
    """Kind-agnostic forward dispatch."""
    if isinstance(params, GmnParams):
        return gmn_forward(params, data)
    return sgmn_forward(params, data)


def backward(params, data: LastObservations, grad_out: np.ndarray) -> tuple:
    """Kind-agnostic backward dispatch."""
    if isinstance(params, GmnParams):
        return gmn_backward(params, data, grad_out)
    return sgmn_backward(params, data, grad_out)
