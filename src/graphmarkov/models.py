"""Forecasting models over a sensor graph.

Both models predict the next network state as a damped sum of n linear maps,
one per history step. The map applied to the state i steps back is confined to
the (i+1)-hop structure of the graph, and that state only contributes where
it is the newest observed reading at its sensor — so each sensor's
prediction is driven by the most recent observation available within the
window, propagated through an appropriately-sized graph neighborhood. The
models therefore read a window as its last observation (a
`LastObservations` dataset) and form each lag's input with `at_lag`.

The damped sum is written once (`_DampedHopSum`); the kinds differ only in
their per-hop linear maps:

* dense: an S x S weight matrix per hop, free only on the hop's
  reachability support;
* spectral: a per-frequency gain vector applied in the eigenbasis of the
  graph's normalized Laplacian, giving S parameters per hop instead of up
  to S^2.

Each params class packs its free parameters into one float64 vector, theta:
every vector of the right length is a valid model. The `from_*` constructors
check per-hop arrays that come from outside. The maps are applied from
`blocks`, one array per hop (gmn's dense weight stack, sgmn's gain rows).
One read-only bool array of the blocks' shape, `support`, fixes the layout
for both kinds: theta is `blocks[support]`, and the blocks are theta
scattered through `support`, zero elsewhere. `train` keeps a writable copy
of the blocks and Adam's state on the entries it can reach.
Backward passes are analytic, not autodiff; their correctness is pinned by
finite-difference tests.
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


def _check_history(n: int) -> None:
    if n < 1:
        raise ValueError("history depth must be >= 1")


class _DampedHopSum:
    """The sum over lags i of gamma^(i+1) times hop i+1's map of the lag-i
    input. A kind supplies the block cells theta fills (`support`), the
    coordinates its maps act in (`_coords`), one hop's map of its block
    (`_hop`), the batch-summed gradient over a block's cells (`_hop_grad`),
    the cells of a block that a set of input sensors reaches (`_reached`),
    and the checkpoint block of an identity hop map (`_identity_block`)."""

    @classmethod
    def warm_start(cls, graph: Graph, n: int, gamma: float):
        """Identity-on-hop-1 start: the fresh model predicts gamma times the
        newest observation (a damped-persistence forecast), with all deeper
        hops zeroed. Deterministic — no random initialization."""
        identity = cls._identity_block(graph.size)
        return cls.from_blocks([identity * (k == 0) for k in range(n)], graph, gamma)

    def predict(self, data: LastObservations) -> np.ndarray:
        """Predict the next state for each window in the dataset. On a fully
        observed window every term past lag 0 is exactly zero, so the result
        reduces bit-for-bit to the single newest-step term."""
        return self._forward(data, self.blocks)[1]

    @property
    def n(self) -> int:
        return len(self.support)

    @property
    def size(self) -> int:
        return self.support.shape[-1]

    @cached_property
    def blocks(self) -> np.ndarray:
        """The per-hop arrays the maps read and a checkpoint writes: theta
        scattered through support, zero elsewhere; built once per params
        object."""
        blocks = np.zeros(self.support.shape)
        blocks[self.support] = self.theta
        blocks.setflags(write=False)
        return blocks

    @cached_property
    def hop_entries(self) -> tuple:
        """Per hop, the slice it takes in theta and the flat indices of its
        support cells within its block."""
        return self._gather(np.flatnonzero(self.support))

    def loss_and_grad(self, data: LastObservations) -> tuple:
        """Masked squared-error sum, observed label count, and the gradient
        of their ratio with respect to theta."""
        sq, observed, _, grad = self._loss_and_grad(data, self.blocks, self.hop_entries)
        return sq, observed, grad

    def active_entries(self, data: LastObservations) -> np.ndarray:
        """The sorted theta indices whose gradient can be nonzero on rows of
        data. Hop k's map takes input only from the sensors with a reading at
        lag k-1 in some window, so every other entry's gradient is zero on
        every batch of data's rows."""
        reached = self.support.copy()
        for i in range(self.n):
            reached[i] &= self._reached((data.lag == i).any(axis=0))
        return np.flatnonzero(reached[self.support])

    def _gather(self, cells: np.ndarray) -> tuple:
        """The gather table of the sorted flat block cells `cells`: per hop,
        the slice of `cells` that lies in its block and their flat indices
        within it."""
        size = self.support[0].size
        bounds = np.searchsorted(cells, size * np.arange(self.n + 1))
        return tuple((slice(lo, hi), cells[lo:hi] - i * size)
                     for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])))

    def _loss_and_grad(self, data: LastObservations, blocks: np.ndarray, hops: tuple) -> tuple:
        """The loss, its observed label count, the output gradient in the
        maps' coordinates, and the gradient at the cells hops names (a
        `_gather` table, such as hop_entries), of the model whose per-hop
        arrays are blocks. Each lag's input and the output gradient are moved
        into the maps' coordinates once. Hop k's gradient is gamma^k times
        its batch-summed gradient at the lag-(k-1) input, read at the named
        entries, and stays zero when that lag holds no reading."""
        lags, pred = self._forward(data, blocks)
        sq, observed, diff = data.squared_error(pred)
        if observed == 0:
            raise ValueError("the loss needs at least one observed label entry")
        grad_out = self._coords(2.0 * diff / observed)
        grad = np.zeros(hops[-1][0].stop)
        for i, c in lags:
            part, flat = hops[i]
            np.multiply(self.gamma ** (i + 1), self._hop_grad(grad_out, c).reshape(-1)[flat],
                        out=grad[part])
        return sq, observed, grad_out, grad

    def _forward(self, data: LastObservations, blocks: np.ndarray) -> tuple:
        """(lag, input coordinates) of each lag that holds a reading, and
        the prediction of the model whose per-hop arrays are blocks; empty
        lags add exact zeros, so they are skipped."""
        if data.n != self.n:
            raise ValueError(f"dataset history {data.n} != model history {self.n}")
        if data.size != self.size:
            raise ValueError(f"dataset has {data.size} sensors but model has {self.size}")
        lags = [(i, self._coords(data.at_lag(i))) for i in data.present_lags()]
        out = np.zeros((len(data), self.size))
        for i, c in lags:
            out += (self.gamma ** (i + 1)) * self._hop(blocks[i], c)
        return lags, out


@dataclass(frozen=True)
class GmnParams(_DampedHopSum):
    """Dense per-hop weights confined to the graph's hop reachability.

    The support is the hop masks' n x S x S stack: theta holds each hop's
    weights inside its mask, and weights outside have no entry, so they are
    zero. weights[k-1] is the S x S matrix applied to the state k-1 steps
    back.
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
        for k, (w, mask) in enumerate(zip(weights, masks.masks), start=1):
            w = np.asarray(w, dtype=np.float64)
            if w.shape != mask.shape:
                raise ValueError(f"weight {k} shape {w.shape} != mask shape {mask.shape}")
            if np.any(w[~mask] != 0.0):
                raise ValueError(f"weight {k} has nonzero entries outside its {k}-hop support")
            packed.append(w[mask])  # hop by hop: theta is the stacked weights at the masks
        theta = np.concatenate(packed)
        theta.setflags(write=False)
        return cls(theta=theta, masks=masks, gamma=gamma)

    @classmethod
    def from_blocks(cls, blocks, graph: Graph, gamma: float) -> "GmnParams":
        """Params from checkpoint blocks: one S x S weight matrix per hop."""
        _check_history(len(blocks))
        return cls.from_weights(blocks, hop_masks(graph, len(blocks)), gamma)

    @property
    def support(self) -> np.ndarray:
        return self.masks.masks

    @property
    def weights(self) -> np.ndarray:
        """n x S x S dense weights (n S^2 doubles): the blocks."""
        return self.blocks

    def step_map(self, k: int) -> np.ndarray:
        """The S x S linear map of hop k."""
        return self.weights[k - 1]

    _identity_block = staticmethod(np.eye)

    def _coords(self, x: np.ndarray) -> np.ndarray:
        return x

    @staticmethod
    def _hop(weight: np.ndarray, z: np.ndarray) -> np.ndarray:
        return z @ weight.T

    @staticmethod
    def _hop_grad(grad_out: np.ndarray, z: np.ndarray) -> np.ndarray:
        """The batch-summed outer product, one entry per weight."""
        return grad_out.T @ z

    @staticmethod
    def _reached(seen: np.ndarray) -> np.ndarray:
        return seen  # a row over the block: the columns of the sensors seen


@dataclass(frozen=True)
class SgmnParams(_DampedHopSum):
    """Spectral per-hop gains in a fixed Laplacian eigenbasis.

    theta holds the gain vectors hop by hop, and the support is every cell
    of each hop's 1 x S gain row; gains[k-1] is the length-S vector of
    per-frequency multipliers applied to the state k-1 steps back.
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
                raise ValueError(f"gain vector {k} has shape {np.shape(g)}, expected ({basis.size},)")
        theta = np.array(gains, dtype=np.float64).reshape(-1)
        theta.setflags(write=False)
        return cls(theta=theta, basis=basis, gamma=gamma)

    @classmethod
    def from_blocks(cls, blocks, graph: Graph, gamma: float) -> "SgmnParams":
        """Params from checkpoint blocks: one 1 x S row of gains per hop."""
        _check_history(len(blocks))
        for k, block in enumerate(blocks, start=1):
            if np.shape(block) != (1, graph.size):
                raise ValueError(f"gain block {k} is {np.shape(block)}, want 1x{graph.size}")
        basis = spectral_basis(normalized_laplacian(graph))
        return cls.from_gains([block[0] for block in blocks], basis, gamma)

    @property
    def gains(self) -> np.ndarray:
        """n x S gains, a view of theta."""
        return self.theta.reshape(self.n, self.size)

    @property
    def support(self) -> np.ndarray:
        return np.broadcast_to(True, (self.theta.size // self.basis.size, 1, self.basis.size))

    def step_map(self, k: int) -> np.ndarray:
        """The S x S linear map of hop k, U diag(gains[k-1]) U^T."""
        u = self.basis.eigenvectors
        return (u * self.gains[k - 1]) @ u.T

    @staticmethod
    def _identity_block(size: int) -> np.ndarray:
        return np.ones((1, size))  # unit gains: the identity through the orthonormal basis

    def _coords(self, x: np.ndarray) -> np.ndarray:
        return x @ self.basis.eigenvectors

    def _hop(self, gains: np.ndarray, c: np.ndarray) -> np.ndarray:
        return (c * gains) @ self.basis.eigenvectors.T

    @staticmethod
    def _hop_grad(grad_out: np.ndarray, c: np.ndarray) -> np.ndarray:
        """The map is diagonal in the eigenbasis: one batch sum per frequency."""
        return (grad_out * c).sum(axis=0)

    @staticmethod
    def _reached(seen: np.ndarray) -> bool:
        return seen.any()  # every frequency mixes every sensor's input


# Params classes by the kind name that checkpoints and the CLI use.
MODELS = {cls.kind: cls for cls in (GmnParams, SgmnParams)}


init_gmn = GmnParams.warm_start
init_sgmn = SgmnParams.warm_start


def init_params(kind: str, graph: Graph, n: int, gamma: float):
    """The warm start of the model kind named in MODELS ("gmn" or "sgmn")."""
    if kind not in MODELS:
        raise ValueError(f"unknown model kind {kind!r}")
    return MODELS[kind].warm_start(graph, n, gamma)
