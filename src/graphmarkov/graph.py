"""Graph structure of the sensor network.

Builds the binary adjacency, the self-connection adjacency (adjacency plus
identity, so every vertex influences itself), per-vertex degrees, hop
reachability masks, the symmetric normalized Laplacian, and its
eigendecomposition. All structures are immutable after construction and can
be shared freely across threads.
"""

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SYMMETRY_TOL = 1e-10


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Graph:
    """Undirected sensor network with binary connectivity.

    Attributes:
        size: number of vertices
        adjacency: binary S x S matrix, zero diagonal
        self_adjacency: adjacency + identity (every vertex self-connected)
        degree: per-vertex edge counts (row sums of adjacency)
    """

    size: int
    adjacency: np.ndarray
    self_adjacency: np.ndarray
    degree: np.ndarray


@dataclass(frozen=True)
class HopMaskSet:
    """Reachability masks: masks[k-1] is True where vertex j reaches vertex i
    within k hops under the self-connection adjacency (the support of its
    k-th matrix power), as a read-only bool array."""

    masks: tuple

    @property
    def order(self) -> int:
        return len(self.masks)

    def mask(self, k: int) -> np.ndarray:
        """1-indexed: mask(1) is the self-connection adjacency itself."""
        if not 1 <= k <= len(self.masks):
            raise ValueError(f"hop order {k} outside 1..{len(self.masks)}")
        return self.masks[k - 1]

    @cached_property
    def hop_entries(self) -> tuple:
        """Per hop, the flat indices of its support entries within one S x S
        mask and the slice they take in a hop-major packing of all hops."""
        flats = [np.flatnonzero(mask) for mask in self.masks]
        ends = np.cumsum([flat.size for flat in flats])
        return tuple((slice(end - flat.size, end), flat) for flat, end in zip(flats, ends))


@dataclass(frozen=True)
class SpectralBasis:
    """Orthonormal eigenvectors (columns) and ascending eigenvalues of a
    symmetric normalized Laplacian."""

    eigenvectors: np.ndarray
    eigenvalues: np.ndarray

    @property
    def size(self) -> int:
        return self.eigenvalues.shape[0]


def build_graph(adjacency_input: np.ndarray) -> Graph:
    """Build a Graph from a raw (possibly weighted, possibly asymmetric)
    adjacency matrix.

    Weighted inputs are symmetrized by max(w_ij, w_ji) and binarized at
    threshold > 0; the diagonal is discarded (self-connections live in
    self_adjacency only).

    Raises:
        ValueError: non-square input, NaN or infinite entries (named by row
            and column), negative entries, or size 0.
    """
    a = np.asarray(adjacency_input, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("adjacency has size 0")
    # A NaN weight would pass the sign check below and then drop its edge.
    non_finite = np.argwhere(~np.isfinite(a))
    if non_finite.size:
        i, j = non_finite[0]
        raise ValueError(
            f"adjacency entry at row {i}, column {j} is {float(a[i, j])}; entries must be finite"
        )
    if np.any(a < 0):
        raise ValueError("adjacency entries must be nonnegative")

    sym = np.maximum(a, a.T)
    adjacency = (sym > 0).astype(np.float64)
    np.fill_diagonal(adjacency, 0.0)
    self_adjacency = adjacency + np.eye(a.shape[0])
    degree = adjacency.sum(axis=1)
    return Graph(
        size=a.shape[0],
        adjacency=_frozen(adjacency),
        self_adjacency=_frozen(self_adjacency),
        degree=_frozen(degree),
    )


def hop_masks(graph: Graph, n: int) -> HopMaskSet:
    """Supports of the first n powers of the self-connection adjacency, as
    read-only bool arrays.

    mask(1) equals the self-connection adjacency; mask(k) grows monotonically
    and saturates once k reaches the graph diameter.

    Raises:
        ValueError: n < 1.
    """
    if n < 1:
        raise ValueError("hop mask order must be >= 1")
    masks = []
    reach = graph.self_adjacency > 0
    for _ in range(n):
        reach.setflags(write=False)
        masks.append(reach)
        reach = (reach @ graph.self_adjacency) > 0
    return HopMaskSet(masks=tuple(masks))


def normalized_laplacian(graph: Graph) -> np.ndarray:
    """Symmetric normalized Laplacian I - D^{-1/2} A D^{-1/2}.

    Isolated vertices (degree 0) get a zero inverse-root degree, which leaves
    a unit diagonal entry in their row.
    """
    inv_root = np.where(graph.degree > 0, 1.0 / np.sqrt(np.maximum(graph.degree, 1e-300)), 0.0)
    lap = np.eye(graph.size) - (inv_root[:, None] * graph.adjacency) * inv_root[None, :]
    return lap


def spectral_basis(laplacian: np.ndarray) -> SpectralBasis:
    """Eigendecompose a symmetric Laplacian into an orthonormal basis.

    Eigenvalues are returned ascending with tiny negative roundoff clipped to
    zero. Each eigenvector column is sign-flipped so its largest-magnitude
    entry is positive, which makes checkpoints reproducible.

    Raises:
        ValueError: input asymmetric beyond 1e-10.
        np.linalg.LinAlgError: eigensolver failed to converge.
    """
    lap = np.asarray(laplacian, dtype=np.float64)
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise ValueError(f"laplacian must be square, got shape {lap.shape}")
    if np.max(np.abs(lap - lap.T)) > SYMMETRY_TOL:
        raise ValueError("laplacian is not symmetric within 1e-10")

    eigenvalues, eigenvectors = np.linalg.eigh(lap)
    eigenvalues = np.maximum(eigenvalues, 0.0)

    # Deterministic sign: largest-magnitude entry of each column positive.
    pivot = np.argmax(np.abs(eigenvectors), axis=0)
    signs = np.where(eigenvectors[pivot, np.arange(lap.shape[0])] < 0, -1.0, 1.0)
    eigenvectors = eigenvectors * signs[None, :]

    return SpectralBasis(eigenvectors=_frozen(eigenvectors), eigenvalues=_frozen(eigenvalues))


def read_adjacency_csv(path) -> np.ndarray:
    """Read a headerless S x S adjacency CSV of nonnegative reals."""
    rows = []
    with open(path, newline="") as fh:
        for line in csv.reader(fh):
            if not line:
                continue
            try:
                rows.append([float(cell) for cell in line])
            except ValueError as exc:
                raise ValueError(f"unparseable adjacency cell in {path}: {exc}") from None
    if not rows:
        raise ValueError(f"adjacency file {path} is empty")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"adjacency file {path} has ragged rows (widths {sorted(widths)})")
    return np.array(rows, dtype=np.float64)


def write_adjacency_csv(path, adjacency: np.ndarray) -> None:
    """Write an adjacency matrix as a headerless CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in np.asarray(adjacency):
            writer.writerow([_format_value(v) for v in row])


def _format_value(v: float) -> str:
    f = float(v)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)
