"""Textual model checkpoints.

A checkpoint is a plain-text file: a short header of key=value lines (model
kind, sensor count, history depth, damping factor, producer) followed by one
labelled CSV block per learned tensor. Floats are written with 17 significant
digits, which round-trips IEEE double exactly, so save -> load -> save is
byte-identical. Only learned values are stored; graph-derived structure (hop
masks, the spectral basis) is rebuilt from the adjacency at load time.
"""

from functools import partial

import numpy as np

from . import __version__
from .data import _FLOAT_FORMAT, _fmt
from .graph import Graph
from .models import MODELS

MAGIC = "graphmarkov-model v1"


def save_params(path, params) -> None:
    """Write params as a textual checkpoint.

    The header carries no timestamps or host details, so two runs that learn
    identical weights produce byte-identical files.
    """
    lines = [
        MAGIC,
        f"kind={params.kind}",
        f"size={params.size}",
        f"history={params.n}",
        f"gamma={_fmt(params.gamma)}",
        f"producer=graphmarkov {__version__}",
    ]
    row_format = ",".join([_FLOAT_FORMAT] * params.size)
    for k, block in enumerate(params.blocks, start=1):
        lines.append(f"[{params.block_label} {k}]")
        lines.extend(row_format % tuple(row) for row in block.tolist())
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def load_params(path, graph: Graph):
    """Read a checkpoint back, rebuilding derived structure from the graph.

    Raises:
        ValueError: unrecognized format, malformed blocks, non-finite values,
            or a graph whose size disagrees with the checkpoint.
    """
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines or lines[0] != MAGIC:
        raise ValueError(f"{path} is not a recognized model checkpoint")

    header = {}
    cursor = 1
    while cursor < len(lines) and not lines[cursor].startswith("["):
        if "=" in lines[cursor]:
            key, _, value = lines[cursor].partition("=")
            header[key] = value
        elif lines[cursor].strip():
            raise ValueError(
                f"checkpoint {path}: line {cursor + 1} {lines[cursor]!r} is neither"
                " key=value nor a block marker"
            )
        cursor += 1

    try:
        kind = header["kind"]
        size = int(header["size"])
        history = int(header["history"])
        gamma = float(header["gamma"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"checkpoint {path} has a malformed header: {exc}") from None
    if kind not in MODELS:
        raise ValueError(f"checkpoint {path} has unknown model kind {kind!r}")
    model = MODELS[kind]
    if graph.size != size:
        raise ValueError(
            f"checkpoint {path} was trained on {size} sensors but the graph has {graph.size}"
        )

    blocks = _read_blocks(lines, cursor, path, size)
    if len(blocks) != history:
        raise ValueError(
            f"checkpoint {path} declares history {history} but holds {len(blocks)} blocks"
        )
    tensors = []
    for k, (label, index, rows) in enumerate(blocks, start=1):
        if label != model.block_label or index != k:
            raise ValueError(f"checkpoint {path}: expected block [{model.block_label} {k}]")
        for r, row in enumerate(rows, start=1):
            if len(row) != size:
                raise ValueError(
                    f"checkpoint {path}: block [{label} {k}] row {r} has {len(row)} values, want {size}"
                )
        arr = np.asarray(rows)
        bad = np.argwhere(~np.isfinite(arr))
        if bad.size:
            raise ValueError(
                f"checkpoint {path}: block [{label} {k}] row {bad[0][0] + 1} holds a non-finite value"
            )
        tensors.append(arr)
    try:
        return model.from_blocks(tensors, graph, gamma)
    except ValueError as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from None


def _read_blocks(lines, start, path, size):
    """The (label, index, rows) of each block of lines[start:]. rows is an
    array when every block holds rows of size values that np.loadtxt reads;
    else each row's float() values, read row by row, which names the first
    fault."""
    try:
        blocks = _scan_blocks(lines, start, path, str)
        return [(label, index, _loadtxt_rows(rows, size)) for label, index, rows in blocks]
    except ValueError:
        return _scan_blocks(lines, start, path, partial(_float_row, path))


def _loadtxt_rows(rows, size) -> np.ndarray:
    """The rows as an array of size columns, read by np.loadtxt where it
    reads each cell as float() does. It also reads cells padded with some
    control characters, which float() turns down, and it warns on no rows.
    """
    if not rows or not all(map(str.isprintable, rows)):
        raise ValueError
    values = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    if values.shape != (len(rows), size):
        raise ValueError
    return values


def _float_row(path, line) -> list:
    try:
        return [float(cell) for cell in line.split(",")]
    except ValueError:
        raise ValueError(f"checkpoint {path}: unparseable row {line!r}") from None


def _scan_blocks(lines, start, path, row):
    """The (label, index, rows) of each block of lines[start:], rows holding
    row(line) of each of its non-blank lines."""
    blocks = []
    current = None
    for number, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        if line.startswith("[") and line.endswith("]"):
            parts = line[1:-1].split()
            if len(parts) != 2 or not parts[1].isdigit():
                raise ValueError(f"checkpoint {path}: bad block marker {line!r}")
            current = (parts[0], int(parts[1]), [])
            blocks.append(current)
            continue
        if current is None:
            raise ValueError(f"checkpoint {path}: line {number} {line!r} is data outside any block")
        current[2].append(row(line))
    return blocks
