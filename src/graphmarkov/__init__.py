"""Forecasting network-wide state sequences with missing data.

The package models each next network state as a damped sum of graph-localized
linear maps applied to recent history, with unobserved readings routed around
via their observation masks. Two parameterizations are provided: dense
per-hop weights masked to the graph's reachability structure, and a spectral
variant that learns per-frequency gains in the graph Laplacian eigenbasis.
"""

import os as _os


def _threads_setting() -> int | None:
    """GRAPHMARKOV_THREADS when it is a positive integer, else None: the one
    rule for the BLAS pool below and the speed reader (data._thread_count)."""
    text = _os.environ.get("GRAPHMARKOV_THREADS", "").strip()
    return int(text) if text.isdecimal() and int(text) > 0 else None


# GRAPHMARKOV_THREADS caps BLAS parallelism. The standard thread-count
# variables are only read when the linear-algebra backend first loads, so
# this translation has to happen before numpy is imported below. Variables
# the user already set explicitly are left alone.
_BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
_threads = _threads_setting()
if _threads:
    for _var in _BLAS_THREAD_VARS:
        _os.environ.setdefault(_var, str(_threads))

from .data import (
    DatasetBundle,
    LastObservations,
    NormStats,
    SplitSpec,
    StateSeries,
    denormalize,
    ingest_csv,
    last_observations,
    normalize,
    prepare_datasets,
    split,
    write_speed_csv,
)
from .graph import (
    Graph,
    HopMaskSet,
    SpectralBasis,
    build_graph,
    hop_masks,
    normalized_laplacian,
    read_adjacency_csv,
    spectral_basis,
    write_adjacency_csv,
)
from .simulate import TransitionSpec, random_transition, simulate_gmp

__version__ = "0.1.0"

__all__ = [
    "DatasetBundle",
    "Graph",
    "HopMaskSet",
    "LastObservations",
    "NormStats",
    "SpectralBasis",
    "SplitSpec",
    "StateSeries",
    "TransitionSpec",
    "build_graph",
    "denormalize",
    "hop_masks",
    "ingest_csv",
    "last_observations",
    "normalize",
    "normalized_laplacian",
    "prepare_datasets",
    "random_transition",
    "read_adjacency_csv",
    "simulate_gmp",
    "split",
    "spectral_basis",
    "write_adjacency_csv",
    "write_speed_csv",
]
