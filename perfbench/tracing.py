"""Spans recorded around the package's functions, from outside the package.

Each target is a (module, attribute) pair naming a function where its caller
looks it up, so rebinding the attribute intercepts the call: for example
`graphmarkov.training.forward` is the name `train` calls. A missing
attribute is recorded as absent and skipped, so a later version of the
package that deletes or renames a function still runs under the benchmark.

Spans stay in memory as [name, start, end, parent index] and are written out
once, when the job ends. This module imports nothing heavy: the worker loads
it before numpy's thread pool is configured.
"""

import functools
import importlib
import os
import time

# Stage boundaries of the untraced run: model work begins on entry to these.
STAGES = (
    ("graphmarkov.cli", "train", "training.train"),
    ("graphmarkov.cli", "evaluate", "evaluation.evaluate"),
    ("graphmarkov.cli", "simulate_gmp", "simulate.simulate_gmp"),
)

# The traced run wraps every public function each module calls across a
# layer boundary, named <layer>.<function>.
LAYERS = STAGES + (
    ("graphmarkov.cli", "ingest_csv", "data.ingest_csv"),
    ("graphmarkov.cli", "prepare_datasets", "data.prepare_datasets"),
    ("graphmarkov.cli", "write_speed_csv", "data.write_speed_csv"),
    ("graphmarkov.cli", "read_adjacency_csv", "graph.read_adjacency_csv"),
    ("graphmarkov.cli", "build_graph", "graph.build_graph"),
    ("graphmarkov.cli", "write_adjacency_csv", "graph.write_adjacency_csv"),
    ("graphmarkov.models", "hop_masks", "graph.hop_masks"),
    ("graphmarkov.models", "spectral_basis", "graph.spectral_basis"),
    ("graphmarkov.checkpoint", "hop_masks", "graph.hop_masks"),
    ("graphmarkov.checkpoint", "spectral_basis", "graph.spectral_basis"),
    ("graphmarkov.cli", "random_transition", "simulate.random_transition"),
    ("graphmarkov.cli", "init_params", "models.init_params"),
    ("graphmarkov.training", "batch_from_samples", "models.batch_from_samples"),
    ("graphmarkov.training", "forward", "models.forward"),
    ("graphmarkov.training", "backward", "models.backward"),
    ("graphmarkov.evaluation", "batch_from_samples", "models.batch_from_samples"),
    ("graphmarkov.evaluation", "forward", "models.forward"),
    ("graphmarkov.training", "adam_step", "training.adam_step"),
    ("graphmarkov.training", "_dataset_loss", "training.val"),
    ("graphmarkov.cli", "write_history_csv", "training.write_history_csv"),
    ("graphmarkov.cli", "predict", "evaluation.predict"),
    ("graphmarkov.evaluation", "predict", "evaluation.predict"),
    ("graphmarkov.cli", "persistence_baseline", "evaluation.persistence_baseline"),
    ("graphmarkov.cli", "residual_summary", "evaluation.residual_summary"),
    ("graphmarkov.cli", "write_metrics_csv", "evaluation.write_metrics_csv"),
    ("graphmarkov.cli", "write_residual_csv", "evaluation.write_residual_csv"),
    ("graphmarkov.cli", "save_params", "checkpoint.save_params"),
    ("graphmarkov.cli", "load_params", "checkpoint.load_params"),
)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _windows(args, kwargs, result):
    return len(result.train) + len(result.val) + len(result.test)


# Counts taken from a call's arguments or result, keyed by span name.
COUNTS = {
    "data.ingest_csv": ("data.ingest_bytes", _file_bytes),
    "data.write_speed_csv": ("data.write_bytes", _file_bytes),
    "data.prepare_datasets": ("data.windows", _windows),
}


class Tracer:
    """Span and count recorder for one job."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.absent = []

    def open(self, name: str) -> list:
        span = [name, time.perf_counter(), None, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self.stack.pop()

    def install(self, targets) -> None:
        for module_name, attr, name in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, name))

    def _wrap(self, fn, name):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                key, measure = count
                try:
                    self.counts[key] = self.counts.get(key, 0) + measure(args, kwargs, result)
                except (AttributeError, IndexError, TypeError, OSError):
                    self.absent.append(key)
            return result

        return traced
