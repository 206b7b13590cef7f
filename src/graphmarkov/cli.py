"""Command-line entry point.

Four subcommands cover the full experiment cycle:

    simulate   generate a synthetic sensor network and state sequence
    train      fit a model on a speed CSV + adjacency CSV
    eval       score a checkpoint against the data it was trained on
    influence  rank vertices by weight mass of a trained model

Every run appends one flat key=value record to <out>/manifest.txt: `main`
wraps a handler's resolved flags, seeds, input digests and output paths in
`command`, `started` and `finished` keys, enough to rerun the command to
identical outputs. After `started` it records what produced the run: the
package, numpy and BLAS versions and the thread count. Input paths are
recorded relative to the manifest's directory, so `eval` finds a training
run's inputs from any working directory and checks them against the
recorded digests. Seeds are explicit flags, so identical invocations give
byte-identical checkpoints and histories.

`train` also saves the series it parsed, with the digest of the CSV bytes
it came from, as series.npz next to its checkpoint. `eval` reads that file
instead of parsing the CSV again when the speed file is inherited from the
manifest, matches its sha256_speed and the file records that same digest;
otherwise it parses the CSV.

Flags may also be supplied through `--config FILE` (key=value lines, `#`
comments); explicit command-line flags win over config values.
"""

import argparse
import hashlib
import os
import sys
import zipfile
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import load_params, save_params
from .data import (
    SplitSpec,
    StateSeries,
    _thread_count,
    ingest_csv,
    prepare_datasets,
    write_speed_csv,
)
from .evaluation import (
    evaluate,
    format_influence,
    format_metrics,
    influence_scores,
    persistence_baseline,
    residual_summary,
    write_influence_csv,
    write_metrics_csv,
    write_residual_csv,
)
from .graph import build_graph, read_adjacency_csv, write_adjacency_csv
from .models import MODELS, init_params
from .simulate import random_transition, simulate_gmp
from .training import TrainConfig, train, write_history_csv

MANIFEST_NAME = "manifest.txt"
# The series a train run parsed, saved next to its checkpoint for eval.
SERIES_NAME = "series.npz"


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _learning_rate(text: str) -> float:
    """A learning rate, not below 0; TrainConfig names a non-finite one."""
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"learning rate must be >= 0, got {value}")
    return value


def _open_unit_gamma(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"damping factor must lie strictly in (0,1), got {value}")
    return value


def _missing_rate(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"missing rate must lie in [0,1), got {value}")
    return value


def _split_fractions(text: str) -> SplitSpec:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"split must look like A:B:C, got {text!r}")
    try:
        weights = [float(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"split parts must be numeric, got {text!r}") from None
    if not all(w > 0 for w in weights):
        raise argparse.ArgumentTypeError(f"split parts must each be positive, got {text!r}")
    total = sum(weights)
    try:
        return SplitSpec(*(w / total for w in weights))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="graphmarkov",
        description="Forecast network state sequences with missing data.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="generate a synthetic network and sequence")
    sim.add_argument("--nodes", type=_positive_int, default=10)
    sim.add_argument("--steps", type=_positive_int, default=5000)
    sim.add_argument("--gamma", type=_open_unit_gamma, default=0.9)
    sim.add_argument("--noise", type=float, default=0.01)
    sim.add_argument("--seed", type=_nonnegative_int, default=0)
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--config", help="key=value file of flag defaults")
    sim.set_defaults(handler=cmd_simulate)

    tr = subs.add_parser("train", help="fit a model to a speed/adjacency pair")
    tr.add_argument("--model", choices=sorted(MODELS), required=True)
    tr.add_argument("--n", type=_positive_int, default=10, help="history depth")
    tr.add_argument("--gamma", type=_open_unit_gamma, default=0.9)
    tr.add_argument("--missing-rate", type=_missing_rate, default=0.0)
    tr.add_argument("--batch-size", type=_positive_int, default=64)
    tr.add_argument("--lr", type=_learning_rate, default=1e-3)
    tr.add_argument("--seed", type=_nonnegative_int, default=0)
    tr.add_argument("--split", type=_split_fractions, default="6:2:2")
    tr.add_argument("--speed", required=True, help="speed CSV path")
    tr.add_argument("--adjacency", required=True, help="adjacency CSV path")
    tr.add_argument("--out", required=True, help="output directory")
    tr.add_argument("--config", help="key=value file of flag defaults")
    tr.set_defaults(handler=cmd_train)

    ev = subs.add_parser("eval", help="score a checkpoint on its test split")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--speed", default=None, help="defaults to the training manifest's value")
    ev.add_argument("--adjacency", default=None, help="defaults to the training manifest's value")
    ev.add_argument("--missing-rate", type=_missing_rate, default=None)
    ev.add_argument("--seed", type=_nonnegative_int, default=None)
    ev.add_argument("--split", type=_split_fractions, default=None)
    ev.add_argument("--n", type=_positive_int, default=None, help="must match the checkpoint if given")
    ev.add_argument("--residuals", choices=("hour", "weekday"), default=None)
    ev.add_argument("--out", required=True, help="output directory")
    ev.add_argument("--config", help="key=value file of flag defaults")
    ev.set_defaults(handler=cmd_eval)

    inf = subs.add_parser("influence", help="rank vertices by weight mass")
    inf.add_argument("--checkpoint", required=True)
    inf.add_argument("--adjacency", required=True)
    inf.add_argument("--k", type=_positive_int, default=1, help="hop step to analyze")
    inf.add_argument("--top", type=_positive_int, default=None)
    inf.add_argument("--mode", choices=("row", "column"), default="row")
    inf.add_argument("--out", required=True, help="output directory")
    inf.add_argument("--config", help="key=value file of flag defaults")
    inf.set_defaults(handler=cmd_influence)

    # The subparsers by command name, whose defaults a config file sets.
    return parser, subs.choices


def load_config_file(path) -> dict:
    """Read a key=value config file into a dict of raw strings."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _apply_config_defaults(sub: argparse.ArgumentParser, config: dict, path) -> None:
    """Install config values as subparser defaults, converted through each
    flag's declared type so they behave exactly like typed command-line
    input. Command-line flags still win, since they override defaults. A
    key that is no flag of the subcommand, or a value its flag rejects,
    raises ValueError naming the config file and the key."""
    actions = {a.dest: a for a in sub._actions}
    converted = {}
    for key, raw in config.items():
        if key == "config":
            continue
        action = actions.get(key)
        if action is None:
            raise ValueError(f"{path}: config key {key!r} is not a flag of this subcommand")
        try:
            value = action.type(raw) if action.type else raw
        except (argparse.ArgumentTypeError, ValueError) as exc:
            raise ValueError(f"{path}: config key {key!r}: {exc}") from None
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"{path}: config key {key!r}: {value!r} not one of {sorted(action.choices)}")
        converted[key] = value
        if action.required:
            action.required = False
    sub.set_defaults(**converted)


def _provenance() -> dict:
    """The package, numpy and BLAS versions, and the thread count, which caps
    the BLAS pool when GRAPHMARKOV_THREADS is set."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # a numpy without the dict mode (before 1.26)
        blas = "unknown"
    return {"version": __version__, "numpy": np.__version__, "blas": blas, "threads": _thread_count()}


def _utcnow() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def append_manifest(out_dir: Path, record: dict) -> None:
    """Append one flat key=value record (blank-line terminated) to the run
    manifest in out_dir."""
    with open(out_dir / MANIFEST_NAME, "a") as fh:
        for key, value in record.items():
            fh.write(f"{key}={value}\n")
        fh.write("\n")


def read_manifest_records(path) -> list:
    """Parse a manifest back into a list of dicts, oldest first."""
    records = []
    current = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line.strip():
                if current:
                    records.append(current)
                    current = {}
                continue
            key, _, value = line.partition("=")
            current[key] = value
    if current:
        records.append(current)
    return records


def _last_train_record(checkpoint_path: Path) -> dict:
    manifest = checkpoint_path.parent / MANIFEST_NAME
    if not manifest.exists():
        return {}
    trains = [r for r in read_manifest_records(manifest) if r.get("command") == "train"]
    return trains[-1] if trains else {}


def _relative_to(path, directory: Path) -> str:
    """path as a manifest in directory records it."""
    return os.path.relpath(Path(path).resolve(), directory.resolve())


def _ensure_out(path_text: str) -> Path:
    out = Path(path_text)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _format_split(spec: SplitSpec) -> str:
    return f"{spec.train_fraction:g}:{spec.val_fraction:g}:{spec.test_fraction:g}"


def random_network(nodes: int, seed: int):
    """A connected random graph: a random attachment tree plus a sprinkling
    of extra edges (about 30% of remaining pairs)."""
    rng = np.random.default_rng(seed)
    adjacency = np.zeros((nodes, nodes))
    for v in range(1, nodes):
        u = int(rng.integers(0, v))
        adjacency[u, v] = adjacency[v, u] = 1.0
    for u in range(nodes):
        for v in range(u + 1, nodes):
            if adjacency[u, v] == 0.0 and rng.random() < 0.3:
                adjacency[u, v] = adjacency[v, u] = 1.0
    return build_graph(adjacency)


def cmd_simulate(args) -> dict:
    if args.steps < 2:
        raise ValueError(f"need at least 2 steps to form a sequence, got {args.steps}")
    graph = random_network(args.nodes, args.seed)
    spec = random_transition(graph, args.seed, gamma=args.gamma, noise_std=args.noise)
    out = _ensure_out(args.out)
    series = simulate_gmp(graph, spec, steps=args.steps, seed=args.seed + 1)

    adjacency_path = out / "adjacency.csv"
    speed_path = out / "speed.csv"
    write_adjacency_csv(adjacency_path, graph.adjacency)
    sha256_speed = write_speed_csv(speed_path, series, decimals=4)
    print(f"wrote {speed_path} ({series.steps} steps x {series.size} sensors) and {adjacency_path}")

    return {
        "nodes": args.nodes,
        "steps": args.steps,
        "gamma": args.gamma,
        "noise": args.noise,
        "seed": args.seed,
        "out_speed": speed_path,
        "out_adjacency": adjacency_path,
        "sha256_speed": sha256_speed,
        "sha256_adjacency": _sha256(adjacency_path),
    }


def _ingest(speed, graph, digest=None) -> StateSeries:
    """The speed file's series, once its sensors match the graph's; digest,
    if given, is updated with the file's bytes as they are parsed."""
    series = ingest_csv(speed, digest=digest)
    if series.size != graph.size:
        raise ValueError(
            f"speed file has {series.size} sensor columns but adjacency is {graph.size}x{graph.size}"
        )
    return series


def _save_series(path: Path, series: StateSeries, sha256_speed: str) -> None:
    """Write the series, with the sha256 of the speed CSV bytes it was parsed
    from, as one uncompressed .npz file. It is written under a temporary name
    in the same directory and then renamed over path, so an interrupted run
    never leaves a partial file there."""
    partial = path.with_name(f".{path.name}.{os.getpid()}.partial")
    try:
        with open(partial, "wb") as fh:
            np.savez(fh, values=series.values, mask=series.mask, timestamps=series.timestamps,
                     sha256_speed=np.array(sha256_speed))
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def _saved_series(path: Path, sha256_speed: str, graph) -> StateSeries | None:
    """The series `train` saved at path, if the file is there, reads whole,
    records sha256_speed as its CSV's digest and holds the graph's sensors;
    else None, and the caller parses the CSV."""
    try:
        # np.load would leave a file it opened itself open on a broken zip.
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as saved:
            if str(saved["sha256_speed"]) != sha256_speed:
                return None
            arrays = [saved[key] for key in ("values", "mask", "timestamps")]
        for a in arrays:
            a.setflags(write=False)  # so that StateSeries shares them instead of copying
        series = StateSeries(*arrays)
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        return None
    return series if series.size == graph.size else None


def cmd_train(args) -> dict:
    # A rate below the default floor is its own floor.
    cfg = TrainConfig(batch_size=args.batch_size, lr_init=args.lr,
                      lr_floor=min(args.lr, TrainConfig.lr_floor), seed=args.seed)
    out = _ensure_out(args.out)

    graph = build_graph(read_adjacency_csv(args.adjacency))
    # Hashed as it is parsed, so the digest describes the bytes read, and a
    # pipe can be read at all.
    digest = hashlib.sha256()
    series = _ingest(args.speed, graph, digest)
    sha256_speed = digest.hexdigest()
    _save_series(out / SERIES_NAME, series, sha256_speed)
    bundle = prepare_datasets(series, n=args.n, missing_rate=args.missing_rate, seed=args.seed,
                              spec=args.split)
    train_data, val_data = bundle.train, bundle.val
    del series, bundle  # only the windows are used from here on
    params = init_params(args.model, graph, args.n, args.gamma)
    trained, history = train(params, train_data, val_data, cfg, log=print)

    checkpoint_path = out / "model.ckpt"
    history_path = out / "history.csv"
    save_params(checkpoint_path, trained)
    write_history_csv(history_path, history)
    print(
        f"best epoch {history.best_epoch}/{history.epochs}"
        f"  val {history.val_losses().min():.6e}  -> {checkpoint_path}"
    )

    return {
        "model": args.model,
        "n": args.n,
        "gamma": args.gamma,
        "missing_rate": args.missing_rate,
        "batch_size": args.batch_size,
        "lr": args.lr,
        "seed": args.seed,
        "split": _format_split(args.split),
        "speed": _relative_to(args.speed, out),
        "adjacency": _relative_to(args.adjacency, out),
        "sha256_speed": sha256_speed,
        "sha256_adjacency": _sha256(args.adjacency),
        "out_checkpoint": checkpoint_path,
        "out_history": history_path,
        "epochs": history.epochs,
        "best_epoch": history.best_epoch,
    }


def cmd_eval(args) -> dict:
    out = _ensure_out(args.out)
    checkpoint_path = Path(args.checkpoint)
    if not checkpoint_path.exists():
        raise ValueError(f"checkpoint {checkpoint_path} does not exist")
    inherited = _last_train_record(checkpoint_path)

    def resolve(flag_value, key, convert, description):
        if flag_value is not None:
            return flag_value
        if key in inherited:
            try:
                return convert(inherited[key])
            except (argparse.ArgumentTypeError, ValueError) as exc:
                raise ValueError(f"{checkpoint_path.parent / MANIFEST_NAME}: key {key!r}: {exc}") from None
        raise ValueError(
            f"--{description} not given and no training manifest next to the checkpoint records it"
        )

    def input_file(flag_value, key):
        if flag_value is not None or key not in inherited:
            return resolve(flag_value, key, str, key)
        path = checkpoint_path.parent / inherited[key]
        if _sha256(path) != inherited.get(f"sha256_{key}"):
            raise ValueError(f"{key} file {path} does not match the training manifest's sha256_{key}")
        return path

    speed = input_file(args.speed, "speed")
    adjacency = input_file(args.adjacency, "adjacency")
    missing_rate = resolve(args.missing_rate, "missing_rate", _missing_rate, "missing-rate")
    seed = resolve(args.seed, "seed", _nonnegative_int, "seed")
    split = resolve(args.split, "split", _split_fractions, "split")

    graph = build_graph(read_adjacency_csv(adjacency))
    params = load_params(checkpoint_path, graph)
    if args.n is not None and args.n != params.n:
        raise ValueError(f"--n {args.n} does not match the checkpoint's history depth {params.n}")

    # An inherited speed file has been checked against the manifest's sha256_speed.
    saved = checkpoint_path.parent / SERIES_NAME
    series = None if args.speed is not None else _saved_series(saved, inherited["sha256_speed"], graph)
    print(f"speed series read from {speed if series is None else saved}")
    if series is None:
        series = _ingest(speed, graph)
    # Only the test part is windowed: the bundle does so on first read.
    bundle = prepare_datasets(series, n=params.n, missing_rate=missing_rate, seed=seed, spec=split)

    report, residual = evaluate(params, bundle.test, bundle.stats)
    reports = {"model": report, "baseline": persistence_baseline(bundle.test, bundle.stats)}
    metrics_path = out / "metrics.csv"
    write_metrics_csv(metrics_path, reports)
    print(format_metrics(reports))

    record = {
        "checkpoint": _relative_to(checkpoint_path, out),
        "sha256_checkpoint": _sha256(checkpoint_path),
        "speed": _relative_to(speed, out),
        "adjacency": _relative_to(adjacency, out),
        "missing_rate": missing_rate,
        "seed": seed,
        "split": _format_split(split),
        "out_metrics": metrics_path,
    }

    if args.residuals:
        summary = residual_summary(residual, bundle.test.label_mask, bundle.test_label_times, args.residuals)
        residual_path = out / f"residuals_{args.residuals}.csv"
        write_residual_csv(residual_path, summary)
        print(f"residual groups written to {residual_path}")
        record["residuals"] = args.residuals
        record["out_residuals"] = residual_path
    return record


def cmd_influence(args) -> dict:
    out = _ensure_out(args.out)
    graph = build_graph(read_adjacency_csv(args.adjacency))
    params = load_params(args.checkpoint, graph)
    table = influence_scores(params, step=args.k, mode=args.mode)

    influence_path = out / "influence.csv"
    write_influence_csv(influence_path, table, top=args.top)
    print(format_influence(table, top=args.top))

    return {
        "checkpoint": _relative_to(args.checkpoint, out),
        "sha256_checkpoint": _sha256(args.checkpoint),
        "adjacency": _relative_to(args.adjacency, out),
        "k": args.k,
        "mode": args.mode,
        "top": "" if args.top is None else args.top,
        "out_influence": influence_path,
    }


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)

    parser, registry = build_parser()
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    try:
        if known.config:
            config = load_config_file(known.config)
            command = next((a for a in argv if not a.startswith("-")), None)
            if command in registry:
                _apply_config_defaults(registry[command], config, known.config)
        args = parser.parse_args(argv)
        record = {"command": args.command, "started": _utcnow(), **_provenance(), **args.handler(args)}
        append_manifest(Path(args.out), {**record, "finished": _utcnow()})
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
