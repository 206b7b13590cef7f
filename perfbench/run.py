"""Benchmark of the graphmarkov command-line forecasting loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root. Each workload is a closed loop with one
client: one job at a time, each job a fresh worker process that runs the
workload's CLI command sequence through `graphmarkov.cli.main` with the
argv a user would type, the BLAS pool capped at the CPU count through
GRAPHMARKOV_THREADS. Jobs repeat until the next one would end after
--seconds (at least one runs). Inputs come from the benchmark's own seeded
generator (inputs.py) and are cached under .perfbench/; generating them is
not timed. Every command's outputs are checked (checks.py); a command that
exits non-zero or fails a check counts as failed.

End-to-end metrics are medians over the untraced jobs: job_s (the package
import plus the whole command sequence), setup_s (summed over the
commands, the time from command start until train(), evaluate() or
simulate_gmp() is entered) and peak_rss_mb (the worker's own peak RSS).
train_s, train_windows_per_s, eval_s and test_mae exist only on some
workloads; they are printed, and --trace 1 reports them with the per-layer
metrics. The share of failed commands is the result line's failed over
attempted.

--trace 1 then runs one traced job, which wraps the package's functions
from outside (tracing.py). `<layer>.<function>_s` is the summed wall time
of that function's calls, children included; a layer that does not run on
the workload, or a function the package no longer has, reads 0 and the
latter is listed as absent. `cli.self_s` is job time no layer span covers:
the import, argument parsing, digests and manifests. --smoke runs the same
jobs on tiny shapes in a few seconds.

Human-readable lines, the environment and a report file under
.perfbench/reports/ come first; the last line of standard output is one
JSON object with keys correct, attempted, failed (commands) and metrics.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import inputs
import tracing

HERE = Path(__file__).resolve().parent
PACKAGE = Path("src")
WORK = Path(".perfbench")
RUN_BUDGET_S = 170.0
CHECK_RESERVE_S = 15.0
MISSING_RATE = "0.1"

# BENCHMARK.json leaves train-sgmn out: at ~40 s a run, three workloads
# fit the run budget. It stays runnable as the spectral control for
# changes to the training loop.
WORKLOADS = {
    "train-sgmn": "spectral model: batch stacking, re-gating and Batch validation are half of each epoch",
    "train-gmn": "dense per-hop weights on 3%..80% hop supports: adam_step re-masking and masked matmuls dominate",
    "eval-metr": "METR-LA-shaped eval without training: CSV ingest, windowing, chunked forward, carry-forward loop",
    "simulate-metr": "METR-LA-shaped simulate: the only caller of simulate_gmp and write_speed_csv",
}
INPUT_KIND = {"train-sgmn": "train", "train-gmn": "train", "eval-metr": "metr"}

END_TO_END = {
    "job_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.self_s": "s",
    "data.ingest_csv_s": "s",
    "data.ingest_mb_per_s": "MB/s",
    "data.prepare_datasets_s": "s",
    "data.windows": "count",
    "data.write_speed_csv_s": "s",
    "data.write_mb_per_s": "MB/s",
    "data.zero_cells": "count",
    "graph.read_adjacency_csv_s": "s",
    "graph.build_graph_s": "s",
    "graph.hop_masks_s": "s",
    "graph.spectral_basis_s": "s",
    "simulate.random_transition_s": "s",
    "simulate.simulate_gmp_s": "s",
    "models.batch_from_samples_s": "s",
    "models.forward_s": "s",
    "models.backward_s": "s",
    "models.forward_calls": "count",
    "training.adam_step_s": "s",
    "training.val_s": "s",
    "training.step_ms_p50": "ms",
    "training.step_ms_p99": "ms",
    "training.steps": "count",
    "training.skipped_batches": "count",
    "training.epochs": "count",
    "training.best_epoch": "count",
    "evaluation.predict_s": "s",
    "evaluation.persistence_baseline_s": "s",
    "evaluation.residual_summary_s": "s",
    "evaluation.carry_forward_mae": "mph",
    "checkpoint.save_params_s": "s",
    "checkpoint.load_params_s": "s",
    "checkpoint.bytes": "bytes",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
    "train_s": "s",
    "train_windows_per_s": "windows/s",
    "eval_s": "s",
    "test_mae": "mph",
}
# Metrics of the untraced jobs that exist only on some workloads; the
# trace run reports them beside the per-layer breakdown.
STAGE_METRICS = ("train_s", "train_windows_per_s", "eval_s", "test_mae")
STAGE_NAMES = {name for _, _, name in tracing.STAGES}
SPAN_NAMES = {name for _, _, name in tracing.LAYERS}


def job_commands(workload: str, seed: int, shape, data: Path, out: Path) -> list:
    if workload == "simulate-metr":
        return [["simulate", "--nodes", str(shape.sensors), "--steps", str(shape.metr_steps),
                 "--seed", str(seed), "--out", str(out)]]
    n = str(shape.history)
    speed, adjacency = str(data / "speed.csv"), str(data / "adjacency.csv")
    if workload == "eval-metr":
        return [["eval", "--checkpoint", str(data / "model.ckpt"), "--speed", speed,
                 "--adjacency", adjacency, "--missing-rate", MISSING_RATE, "--seed", str(seed),
                 "--split", "6:2:2", "--n", n, "--residuals", "hour", "--out", str(out)]]
    model = workload.split("-")[1]
    return [
        ["train", "--model", model, "--n", n, "--missing-rate", MISSING_RATE,
         "--speed", speed, "--adjacency", adjacency, "--out", str(out)],
        ["eval", "--checkpoint", str(out / "model.ckpt"), "--residuals", "hour", "--out", str(out)],
    ]


def run_job(directory: Path, commands: list, trace: bool, deadline: float) -> dict:
    """Run one job in a fresh worker and reap it with wait4, whose rusage
    is that child's own peak RSS."""
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    spec = directory / "job.json"
    spec.write_text(json.dumps({
        "src": str(PACKAGE.resolve()), "commands": commands, "trace": trace,
        "result": str(directory / "result.json"),
    }))
    env = dict(os.environ, GRAPHMARKOV_THREADS=str(nproc()))
    started = time.monotonic()
    with open(directory / "worker.log", "wb") as log:
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec)],
                                stdout=log, stderr=subprocess.STDOUT, env=env)
        timed_out = False
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    timed_out = True
                    break
                time.sleep(0.02)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    result_path = directory / "result.json"
    result = None
    if proc.returncode == 0 and not timed_out and result_path.is_file():
        result = json.loads(result_path.read_text())
    return {
        "dir": directory,
        "commands": commands,
        "trace": trace,
        "wall_s": time.monotonic() - started,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "result": result,
        "error": None if result else f"worker exited {proc.returncode}"
                 + (" after timeout" if timed_out else "") + f"; see {directory / 'worker.log'}",
    }


def check_job(job: dict, shape, data: Path, first: bool) -> None:
    """Attach per-command failures and facts to the job. Only the first
    job's simulated speed CSV is parsed; check_determinism holds every
    other job to its digest."""
    job["failures"], job["facts"] = {}, {}
    if job["result"] is None:
        job["failures"] = {k: [job["error"]] for k in range(len(job["commands"]))}
        return
    out = Path(job["commands"][0][-1])
    for k, command in enumerate(job["result"]["commands"]):
        name = command["argv"][0]
        problems = [] if command["code"] == 0 else [f"{name} exited {command['code']}"]
        if not problems:
            try:
                problems, facts = _check_command(command["argv"], out, shape, data, first)
            except (ValueError, IndexError, OSError) as exc:
                problems, facts = [f"{name} outputs unreadable: {exc}"], {}
            job["facts"].update(facts)
        if problems:
            job["failures"][k] = problems


def _check_command(argv: list, out: Path, shape, data: Path, first: bool) -> tuple:
    if argv[0] == "train":
        return checks.check_train(out)
    if argv[0] == "eval":
        observed = np.load(data / "observed.npy")
        return checks.check_eval(out, checks.observed_test_labels(observed, shape.history))
    failures, facts = checks.check_simulate(out, shape.sensors, shape.metr_steps) if first else ([], {})
    return failures, dict(facts, speed_sha256=inputs.sha256(out / "speed.csv"))


# Facts that must repeat exactly, and the command whose output holds each.
DETERMINISTIC = {
    "checkpoint_sha256": "train", "history_sha256": "train",
    "speed_sha256": "simulate", "test_mae": "eval",
}


def check_determinism(jobs: list) -> None:
    """Same seed, same code: every job must reproduce the first job's
    checkpoint, history, simulated speeds and test MAE exactly. A mismatch
    fails the command that wrote the file."""
    reference = next((j["facts"] for j in jobs if not j["failures"]), None)
    if reference is None:
        return
    for job in jobs:
        for key, command in DETERMINISTIC.items():
            if key in reference and key in job["facts"] and job["facts"][key] != reference[key]:
                k = next(i for i, argv in enumerate(job["commands"]) if argv[0] == command)
                job["failures"].setdefault(k, []).append(f"{key} differs from the first job")


def span_time(spans: list, name: str) -> float:
    return sum(s[2] - s[1] for s in spans if s[0] == name)


def job_metrics(job: dict, shape) -> dict:
    """End-to-end and stage metrics of one successful job. job_s includes
    the package import (span 0), which the user pays on every command
    line; setup_s does not."""
    spans = job["result"]["spans"]
    metrics = {"job_s": spans[job["result"]["commands"][-1]["span"]][2] - spans[0][1],
               "peak_rss_mb": job["peak_rss_mb"]}
    setup = 0.0
    for command in job["result"]["commands"]:
        top = spans[command["span"]]
        stage = next((s for s in spans if s[3] == command["span"] and s[0] in STAGE_NAMES), None)
        setup += (stage[1] if stage else top[2]) - top[1]
        if command["argv"][0] == "eval" and stage:
            metrics["eval_s"] = top[2] - stage[1]
    metrics["setup_s"] = setup
    facts = job["facts"]
    if any(s[0] == "training.train" for s in spans) and "epochs" in facts:
        metrics["train_s"] = span_time(spans, "training.train")
        windows = checks.split_bounds(shape.train_steps)[0] - shape.history
        metrics["train_windows_per_s"] = facts["epochs"] * windows / metrics["train_s"]
    if "test_mae" in facts:
        metrics["test_mae"] = facts["test_mae"]
    return metrics


def layer_metrics(job: dict, facts: dict, untraced_job_s: float) -> dict:
    """Per-layer metrics of the traced job; layers that did not run read 0.
    `facts` are the checked facts of its outputs."""
    spans = job["result"]["spans"]
    counts = job["result"]["counts"]
    roots = {c["span"] for c in job["result"]["commands"]}
    job_s = spans[max(roots)][2] - spans[0][1]
    covered = sum(s[2] - s[1] for s in spans if s[3] in roots)
    m = {name: 0.0 for name in PER_LAYER}
    for name in PER_LAYER:
        if name[:-2] in SPAN_NAMES:
            m[name] = span_time(spans, name[:-2])
    m["cli.self_s"] = job_s - covered
    m["trace.coverage"] = covered / job_s
    m["trace.overhead_frac"] = job_s / untraced_job_s - 1.0
    if m["data.ingest_csv_s"]:
        m["data.ingest_mb_per_s"] = counts.get("data.ingest_bytes", 0) / 1e6 / m["data.ingest_csv_s"]
    if m["data.write_speed_csv_s"]:
        m["data.write_mb_per_s"] = counts.get("data.write_bytes", 0) / 1e6 / m["data.write_speed_csv_s"]
    m["data.windows"] = counts.get("data.windows", 0)
    m["data.zero_cells"] = facts.get("zero_cells", 0)
    m["models.forward_calls"] = sum(s[0] == "models.forward" for s in spans)
    m["evaluation.carry_forward_mae"] = facts.get("carry_forward_mae", 0.0)
    m["checkpoint.bytes"] = facts.get("checkpoint_bytes", 0)
    m["training.epochs"] = facts.get("epochs", 0)
    m["training.best_epoch"] = facts.get("best_epoch", 0)
    steps, skipped = training_steps(spans)
    m["training.steps"] = len(steps)
    m["training.skipped_batches"] = skipped
    if steps:
        m["training.step_ms_p50"], m["training.step_ms_p99"] = np.percentile(steps, [50, 99]) * 1e3
    return m


def training_steps(spans: list) -> tuple:
    """Durations of training steps, each from the batch stacking to the end
    of its Adam update, and the count of batches skipped in between."""
    trains = {i for i, s in enumerate(spans) if s[0] == "training.train"}
    steps, skipped, begun = [], 0, None
    for s in spans:
        if s[3] not in trains:
            continue
        if s[0] == "models.batch_from_samples":
            skipped += begun is not None
            begun = s[1]
        elif s[0] == "training.adam_step" and begun is not None:
            steps.append(s[2] - begun)
            begun = None
    return steps, skipped


def summarize(values: list) -> dict:
    """Median, and the highest percentile with at least ten jobs beyond it
    when there are enough jobs for one."""
    ordered = sorted(values)
    out = {"median": statistics.median(ordered), "jobs": len(ordered)}
    if len(ordered) >= 11:
        out[f"p{100 * (len(ordered) - 10) // len(ordered)}"] = ordered[-11]
    return out


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> str:
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(digests: dict) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "GRAPHMARKOV_THREADS": str(nproc()),
        "nproc": nproc(),
        "git_commit": git_commit(),
        "input_digests": digests,
    }


def _terminate(signum, frame):
    """SIGTERM unwinds like an exception, so run_job reaps its worker."""
    raise SystemExit(128 + signum)


def measure(args, shape, data: Path, budget_end: float) -> list:
    """The closed loop: untraced jobs until the next would end after
    --seconds (at least one), then one traced job when asked."""
    run_dir = WORK / "jobs" / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    jobs = []
    start = time.monotonic()
    while True:
        directory = run_dir / str(len(jobs))
        commands = job_commands(args.workload, args.seed, shape, data, directory / "out")
        jobs.append(run_job(directory, commands, False, budget_end))
        if jobs[-1]["result"] is None:
            return jobs
        if time.monotonic() - start + jobs[-1]["wall_s"] > args.seconds:
            break
    if args.trace:
        directory = run_dir / "traced"
        commands = job_commands(args.workload, args.seed, shape, data, directory / "out")
        jobs.append(run_job(directory, commands, True, budget_end))
    return jobs


def verify(jobs: list, shape, data: Path) -> None:
    """Check every job's outputs, then delete all but the first job's."""
    for k, job in enumerate(jobs):
        check_job(job, shape, data, first=not k)
        if k:
            shutil.rmtree(job["dir"] / "out", ignore_errors=True)
    check_determinism(jobs)


def print_report(report: dict, metrics: dict, path: Path) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  jobs {len(report['jobs'])}"
          f"  commands {report['attempted']}  failed {report['failed']}"
          f"  failed_frac {report['failed_frac']:g}")
    for name, stats in report["summary"].items():
        extra = "  ".join(f"{k} {v:.6g}" for k, v in stats.items() if k not in ("median", "jobs"))
        unit = END_TO_END.get(name) or PER_LAYER[name]
        print(f"  {name:<24}{stats['median']:>14.6g} {unit:<10}"
              f"median of {stats['jobs']} jobs  {extra}")
    if report["trace"]:
        for name, metric in metrics.items():
            print(f"  {name:<36}{metric['value']:>14.6g} {metric['unit']}")
    for where, problems in report["failures"].items():
        print(f"  FAILED {where}: {problems}")
    if report["absent"]:
        print(f"  absent from the package: {', '.join(report['absent'])}")
    print(f"  environment {json.dumps(report['environment'])}")
    print(f"  report {path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny shapes, for the benchmark's tests")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _terminate)
    budget_end = time.monotonic() + RUN_BUDGET_S - CHECK_RESERVE_S

    if not (PACKAGE / "graphmarkov" / "cli.py").is_file():
        print(f"error: no graphmarkov package under {PACKAGE.resolve()}; run from the repository root",
              file=sys.stderr)
        return 2
    shape = inputs.SMOKE if args.smoke else inputs.FULL
    kind = INPUT_KIND.get(args.workload)
    data, digests = (Path(), {}) if kind is None else inputs.inputs_for(
        WORK / "inputs", kind, args.seed, shape)

    jobs = measure(args, shape, data, budget_end)
    verify(jobs, shape, data)
    attempted = sum(len(j["commands"]) if j["result"] is None else len(j["result"]["commands"])
                    for j in jobs)
    failed = sum(len(j["failures"]) for j in jobs)
    untraced = [job_metrics(j, shape) for j in jobs if not j["failures"] and not j["trace"]]
    summary = {
        name: summarize([m[name] for m in untraced if name in m])
        for name in list(END_TO_END) + list(STAGE_METRICS)
        if any(name in m for m in untraced)
    }

    correct = failed == 0 and bool(untraced)
    metrics = {}
    if correct and args.trace:
        traced = next(j for j in jobs if j["trace"])
        # Outputs are identical across jobs, and only the first job's
        # simulated CSV was parsed.
        facts = dict(jobs[0]["facts"], **traced["facts"])
        layers = layer_metrics(traced, facts, summary["job_s"]["median"])
        layers.update({name: summary[name]["median"] for name in STAGE_METRICS if name in summary})
        metrics = {name: {"value": float(layers[name]), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    elif correct:
        metrics = {name: {"value": float(summary[name]["median"]), "unit": unit}
                   for name, unit in END_TO_END.items()}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "environment": environment(digests),
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "summary": summary,
        "failures": {str(j["dir"]): j["failures"] for j in jobs if j["failures"]},
        "absent": sorted({a for j in jobs if j["result"] for a in j["result"]["absent"]}),
        "jobs": [{"dir": str(j["dir"]), "trace": j["trace"], "wall_s": j["wall_s"],
                  "peak_rss_mb": j["peak_rss_mb"], "facts": j["facts"]} for j in jobs],
    }
    reports = WORK / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    stem = reports / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' * args.smoke}"
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1, default=str))
    spans = [[*s, run] for run, j in enumerate(jobs) if j["result"] for s in j["result"]["spans"]]
    stem.with_suffix(".spans.json").write_text(json.dumps(spans))

    print_report(report, metrics, stem.with_suffix(".json"))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
