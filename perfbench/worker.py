"""One benchmark job in a fresh process.

    python3 perfbench/worker.py JOB.json

JOB.json names the package source directory, the CLI argv of each command,
whether to trace, and where to write the result. The worker imports the
package first, so GRAPHMARKOV_THREADS caps the BLAS pool before numpy
loads, then calls `graphmarkov.cli.main` in-process once per command, the
way a user's shell would run them one after another. It stops at the first
command that fails. The package import (span 0) and each command are
top-level spans; the untraced run adds only the stage spans of
tracing.STAGES below the commands.
"""

import json
import sys
import traceback
from pathlib import Path

import tracing


def run(job: dict) -> dict:
    tracer = tracing.Tracer()
    span = tracer.open("cli.import")
    sys.path.insert(0, job["src"])
    import graphmarkov.cli as cli

    tracer.close(span)
    tracer.install(tracing.LAYERS if job["trace"] else tracing.STAGES)
    commands = []
    for argv in job["commands"]:
        index = len(tracer.spans)
        span = tracer.open(f"cli.{argv[0]}")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
        tracer.close(span)
        commands.append({"argv": argv, "code": code, "span": index})
        if code != 0:
            break
    return {
        "commands": commands,
        "spans": tracer.spans,
        "counts": tracer.counts,
        "absent": sorted(set(tracer.absent)),
    }


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    result = run(job)
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
