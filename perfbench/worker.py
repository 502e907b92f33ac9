"""One workload operation in a fresh process: a list of ``fairdp`` commands.

    python3 worker.py JOB.json

The job file names the commands (``fairdp.cli.main`` argument lists), the
monotonic time at which the parent spawned this process, whether to trace
every layer or only the set-up probes, and where to write the result.
Each command's standard output is captured and handed back for checking.
The working directory is the operation's own directory.
"""

import time

T_FIRST = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(1, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from fairdp import cli  # noqa: E402

import spans  # noqa: E402

T_IMPORTED = time.monotonic()


def run_command(argv) -> dict:
    out = io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # reported to the parent, which counts the failure
        rc = None
        error = traceback.format_exc()
    return {"rc": rc, "stdout": out.getvalue(), "error": error}


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    tracer = spans.Tracer()
    tracer.add("process.start", job["spawned"], T_FIRST)
    tracer.add("process.import", T_FIRST, T_IMPORTED)
    spans.install(tracer, spans.LAYERS if job["trace"] else spans.PROBES)
    results = [run_command(argv) for argv in job["commands"]]
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump({"commands": results, "spans": tracer.spans}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
