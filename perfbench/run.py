"""fairdp's benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload desk-pair --seed 0 --seconds 20 --trace 0

It finds the checkout from its own location and imports the package from
``src/``; there is nothing to build. Each operation runs in a fresh worker
process, one at a time, with BLAS pinned to the CPUs this process may use.
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced operations and prints the per-layer metrics
of the traced ones, with the tracing overhead and coverage. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.

Scratch files go under ``.perfbench-work/`` and are removed at exit. A
summary of the run, and the spans of its last traced operation, are kept
in ``.perfbench-out/``. README.md says what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
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

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0           # the whole run must end within 180 s
COVERAGE_TOLERANCE = 0.10    # top-level spans vs wall time of a traced operation

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "train_samples_per_s": "1/s",
                    "epsilon_evals_per_s": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_name(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def tree_digests(directory: Path) -> dict[str, str]:
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def wait_with_deadline(proc: subprocess.Popen, seconds: float):
    """Block in wait4 (exact end time, the child's own rusage); kill at the deadline."""
    def kill(signum, frame):
        proc.kill()

    previous = signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.5))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


class Runner:
    """Runs operations of one workload and keeps what each one measured."""

    def __init__(self, workload, work: Path, env: dict):
        self.workload = workload
        self.work = work
        self.env = env
        self.ops: list[dict] = []
        self.reference_digests = None
        self.last_spans = None

    def run_op(self, traced: bool, seconds_left: float) -> dict:
        workload = self.workload
        op_dir = self.work / f"op{len(self.ops)}"
        op_dir.mkdir()
        workload.prepare(op_dir)
        job, result_path = op_dir / "job.json", op_dir / "result.json"
        with open(op_dir / "stderr.txt", "wb") as err:
            spawned = time.monotonic()
            job.write_text(json.dumps({"commands": workload.commands, "trace": traced,
                                       "spawned": spawned, "result": str(result_path)}))
            proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(job)],
                                    cwd=op_dir, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            usage = wait_with_deadline(proc, seconds_left)
            ended = time.monotonic()

        op = {"traced": traced, "wall_s": ended - spawned, "peak_rss_mb": usage.ru_maxrss / 1024,
              "user_s": usage.ru_utime, "sys_s": usage.ru_stime}
        self.ops.append(op)
        operations = 1 if workload.training else len(workload.commands)
        op.update(attempted=operations, failed=operations)
        if proc.returncode != 0 or not result_path.exists():
            tail = (op_dir / "stderr.txt").read_text(errors="replace").strip().splitlines()
            op["failures"] = [f"worker exited {proc.returncode}: {' | '.join(tail[-3:])}"]
            return op

        result = json.loads(result_path.read_text())
        outputs = list(zip(workload.commands, result["commands"]))
        try:
            attempted, failed, failures = workload.check(op_dir, outputs)
            if len(outputs) != len(workload.commands):
                failed, failures = operations, [f"{len(outputs)} of {operations} commands ran"]
            if not failed:
                failures += self.compare_artifacts(op_dir)
        except Exception as exc:  # malformed output fails the operation, not the run
            op["failures"] = [f"output check raised {exc!r}"]
            return op
        op.update(attempted=attempted, failed=max(failed, int(bool(failures))),
                  failures=failures)
        if op["failed"]:
            return op

        op_spans = result["spans"]
        op.update(setup_s=spans.setup_seconds(op_spans),
                  evals=spans.count(op_spans, "privacy.to_epsilon"),
                  samples=workload.samples(op_dir),
                  top_level_s=spans.top_level_seconds(op_spans))
        if traced:
            op["layers"] = spans.layer_metrics(op_spans)
            self.last_spans = op_spans
        shutil.rmtree(op_dir)
        return op

    def compare_artifacts(self, op_dir: Path) -> list[str]:
        """Every artifact must match, byte for byte, the run's first operation."""
        if not self.workload.training:
            return []
        digests = tree_digests(op_dir / "runs")
        if self.reference_digests is None:
            self.reference_digests = digests
        changed = sorted(k for k in digests.keys() | self.reference_digests.keys()
                         if digests.get(k) != self.reference_digests.get(k))
        return [f"artifacts differ from the first operation: {changed}"] if changed else []


def end_to_end(ops) -> dict[str, list[float]]:
    """Per-operation samples of every end-to-end metric."""
    samples = {name: [] for name in END_TO_END_UNITS}
    for op in ops:
        busy = op["wall_s"] - op["setup_s"]
        samples["wall_s"].append(op["wall_s"])
        samples["setup_s"].append(op["setup_s"])
        samples["train_samples_per_s"].append(op["samples"] / busy)
        samples["epsilon_evals_per_s"].append(op["evals"] / busy)
        samples["peak_rss_mb"].append(op["peak_rss_mb"])
    return samples


def per_layer(traced, untraced) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    for op in traced:
        for name, value in op["layers"].items():
            samples.setdefault(name, []).append(value)
    untraced_wall = statistics.median(op["wall_s"] for op in untraced)
    samples["trace.overhead_s"] = [statistics.median(op["wall_s"] for op in traced)
                                   - untraced_wall]
    samples["trace.coverage"] = [statistics.median(op["top_level_s"] for op in traced)
                                 / untraced_wall]
    samples["trace.self_coverage"] = [op["top_level_s"] / op["wall_s"] for op in traced]
    return samples


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "fairdp" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"perfbench: {ROOT} holds no fairdp checkout (src/fairdp, configs/)",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(1, str(ROOT / "src"))
    # numpy reads the thread variables when it loads, so import it only now
    import numpy
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload '{args.workload}'; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    env = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "nproc": os.cpu_count(), "blas_threads": threads, "numpy": numpy.__version__,
           "blas": blas_name(numpy), "python": platform.python_version(),
           "run_seconds": args.seconds}
    work = ROOT / ".perfbench-work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, work, args.seed)
        runner = Runner(workload, work, dict(os.environ))
        measuring = time.monotonic()
        while True:
            traced = bool(args.trace) and len(runner.ops) % 2 == 1
            op = runner.run_op(traced, DEADLINE_S - (time.monotonic() - started))
            if op["failed"] \
                    or time.monotonic() - started + 1.5 * op["wall_s"] >= DEADLINE_S:
                break
            if time.monotonic() - measuring >= args.seconds \
                    and len(runner.ops) >= workload.min_ops:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any((ROOT / ".perfbench-work").iterdir()):
            (ROOT / ".perfbench-work").rmdir()

    ops = runner.ops
    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    failures = [f for op in ops for f in op["failures"]]
    measured = [op for op in ops if not op["failed"]]
    untraced = [op for op in measured if not op["traced"]]
    traced = [op for op in measured if op["traced"]]
    if args.trace:
        if not (traced and untraced):
            samples, units = {}, {}
        else:
            samples = per_layer(traced, untraced)
            units = {name: spans.unit(name) for name in samples}
            # Gated on each traced operation's own wall time: the untraced
            # operations ran at other moments, and this machine's speed
            # drifts by more than the tolerance within a minute.
            for coverage in samples["trace.self_coverage"]:
                if workload.training and abs(coverage - 1.0) > COVERAGE_TOLERANCE:
                    failures.append(f"top-level spans cover {coverage:.3f} of the wall time")
                    failed = min(attempted, failed + 1)
    else:
        samples = end_to_end(untraced) if untraced else {}
        units = END_TO_END_UNITS

    # counts are reported as a value that was observed, not as a midpoint
    metrics = {name: {"value": (statistics.median_low if units[name] in ("count", "bytes")
                                else statistics.median)(values),
                      "unit": units[name]}
               for name, values in samples.items()}
    print("env " + json.dumps(env, sort_keys=True))
    for name, values in samples.items():
        print(f"{name:48s} {metrics[name]['value']:14.6g} {units[name]:8s} "
              f"median of {len(values)} (min {min(values):.6g}, max {max(values):.6g})")
    print(f"{'failed_frac':48s} {failed / max(attempted, 1):14.6g} {'':8s} "
          f"{failed} of {attempted} operations")
    for failure in failures[:20]:
        print(f"FAILED {failure}")

    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    summary = {"env": env, "metrics": metrics, "attempted": attempted, "failed": failed,
               "failures": failures,
               "ops": [{k: v for k, v in op.items() if k != "layers"} for op in ops]}
    (out / f"{stem}.json").write_text(json.dumps(summary, indent=1, sort_keys=True))
    if runner.last_spans is not None:
        (out / f"{stem}-spans.json").write_text(json.dumps(runner.last_spans))

    correct = bool(metrics) and failed == 0 and not failures
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
