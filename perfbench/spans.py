"""Spans around fairdp's layers, and the per-layer metrics read from them.

A span is ``[name, start, end, parent, attrs]``: monotonic-clock seconds,
the index of the enclosing span (-1 at top level), and a small dict of
counts read from the call's arguments or result (or None). Spans are kept
in memory by a ``Tracer`` and written out once, when the worker ends.

Wrappers are installed on the name each caller looks up, not only on the
defining module: ``trainer`` imports ``per_sample_grads``,
``apply_strategy`` and ``forward`` by name, so those bindings get their own
wrapper, while ``metrics`` reaches the model through ``model.<name>``.
Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import statistics
import time

TOP = -1


class Tracer:
    """In-memory span list plus the stack of currently open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def add(self, name: str, start: float, end: float) -> None:
        """Record an already finished top-level span."""
        self.spans.append([name, start, end, TOP, None])

    def wrap(self, name: str, fn, describe=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.monotonic(), 0.0, stack[-1] if stack else TOP, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.monotonic()
            if describe is not None:
                spans[idx][4] = describe(args, result)
            return result

        return traced


# --------------------------------------------------------------------------
# what each wrapped call records besides its times


def _psg_attrs(args, result):
    spec, _, batch = args[:3]
    rows = int(batch.features.shape[0])
    return {"rows": rows, "bytes": rows * spec.param_count * 8}


def _clip_attrs(args, result):
    strategy = args[0]
    bound = getattr(strategy, "bound", None)
    return {
        "group_aware": bound is None,
        "ratio": result.sensitivity / (bound if bound is not None else strategy.base_bound),
        "clipped": [None if math.isnan(v) else float(v)
                    for v in result.report.clipped_fraction],
    }


def _train_attrs(args, result):
    from fairdp.clipping import NonPrivate

    return {"private": not isinstance(args[0].strategy, NonPrivate),
            "iterations": result.iterations_executed, "ledger": len(result.ledger)}


def _write_attrs(args, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute the caller looks up, span name, attrs reader)
PROBES = [
    ("fairdp.cli", "load_config", "cli.load_config", None),
    ("fairdp.cli", "build_dataset", "cli.build_dataset", None),
    ("fairdp.privacy", "to_epsilon", "privacy.to_epsilon", None),
]

LAYERS = PROBES + [
    ("fairdp.cli", "main", "cli.main", None),
    ("fairdp.cli", "dump_json", "cli.write", _write_attrs),
    ("fairdp.cli", "write_epochs_csv", "cli.write", _write_attrs),
    ("fairdp.cli", "save_params", "cli.write", _write_attrs),
    ("fairdp.dataio", "load_idx", "dataio.load_idx", None),
    ("fairdp.dataio", "synth_two_group", "dataio.synth_two_group", None),
    ("fairdp.dataio", "subsample_group", "dataio.subsample_group", None),
    ("fairdp.dataio", "fingerprint", "dataio.fingerprint", None),
    ("fairdp.dataio", "split", "dataio.split", None),
    ("fairdp.model", "per_sample_grads", "model.per_sample_grads", _psg_attrs),
    ("fairdp.trainer", "per_sample_grads", "model.per_sample_grads", _psg_attrs),
    ("fairdp.model", "forward", "model.forward", None),
    ("fairdp.trainer", "model_forward", "model.forward", None),
    ("fairdp.trainer", "apply_strategy", "clipping.apply_strategy", _clip_attrs),
    ("fairdp.privacy", "compose", "privacy.compose", None),
    ("fairdp.privacy", "rdp_subsampled_gaussian", "privacy.rdp_subsampled_gaussian", None),
    ("fairdp.trainer", "train", "trainer.train", _train_attrs),
    ("fairdp.trainer", "dp_step", "trainer.dp_step", None),
    ("fairdp.trainer", "sample_batch", "trainer.sample_batch", None),
    ("fairdp.trainer", "private_mean_gradient", "trainer.private_mean_gradient", None),
    ("fairdp.trainer", "group_train_stats", "trainer.group_train_stats", None),
    ("fairdp.metrics", "group_report", "metrics.group_report", None),
    ("fairdp.metrics", "privacy_impact", "metrics.privacy_impact", None),
    ("fairdp.metrics", "demographic_parity_gap", "metrics.fairness", None),
    ("fairdp.metrics", "equalized_odds_gaps", "metrics.fairness", None),
]


def install(tracer: Tracer, targets) -> None:
    for module_name, attr, span_name, describe in targets:
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.wrap(span_name, getattr(module, attr), describe))


# --------------------------------------------------------------------------
# reading spans back


def setup_seconds(spans) -> float:
    """Process start and imports, plus config parsing through dataset build.

    Each ``cli.build_dataset`` span is paired with the ``cli.load_config``
    span that started its command.
    """
    total = sum(s[2] - s[1] for s in spans if s[0] in ("process.start", "process.import"))
    config_start = None
    for name, start, end, _, _ in spans:
        if name == "cli.load_config":
            config_start = start
        elif name == "cli.build_dataset" and config_start is not None:
            total += end - config_start
            config_start = None
    return total


def count(spans, name: str) -> int:
    return sum(1 for s in spans if s[0] == name)


def top_level_seconds(spans) -> float:
    return sum(s[2] - s[1] for s in spans if s[3] == TOP)


LAYER_ORDER = ("dataio", "model", "clipping", "privacy", "trainer", "metrics", "cli", "trace")
CLIP_GROUPS = 10
PSG_PARENTS = {"trainer.dp_step": "step", "trainer.group_train_stats": "train_eval",
               "metrics.group_report": "test_report"}


def unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "self_s", "overhead_s"):
        return "s"
    if last.startswith("ms_"):
        return "ms"
    if "bytes" in name:
        return "bytes"
    if ".sensitivity_ratio." in name or name.endswith("coverage"):
        return "ratio"
    if ".clipped_fraction." in name:
        return "fraction"
    return "count"


def _quantile(values, q: float) -> float:
    """Linear-interpolated quantile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer numbers of one traced worker; see README.md for meanings."""
    calls: dict[str, int] = {}
    seconds: dict[str, float] = {}
    child_seconds: dict[int, float] = {}
    for name, start, end, parent, _ in spans:
        calls[name] = calls.get(name, 0) + 1
        seconds[name] = seconds.get(name, 0.0) + (end - start)
        if parent != TOP:
            child_seconds[parent] = child_seconds.get(parent, 0.0) + (end - start)

    out: dict[str, float] = {}
    for name in ("dataio.load_idx", "dataio.synth_two_group", "dataio.subsample_group",
                 "dataio.fingerprint", "dataio.split", "trainer.sample_batch",
                 "trainer.private_mean_gradient", "metrics.group_report",
                 "metrics.fairness", "metrics.privacy_impact", "cli.build_dataset",
                 "cli.write", "trainer.train"):
        out[f"{name}.s"] = seconds.get(name, 0.0)
    for name in ("model.per_sample_grads", "model.forward", "clipping.apply_strategy",
                 "privacy.compose", "privacy.rdp_subsampled_gaussian", "privacy.to_epsilon",
                 "trainer.group_train_stats"):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.s"] = seconds.get(name, 0.0)

    rows = 0
    computed = 0
    max_bytes = dict.fromkeys(PSG_PARENTS.values(), 0)
    ratios: list[float] = []
    clipped: list[list[float]] = [[] for _ in range(CLIP_GROUPS)]
    fits = {True: [0.0, 0, 0], False: [0.0, 0, 0]}   # seconds, iterations, ledger
    written = 0
    step_ms: list[float] = []
    step_self = 0.0
    for idx, (name, start, end, parent, attrs) in enumerate(spans):
        if name == "model.per_sample_grads":
            rows += attrs["rows"]
            computed += attrs["bytes"]
            role = PSG_PARENTS.get(spans[parent][0]) if parent != TOP else None
            if role is not None:
                max_bytes[role] = max(max_bytes[role], attrs["bytes"])
        elif name == "clipping.apply_strategy" and attrs["group_aware"]:
            ratios.append(attrs["ratio"])
            for k, value in enumerate(attrs["clipped"][:CLIP_GROUPS]):
                if value is not None:
                    clipped[k].append(value)
        elif name == "trainer.train":
            fit = fits[attrs["private"]]
            fit[0] += end - start
            fit[1] += attrs["iterations"]
            fit[2] += attrs["ledger"]
        elif name == "cli.write":
            written += attrs["bytes"]
        elif name == "trainer.dp_step":
            step_ms.append(1e3 * (end - start))
            step_self += (end - start) - child_seconds.get(idx, 0.0)

    out["model.per_sample_grads.rows"] = rows
    out["model.per_sample_grads.bytes_computed"] = computed
    for role, value in max_bytes.items():
        out[f"model.per_sample_grads.max_bytes.{role}"] = value
    out["clipping.sensitivity_ratio.p50"] = _quantile(ratios, 0.5)
    out["clipping.sensitivity_ratio.p99"] = _quantile(ratios, 0.99)
    out["clipping.sensitivity_ratio.max"] = max(ratios, default=0.0)
    for k, values in enumerate(clipped):
        out[f"clipping.clipped_fraction.g{k}"] = statistics.fmean(values) if values else 0.0
    out["privacy.ledger_events"] = fits[True][2]
    out["trainer.train.nonprivate.s"] = fits[False][0]
    out["trainer.train.private.s"] = fits[True][0]
    out["trainer.iterations_executed.nonprivate"] = fits[False][1]
    out["trainer.iterations_executed.private"] = fits[True][1]
    out["trainer.dp_step.calls"] = len(step_ms)
    out["trainer.dp_step.s"] = sum(step_ms) / 1e3
    out["trainer.dp_step.self_s"] = step_self
    out["trainer.dp_step.ms_p50"] = _quantile(step_ms, 0.5)
    out["trainer.dp_step.ms_p99"] = _quantile(step_ms, 0.99)
    out["cli.bytes_written"] = written
    out["trace.spans"] = len(spans)
    return dict(sorted(out.items(), key=lambda item: LAYER_ORDER.index(item[0].split(".")[0])))
