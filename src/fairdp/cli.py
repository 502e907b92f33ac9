"""Experiment front end: config parsing, orchestration, and reporting.

Subcommands: train, accountant, analyze, compare. Configs are
INI-style files with four sections ([dataset], [model], [training],
[report]) and the keys in ``CONFIG_KEYS``. Unknown sections or keys, and
unparsable or out-of-range values, are configuration errors (exit 2).
All outputs are UTF-8, CSVs carry header rows, and JSON files are dumped
with sorted keys and no timestamps, so rerunning a config reproduces every
artifact byte for byte.

Exit codes: 0 success, 2 configuration errors, 3 data errors, 4 numeric
aborts during training.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, dataio, metrics, privacy, trainer
from .clipping import GroupAdaptive, NaiveReweight, Uniform
from .errors import ConfigError, DataError, NumericError
from .model import ModelSpec, save_params
from .privacy import ACCOUNTING_ASSUMPTION

BASELINE_NAME = "nonprivate"

# strategy name -> its clipping strategy, built from the [training] section
STRATEGIES = {
    "dpsgd": lambda tr: Uniform(tr["clip"]),
    "naive": lambda tr: NaiveReweight(tr["clip"], tr["sigma1"]),
    "dpsgd-f": lambda tr: GroupAdaptive(tr["clip"], tr["sigma1"]),
}
STRATEGY_NAMES = tuple(STRATEGIES)


# --------------------------------------------------------------------------
# config parsing


# value domains: (test, how a message spells the values it accepts)
AT_LEAST_0 = (lambda v: v >= 0, ">= 0")
AT_LEAST_1 = (lambda v: v >= 1, ">= 1")
POSITIVE = (lambda v: v > 0, "> 0")
FINITE = (math.isfinite, "finite")
FINITE_AT_LEAST_0 = (lambda v: 0 <= v < math.inf, "finite and >= 0")
FINITE_POSITIVE = (lambda v: 0 < v < math.inf, "finite and > 0")
OPEN_UNIT = (lambda v: 0 < v < 1, "in (0, 1)")
HALF_OPEN_UNIT = (lambda v: 0 < v <= 1, "in (0, 1]")


def _check(value, domain, where: str, raw=None):
    """``value`` if it lies in ``domain``, else a ConfigError naming ``where``."""
    test, spelled = domain
    if not test(value):
        raise ConfigError(f"{where} must be {spelled}, got '{value if raw is None else raw}'")
    return value


def _check_bounded(plan: trainer.PrivacyPlan, names: dict) -> None:
    """A ConfigError unless some order of the plan's per-step curve bounds its
    planned iterations, so that epsilon is finite. At one sampling rate the
    smallest scale gives the largest curve, and the error names its release
    (the gradient noise on a tie) by ``names``, the key or flag of each kind."""
    with np.errstate(over="ignore"):
        if plan.curve is None or np.isfinite(plan.planned * plan.curve.eps_rdp).any():
            return
    kind, event = min(reversed(plan.releases), key=lambda release: release[1].noise_multiplier)
    raise ConfigError(f"{names[kind]} must be large enough for a finite epsilon over "
                      f"{plan.planned} iterations, got '{event.noise_multiplier!r}'")


def _parser(convert, expected: str, domain=None):
    """A key parser: ``convert(raw)``, with a KeyError, a ValueError or a NaN
    reported as ``"<where><expected>, got '<raw>'"``, then checked against
    ``domain`` when one is given."""
    def parse(raw, where):
        try:
            value = convert(raw)
            if value != value:  # NaN; inf is kept as Uniform's no-clip bound
                raise ValueError(raw)
        except (KeyError, ValueError):
            raise ConfigError(f"{where}{expected}, got '{raw}'") from None
        return value if domain is None else _check(value, domain, where, raw)
    return parse


def _number(convert, domain):
    """A parser of ints or floats, as ``convert`` is int or float."""
    return _parser(convert, ": expected an integer" if convert is int else ": expected a number",
                   domain)


def _choice(names: tuple, spelled: str):
    return _parser(str, "", (names.__contains__, spelled))


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
_parse_bool = _parser(lambda raw: _BOOLEANS[raw.lower()], ": expected a boolean")
_parse_text = _parser(str, "")
_parse_lr = _parser(lambda raw: raw if raw == trainer.INV_SQRT_TOTAL else float(raw),
                    ": expected a number",
                    (lambda v: isinstance(v, str) or 0 < v < math.inf,
                     f"finite and > 0, or {trainer.INV_SQRT_TOTAL}"))
_parse_dataset_kind = _choice(("synth", "census", "idx"), "synth, census, or idx")


def _parse_schema(raw: str, where: str) -> list[tuple[str, str]]:
    tokens = [token.strip() for token in raw.split(",") if token.strip()]
    if not tokens:
        raise ConfigError(f"{where}: empty schema")
    schema = []
    for token in tokens:
        name, sep, kind = token.partition(":")
        if not sep or kind.strip() not in (dataio.CATEGORICAL, dataio.NUMERIC):
            raise ConfigError(f"{where}: bad schema entry '{token}' "
                              "(want name:categorical or name:numeric)")
        schema.append((name.strip(), kind.strip()))
    return schema


REQUIRED = object()  # default of a key the config must give
UNSET = object()     # default of a key left out of the result when not given

# section -> key -> (parser, default, the dataset kind the key belongs to, or
# None for every kind). A section's keys are checked for presence and parsed
# in this order, so the first missing key named is the same on every run.
CONFIG_KEYS = {
    "dataset": {
        "kind": (_parse_dataset_kind, REQUIRED, None),
        "seed": (_number(int, AT_LEAST_0), REQUIRED, None),
        "split_fraction": (_number(float, OPEN_UNIT), 0.8, None),
        "n_major": (_number(int, AT_LEAST_1), REQUIRED, "synth"),
        "n_minor": (_number(int, AT_LEAST_1), REQUIRED, "synth"),
        "dim": (_number(int, AT_LEAST_1), REQUIRED, "synth"),
        "separation_major": (_number(float, FINITE), REQUIRED, "synth"),
        "separation_minor": (_number(float, FINITE), REQUIRED, "synth"),
        "path": (_parse_text, REQUIRED, "census"),
        "schema": (_parse_schema, REQUIRED, "census"),
        "header": (_parse_bool, True, "census"),
        "protected": (_parse_text, REQUIRED, "census"),
        "label": (_parse_text, REQUIRED, "census"),
        "protected_positive": (_parse_text, REQUIRED, "census"),
        "images": (_parse_text, REQUIRED, "idx"),
        "labels": (_parse_text, REQUIRED, "idx"),
        # the group index's upper bound needs the data: dataio.subsample_group
        "subsample_group": (_number(int, AT_LEAST_0), UNSET, None),
        "subsample_size": (_number(int, AT_LEAST_1), UNSET, None),
    },
    "model": {
        "kind": (_choice(("softmax", "mlp"), "softmax or mlp"), REQUIRED, None),
        "hidden": (_number(int, AT_LEAST_1), 0, None),
        "l2": (_number(float, FINITE_AT_LEAST_0), 0.0, None),
    },
    "training": {
        "strategy": (_choice(STRATEGY_NAMES, f"one of {STRATEGY_NAMES}"), REQUIRED, None),
        "clip": (_number(float, POSITIVE), REQUIRED, None),
        "sigma2": (_number(float, FINITE_AT_LEAST_0), REQUIRED, None),
        "sigma1": (_number(float, FINITE_AT_LEAST_0), UNSET, None),
        "sigma1_ratio": (_number(float, FINITE_AT_LEAST_0), 10.0, None),
        "lr": (_parse_lr, REQUIRED, None),
        "batch_size": (_number(int, AT_LEAST_1), REQUIRED, None),
        "epochs": (_number(int, AT_LEAST_1), REQUIRED, None),
        "delta": (_number(float, HALF_OPEN_UNIT), REQUIRED, None),
        "seed": (_number(int, AT_LEAST_0), REQUIRED, None),
        "budget_target": (_number(float, POSITIVE), None, None),
        "eval_every": (_number(int, AT_LEAST_1), 1, None),
    },
    "report": {
        "out_dir": (_parse_text, REQUIRED, None),
        "tau": (_number(float, FINITE_AT_LEAST_0), 0.05, None),
        # the class's upper bound needs the data: cmd_train
        "positive_class": (_number(int, AT_LEAST_0), 1, None),
    },
}


def _section(parser: configparser.ConfigParser, name: str, kind=None) -> dict:
    """Check and parse one section against its keys in ``CONFIG_KEYS``."""
    keys = {key: (parse, default) for key, (parse, default, key_kind)
            in CONFIG_KEYS[name].items() if key_kind in (None, kind)}
    raw = dict(parser.items(name))
    for key in raw:
        if key not in keys:
            raise ConfigError(f"unknown key '{key}' in [{name}]")
    for key, (_, default) in keys.items():
        if default is REQUIRED and key not in raw:
            raise ConfigError(f"missing key '{key}' in [{name}]")
    return {key: parse(raw[key], f"[{name}] {key}") if key in raw else default
            for key, (parse, default) in keys.items() if key in raw or default is not UNSET}


def load_config(path) -> dict:
    """Parse and validate an experiment config file into nested dicts."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config '{path}': {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config '{path}': {exc}") from exc

    for section in parser.sections():
        if section not in CONFIG_KEYS:
            raise ConfigError(f"unknown section [{section}]")
    for section in CONFIG_KEYS:
        if not parser.has_section(section):
            raise ConfigError(f"missing section [{section}]")

    kind = _parse_dataset_kind(parser["dataset"].get("kind"), "[dataset] kind")
    dataset = _section(parser, "dataset", kind)
    model = _section(parser, "model")
    training = _section(parser, "training")
    report = _section(parser, "report")

    # the rules that tie keys together; each value's own domain is checked above
    training.setdefault("sigma1", training.pop("sigma1_ratio") * training["sigma2"])
    strategy, sigma1, sigma2 = (training[key] for key in ("strategy", "sigma1", "sigma2"))
    if ("subsample_group" in dataset) != ("subsample_size" in dataset):
        raise ConfigError("[dataset] subsample_group and subsample_size go together")
    if (model["kind"] == "mlp") != (model["hidden"] > 0):
        raise ConfigError("[model] hidden must be given if and only if [model] kind is mlp")
    if training["clip"] == math.inf and (strategy != "dpsgd" or sigma2 > 0):
        raise ConfigError("[training] clip = inf needs [training] strategy = dpsgd and "
                          "[training] sigma2 = 0")
    if not math.isfinite(sigma1):
        raise ConfigError("[training] sigma1_ratio * [training] sigma2 must be finite, "
                          f"got {sigma1}")
    # both noise scales at 0 is the non-private equivalence run
    if strategy != "dpsgd" and (sigma1 > 0) != (sigma2 > 0):
        raise ConfigError(f"[training] strategy = {strategy} needs [training] sigma1 (default "
                          "[training] sigma1_ratio * sigma2) and [training] sigma2 both > 0 "
                          f"or both 0, got sigma1 {sigma1} and sigma2 {sigma2}")
    if training["budget_target"] is not None and sigma2 == 0:
        raise ConfigError("[training] budget_target needs [training] sigma2 > 0")
    return {"dataset": dataset, "model": model, "training": training, "report": report}


# --------------------------------------------------------------------------
# builders


def build_dataset(ds_cfg: dict):
    """Materialize the configured dataset, then subsample and split it.

    The dataset seed drives generation; seed+1 drives the subsample and
    seed+2 the split, so the three stages stay independently reproducible.
    Returns (train, test, fingerprint); the unsplit dataset is not kept.
    """
    kind, seed = ds_cfg["kind"], ds_cfg["seed"]
    if kind == "synth":
        data = dataio.synth_two_group(ds_cfg["n_major"], ds_cfg["n_minor"],
                                      ds_cfg["dim"], ds_cfg["separation_major"],
                                      ds_cfg["separation_minor"], seed)
    elif kind == "census":
        table = dataio.load_census_csv(ds_cfg["path"], ds_cfg["schema"],
                                       header=ds_cfg["header"])
        data = dataio.preprocess_census(table, ds_cfg["protected"], ds_cfg["label"],
                                        ds_cfg["protected_positive"])
    else:
        data = dataio.load_idx(ds_cfg["images"], ds_cfg["labels"])
    if "subsample_group" in ds_cfg:
        data = dataio.subsample_group(data, dataio.ImbalanceSpec(
            ds_cfg["subsample_group"], ds_cfg["subsample_size"], seed + 1))
    digest = dataio.fingerprint(data)
    train_data, test_data = dataio.split(data, ds_cfg["split_fraction"], seed + 2)
    return train_data, test_data, digest


def build_model_spec(md_cfg: dict, input_dim: int, num_classes: int) -> ModelSpec:
    if md_cfg["kind"] == "softmax":
        return ModelSpec.softmax(input_dim, num_classes, md_cfg["l2"])
    return ModelSpec.mlp(input_dim, md_cfg["hidden"], num_classes, md_cfg["l2"])


# --------------------------------------------------------------------------
# artifact writing


def _sanitize(obj):
    """Make an object JSON-safe: numpy scalars to Python, non-finite to None."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def dump_json(path, obj) -> None:
    Path(path).write_text(json.dumps(_sanitize(obj), sort_keys=True, indent=2) + "\n",
                          encoding="utf-8")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and not math.isfinite(value):
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def write_epochs_csv(path, logs, group_names, strategy: str) -> None:
    # the clip cells come from the last step's release; ``bound`` is C_g,
    # except that naive runs print their weights w_g
    bound = "weights" if strategy == "naive" else "bounds"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "group", "mean_loss", "mean_grad_norm",
                         "train_accuracy", "bound", "above_noised", "size_noised",
                         "clipped_fraction", "epsilon"])
        for log in logs:
            release = log.release
            clip = ((None,) * 4 if release is None else
                    (getattr(release, bound), release.above_noised, release.sizes_noised,
                     release.clipped_fraction))
            for k, name in enumerate(group_names):
                cells = [None if values is None else float(values[k]) for values in
                         (log.mean_loss, log.mean_grad_norm, log.train_accuracy, *clip)]
                writer.writerow([log.epoch, name, *map(_cell, cells), _cell(log.epsilon)])


def _sizes_by_name(data) -> dict:
    return {name: int(size) for name, size in zip(data.group_names, data.group_sizes())}


def _report_dict(report: metrics.GroupReport) -> dict:
    return {
        "overall_accuracy": report.overall_accuracy,
        "groups": [
            {"name": name, "accuracy": float(report.accuracy[k]),
             "mean_loss": float(report.mean_loss[k]), "count": int(report.counts[k])}
            for k, name in enumerate(report.group_names)
        ],
    }


def _fairness_dict(predictions, test_data, positive_class) -> dict:
    dp_gap = metrics.demographic_parity_gap(predictions, test_data, positive_class)
    tpr_gap, fpr_gap = metrics.equalized_odds_gaps(predictions, test_data, positive_class)
    return {"demographic_parity_gap": dp_gap, "tpr_gap": tpr_gap, "fpr_gap": fpr_gap,
            "positive_class": positive_class}


# --------------------------------------------------------------------------
# subcommands


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    tr = cfg["training"]
    train_data, test_data, digest = build_dataset(cfg["dataset"])
    spec = build_model_spec(cfg["model"], train_data.dim, train_data.num_classes)
    config = trainer.TrainConfig(
        model=spec, strategy=STRATEGIES[tr["strategy"]](tr),
        noise_multiplier=tr["sigma2"], lr=tr["lr"], batch_size=tr["batch_size"],
        epochs=tr["epochs"], delta=tr["delta"], seed=tr["seed"],
        budget_target=tr["budget_target"], eval_every=tr["eval_every"])
    positive_class = cfg["report"]["positive_class"]
    if not 0 <= positive_class < train_data.num_classes:
        raise ConfigError(f"[report] positive_class {positive_class} out of range")
    if tr["batch_size"] > train_data.n:
        raise ConfigError(f"[training] batch_size exceeds the {train_data.n} training rows")
    _check_bounded(config.plan(train_data.n), {"gradient-noise": "[training] sigma2",
                                               "count-noise": "[training] sigma1"})
    # fail on an empty group in either split before any fit
    metrics.evaluation_counts(train_data, "the training split")
    metrics.evaluation_counts(test_data)

    baseline = trainer.train_nonprivate(config, train_data, test_data)
    private = trainer.train(config, train_data, test_data)

    # echo the experiment parameters, not the output location, so a run
    # relocated to another directory produces byte-identical artifacts
    echo = dict(cfg)
    echo["report"] = {k: v for k, v in cfg["report"].items() if k != "out_dir"}

    out = Path(cfg["report"]["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    for name, result in ((BASELINE_NAME, baseline), (tr["strategy"], private)):
        fairness = _fairness_dict(result.test_report.predictions, test_data, positive_class)
        run_dir = out / name
        run_dir.mkdir(parents=True, exist_ok=True)
        run = {
            "strategy": name,
            "config": echo,
            "dataset_fingerprint": digest,
            "accounting_assumption": ACCOUNTING_ASSUMPTION,
            "delta": tr["delta"],
            "epsilon": result.final_epsilon,
            "best_order": result.final_best_order,
            "iterations_executed": result.iterations_executed,
            "iterations_planned": result.iterations_planned,
            "learning_rate": result.learning_rate,
            "event_kinds": list(result.event_kinds),
            "train_sizes": _sizes_by_name(train_data),
            "test_sizes": _sizes_by_name(test_data),
            "test_report": _report_dict(result.test_report),
        }
        dump_json(run_dir / "run.json", run)
        write_epochs_csv(run_dir / "epochs.csv", result.epoch_logs,
                         train_data.group_names, name)
        save_params(run_dir / "params.bin", spec, result.params)
        dump_json(run_dir / "fairness.json", fairness)

    impact = metrics.privacy_impact(private.test_report, baseline.test_report,
                                    cfg["report"]["tau"])
    impact_obj = {
        "tau": impact.tau,
        "delta_by_group": {name: float(impact.delta[k])
                           for k, name in enumerate(impact.group_names)},
        "overall_delta": private.test_report.overall_accuracy
                         - baseline.test_report.overall_accuracy,
        "max_pairwise_gap": impact.max_pairwise_gap,
        "passes": impact.passes,
    }
    dump_json(out / "impact.json", impact_obj)
    print(json.dumps(_sanitize({
        "out_dir": str(out), "epsilon": private.final_epsilon,
        "iterations": private.iterations_executed,
        "max_pairwise_gap": impact.max_pairwise_gap, "passes": impact.passes,
    }), sort_keys=True))
    return 0


def cmd_accountant(args) -> int:
    batch_sizes = (lambda b: 1 <= b <= args.n, "in [1, --n]")
    for flag, value, domain in (("--n", args.n, AT_LEAST_1),
                                ("--batch-size", args.batch_size, batch_sizes),
                                ("--epochs", args.epochs, AT_LEAST_1),
                                ("--sigma", args.sigma, FINITE_POSITIVE),
                                ("--delta", args.delta, HALF_OPEN_UNIT)):
        _check(value, domain, flag)
    if args.sigma1 is not None:
        _check(args.sigma1, FINITE_POSITIVE, "--sigma1")
    plan = trainer.privacy_plan(args.n, args.batch_size, args.epochs, args.sigma1 or 0.0,
                                args.sigma)
    _check_bounded(plan, {"gradient-noise": "--sigma", "count-noise": "--sigma1"})
    epsilon, best_order = privacy.to_epsilon(plan.curve, args.delta, plan.planned)
    print(json.dumps(_sanitize({
        "epsilon": epsilon, "best_order": best_order, "iterations": plan.planned,
        "sampling_rate": plan.sampling_rate, "delta": args.delta, "noise_multiplier": args.sigma,
        "count_noise_std": args.sigma1,
        "accounting_assumption": ACCOUNTING_ASSUMPTION,
    }), sort_keys=True))
    return 0


def cmd_analyze(args) -> int:
    _check(args.clip, FINITE_POSITIVE, "--clip")
    _check(args.eps, FINITE_POSITIVE, "--eps")
    norms, groups = [], []
    try:
        fh = open(args.norms_csv, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open '{args.norms_csv}': {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or \
                not {"norm", "group"} <= set(reader.fieldnames):
            raise DataError("norms CSV needs 'norm' and 'group' columns")
        for i, row in enumerate(reader, start=2):
            try:
                norms.append(float(row["norm"]))
                groups.append(int(row["group"]))
            except (TypeError, ValueError):
                raise DataError(f"line {i}: bad norm/group values") from None
            if not 0.0 <= norms[-1] < math.inf:
                raise DataError(f"line {i}: norm must be finite and non-negative")
            if groups[-1] < 0:
                raise DataError(f"line {i}: group must be non-negative")
    if not norms:
        raise DataError("norms CSV has no data rows")
    try:
        bounds = analysis.cost_bounds(np.asarray(norms), np.asarray(groups),
                                      args.clip, args.eps)
    except ValueError as exc:  # a group with no rows; clip and eps are checked above
        raise DataError(str(exc)) from None
    pooled = None
    if len(norms) * args.eps > 1.0:
        pooled = analysis.optimal_clip(np.asarray(norms), len(norms), args.eps)
    print(json.dumps(_sanitize({
        "clip": args.clip, "eps": args.eps,
        "groups": [dataclasses.asdict(b) for b in bounds],
        "optimal_clip": pooled,
    }), sort_keys=True, indent=2))
    return 0


@contextlib.contextmanager
def _run_file(path: Path):
    """Report a run file that is not JSON, or lacks a field that ``compare``
    reads, as a DataError naming the file."""
    try:
        yield
    except (OSError, ValueError) as exc:  # ValueError covers JSON and UTF-8 decoding
        raise DataError(f"cannot read '{path}': {exc}") from None
    except (KeyError, TypeError, AttributeError) as exc:
        raise DataError(f"malformed run file '{path}': missing or bad field {exc}") from None


def _read_run(path: Path) -> dict:
    """The fields of a ``run.json`` that ``compare`` tabulates."""
    with _run_file(path):
        run = json.loads(path.read_text(encoding="utf-8"))
        report = run["test_report"]
        return {"path": path, "strategy": run["strategy"], "epsilon": run["epsilon"],
                "iterations": run["iterations_executed"],
                "fingerprint": run["dataset_fingerprint"], "test_report": report,
                "overall_accuracy": report["overall_accuracy"],
                "accuracy": {g["name"]: g["accuracy"] for g in report["groups"]}}


def _read_impact(path: Path) -> dict:
    with _run_file(path):
        impact = json.loads(path.read_text(encoding="utf-8"))
        return {"path": path, "delta": dict(impact["delta_by_group"]),
                "overall_delta": impact["overall_delta"],
                "max_pairwise_gap": impact["max_pairwise_gap"]}


def _load_run_dir(path: Path) -> dict:
    if not path.is_dir():
        raise DataError(f"missing run directory: {path}")
    baseline_file = path / BASELINE_NAME / "run.json"
    impact_file = path / "impact.json"
    private_files = [p / "run.json" for p in sorted(path.iterdir())
                     if p.is_dir() and p.name != BASELINE_NAME
                     and (p / "run.json").exists()]
    if not baseline_file.exists() or not impact_file.exists() or len(private_files) != 1:
        raise DataError(f"not a completed run directory: {path}")
    return {"dir": path, "baseline": _read_run(baseline_file),
            "private": _read_run(private_files[0]), "impact": _read_impact(impact_file)}


def cmd_compare(args) -> int:
    runs = [_load_run_dir(Path(d)) for d in args.run_dirs]
    digests = {str(r[side]["fingerprint"]) for r in runs for side in ("private", "baseline")}
    if len(digests) != 1:
        raise DataError(f"dataset fingerprint mismatch across runs: {sorted(digests)}")

    # every private row's deltas come from its own baseline, so the one sgd
    # row stands for all of them only if they are the same fit
    baseline = runs[0]["baseline"]
    for run in runs[1:]:
        if (run["baseline"]["iterations"], run["baseline"]["test_report"]) != \
                (baseline["iterations"], baseline["test_report"]):
            raise DataError(f"runs '{runs[0]['dir']}' and '{run['dir']}' have different "
                            f"{BASELINE_NAME} baselines (iterations or test report)")
    names = list(baseline["accuracy"])

    no_impact = {"path": None, "delta": dict.fromkeys(names, 0.0),
                 "overall_delta": 0.0, "max_pairwise_gap": 0.0}

    def table_row(label, epsilon, run, impact):
        with _run_file(run["path"]):
            accs = [run["accuracy"][n] for n in names]
        with _run_file(impact["path"]):
            deltas = [impact["delta"][n] for n in names]
        return ([label, epsilon, run["iterations"], run["overall_accuracy"]] + accs
                + [impact["overall_delta"]] + deltas + [impact["max_pairwise_gap"]])

    header = (["strategy", "epsilon", "iterations", "accuracy_total"]
              + [f"accuracy_{n}" for n in names] + ["delta_total"]
              + [f"delta_{n}" for n in names] + ["max_gap"])
    rows = [table_row("sgd", None, baseline, no_impact)]
    rows += [table_row(r["private"]["strategy"], r["private"]["epsilon"], r["private"],
                       r["impact"]) for r in runs]

    def write_table(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) if isinstance(v, (float, type(None))) else v
                             for v in row])

    write_table(sys.stdout)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "compare.csv", "w", newline="", encoding="utf-8") as fh:
            write_table(fh)
        dump_json(out / "compare.json",
                  [dict(zip(header, row)) for row in rows])
    return 0


# --------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairdp",
        description="Differentially private SGD experiments with per-group "
                    "privacy-impact reporting.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train baseline and private models per config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("accountant", help="privacy budget for given hyperparameters")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--batch-size", type=int, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--sigma1", type=float, default=None,
                   help="optional count-noise std accounted alongside each step")
    p.set_defaults(func=cmd_accountant)

    p = sub.add_parser("analyze", help="per-group cost-of-privacy bounds from a norms CSV")
    p.add_argument("--norms-csv", required=True, help="CSV with 'norm' and 'group' columns")
    p.add_argument("--clip", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", help="tabulate completed run directories")
    p.add_argument("run_dirs", nargs="+")
    p.add_argument("--out", default=None, help="also write compare.csv/compare.json here")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
