"""Experiment front end: config parsing, orchestration, and reporting.

Subcommands: prepare-data, train, accountant, analyze, compare. Configs are
INI-style files with four sections ([dataset], [model], [training],
[report]); unknown sections or keys are rejected before any work starts.
All outputs are UTF-8, CSVs carry header rows, and JSON files are dumped
with sorted keys and no timestamps, so rerunning a config reproduces every
artifact byte for byte.

Exit codes: 0 success, 2 configuration errors, 3 data errors, 4 numeric
aborts during training.
"""

from __future__ import annotations

import argparse
import configparser
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
from .privacy import ACCOUNTING_ASSUMPTION, MechanismEvent, PrivacyLedger

STRATEGY_NAMES = ("dpsgd", "naive", "dpsgd-f")
BASELINE_NAME = "nonprivate"


# --------------------------------------------------------------------------
# config parsing


def _parse_bool(raw: str, where: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got '{raw}'")


def _parse_int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected an integer, got '{raw}'") from None


def _parse_float(raw: str, where: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got '{raw}'") from None


def _parse_schema(raw: str, where: str) -> list[tuple[str, str]]:
    schema = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        name, sep, kind = token.partition(":")
        if not sep or kind.strip() not in (dataio.CATEGORICAL, dataio.NUMERIC):
            raise ConfigError(f"{where}: bad schema entry '{token}' "
                              "(want name:categorical or name:numeric)")
        schema.append((name.strip(), kind.strip()))
    if not schema:
        raise ConfigError(f"{where}: empty schema")
    return schema


_DATASET_KEYS = {
    "common": {"kind", "seed", "split_fraction", "subsample_group", "subsample_size"},
    "synth": {"n_major", "n_minor", "dim", "separation_major", "separation_minor"},
    "census": {"path", "schema", "header", "protected", "label", "protected_positive"},
    "idx": {"images", "labels"},
}

_MODEL_KEYS = {"kind", "hidden", "l2"}
_TRAINING_KEYS = {"strategy", "clip", "sigma2", "sigma1", "sigma1_ratio", "lr",
                  "batch_size", "epochs", "delta", "seed", "budget_target",
                  "eval_every"}
_REPORT_KEYS = {"out_dir", "tau", "positive_class"}


def _check_keys(section: str, raw: dict, allowed: set, required: set) -> None:
    for key in raw:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in [{section}]")
    for key in required:
        if key not in raw:
            raise ConfigError(f"missing key '{key}' in [{section}]")


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

    known_sections = {"dataset", "model", "training", "report"}
    for section in parser.sections():
        if section not in known_sections:
            raise ConfigError(f"unknown section [{section}]")
    for section in ("dataset", "model", "training", "report"):
        if not parser.has_section(section):
            raise ConfigError(f"missing section [{section}]")

    ds_raw = dict(parser.items("dataset"))
    kind = ds_raw.get("kind")
    if kind not in ("synth", "census", "idx"):
        raise ConfigError(f"[dataset] kind must be synth, census, or idx, got '{kind}'")
    allowed = _DATASET_KEYS["common"] | _DATASET_KEYS[kind]
    required = {"kind", "seed"} | _DATASET_KEYS[kind]
    if kind == "census":
        required = required - {"header"}
    _check_keys("dataset", ds_raw, allowed, required)
    dataset = {"kind": kind, "seed": _parse_int(ds_raw["seed"], "[dataset] seed"),
               "split_fraction": _parse_float(ds_raw.get("split_fraction", "0.8"),
                                              "[dataset] split_fraction")}
    if not 0.0 < dataset["split_fraction"] < 1.0:
        raise ConfigError("[dataset] split_fraction must be in (0, 1)")
    if kind == "synth":
        for key in ("n_major", "n_minor", "dim"):
            dataset[key] = _parse_int(ds_raw[key], f"[dataset] {key}")
        for key in ("separation_major", "separation_minor"):
            dataset[key] = _parse_float(ds_raw[key], f"[dataset] {key}")
    elif kind == "census":
        dataset["path"] = ds_raw["path"]
        dataset["schema"] = _parse_schema(ds_raw["schema"], "[dataset] schema")
        dataset["header"] = _parse_bool(ds_raw.get("header", "true"), "[dataset] header")
        for key in ("protected", "label", "protected_positive"):
            dataset[key] = ds_raw[key]
    else:
        dataset["images"] = ds_raw["images"]
        dataset["labels"] = ds_raw["labels"]
    if ("subsample_group" in ds_raw) != ("subsample_size" in ds_raw):
        raise ConfigError("[dataset] subsample_group and subsample_size go together")
    if "subsample_group" in ds_raw:
        dataset["subsample_group"] = _parse_int(ds_raw["subsample_group"],
                                                "[dataset] subsample_group")
        dataset["subsample_size"] = _parse_int(ds_raw["subsample_size"],
                                               "[dataset] subsample_size")

    md_raw = dict(parser.items("model"))
    _check_keys("model", md_raw, _MODEL_KEYS, {"kind"})
    if md_raw["kind"] not in ("softmax", "mlp"):
        raise ConfigError(f"[model] kind must be softmax or mlp, got '{md_raw['kind']}'")
    if md_raw["kind"] == "mlp" and "hidden" not in md_raw:
        raise ConfigError("[model] mlp requires 'hidden'")
    model_cfg = {"kind": md_raw["kind"],
                 "l2": _parse_float(md_raw.get("l2", "0.0"), "[model] l2"),
                 "hidden": _parse_int(md_raw.get("hidden", "0"), "[model] hidden")}

    tr_raw = dict(parser.items("training"))
    _check_keys("training", tr_raw, _TRAINING_KEYS,
                {"strategy", "clip", "sigma2", "lr", "batch_size", "epochs",
                 "delta", "seed"})
    if tr_raw["strategy"] not in STRATEGY_NAMES:
        raise ConfigError(f"[training] strategy must be one of {STRATEGY_NAMES},"
                          f" got '{tr_raw['strategy']}'")
    sigma2 = _parse_float(tr_raw["sigma2"], "[training] sigma2")
    ratio = _parse_float(tr_raw.get("sigma1_ratio", "10.0"), "[training] sigma1_ratio")
    sigma1 = (_parse_float(tr_raw["sigma1"], "[training] sigma1")
              if "sigma1" in tr_raw else ratio * sigma2)
    lr_raw = tr_raw["lr"].strip()
    lr = lr_raw if lr_raw == trainer.INV_SQRT_TOTAL else _parse_float(lr_raw, "[training] lr")
    training = {
        "strategy": tr_raw["strategy"],
        "clip": _parse_float(tr_raw["clip"], "[training] clip"),
        "sigma2": sigma2,
        "sigma1": sigma1,
        "lr": lr,
        "batch_size": _parse_int(tr_raw["batch_size"], "[training] batch_size"),
        "epochs": _parse_int(tr_raw["epochs"], "[training] epochs"),
        "delta": _parse_float(tr_raw["delta"], "[training] delta"),
        "seed": _parse_int(tr_raw["seed"], "[training] seed"),
        "eval_every": _parse_int(tr_raw.get("eval_every", "1"), "[training] eval_every"),
        "budget_target": (_parse_float(tr_raw["budget_target"], "[training] budget_target")
                          if "budget_target" in tr_raw else None),
    }
    if training["clip"] <= 0:
        raise ConfigError("[training] clip must be positive")
    if training["epochs"] < 1 or training["batch_size"] < 1:
        raise ConfigError("[training] epochs and batch_size must be >= 1")

    rp_raw = dict(parser.items("report"))
    _check_keys("report", rp_raw, _REPORT_KEYS, {"out_dir"})
    report = {"out_dir": rp_raw["out_dir"],
              "tau": _parse_float(rp_raw.get("tau", "0.05"), "[report] tau"),
              "positive_class": _parse_int(rp_raw.get("positive_class", "1"),
                                           "[report] positive_class")}
    return {"dataset": dataset, "model": model_cfg, "training": training,
            "report": report}


# --------------------------------------------------------------------------
# builders


def build_dataset(ds_cfg: dict):
    """Materialize the configured dataset, then subsample and split it.

    The dataset seed drives generation; seed+1 drives the subsample and
    seed+2 the split, so the three stages stay independently reproducible.
    Returns (full dataset, train, test, fingerprint).
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
    return data, train_data, test_data, digest


def build_strategy(tr_cfg: dict):
    name = tr_cfg["strategy"]
    if name == "dpsgd":
        return Uniform(tr_cfg["clip"])
    if name == "naive":
        return NaiveReweight(tr_cfg["clip"], tr_cfg["sigma1"])
    return GroupAdaptive(tr_cfg["clip"], tr_cfg["sigma1"])


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


def write_epochs_csv(path, logs, group_names) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "group", "mean_loss", "mean_grad_norm",
                         "train_accuracy", "bound", "above_noised", "size_noised",
                         "clipped_fraction", "epsilon"])
        for log in logs:
            report = log.clip_report
            for k, name in enumerate(group_names):
                row = [log.epoch, name,
                       _cell(float(log.mean_loss[k])),
                       _cell(float(log.mean_grad_norm[k])),
                       _cell(float(log.train_accuracy[k]))]
                if report is None:
                    row += ["", "", "", ""]
                else:
                    row += [
                        _cell(float(report.bounds[k])),
                        _cell(None if report.above_noised is None
                              else float(report.above_noised[k])),
                        _cell(None if report.sizes_noised is None
                              else float(report.sizes_noised[k])),
                        _cell(float(report.clipped_fraction[k])),
                    ]
                row.append(_cell(log.epsilon))
                writer.writerow(row)


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


def _fairness_dict(spec, params, test_data, positive_class) -> dict:
    dp_gap = metrics.demographic_parity_gap(spec, params, test_data, positive_class)
    tpr_gap, fpr_gap = metrics.equalized_odds_gaps(spec, params, test_data, positive_class)
    return {"demographic_parity_gap": dp_gap, "tpr_gap": tpr_gap, "fpr_gap": fpr_gap,
            "positive_class": positive_class}


# --------------------------------------------------------------------------
# subcommands


def cmd_prepare_data(args) -> int:
    cfg = load_config(args.config)
    data, train_data, test_data, digest = build_dataset(cfg["dataset"])
    out = Path(args.out or cfg["report"]["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    dataio.save_dataset(data, out / "dataset.bin")
    dataio.save_dataset(train_data, out / "train.bin")
    dataio.save_dataset(test_data, out / "test.bin")
    summary = {
        "fingerprint": digest,
        "rows": data.n, "dim": data.dim,
        "num_groups": data.num_groups, "num_classes": data.num_classes,
        "group_sizes": _sizes_by_name(data),
        "train_sizes": _sizes_by_name(train_data),
        "test_sizes": _sizes_by_name(test_data),
    }
    dump_json(out / "prepared.json", summary)
    print(json.dumps(_sanitize(summary), sort_keys=True))
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    _, train_data, test_data, digest = build_dataset(cfg["dataset"])
    tr = cfg["training"]
    spec = build_model_spec(cfg["model"], train_data.dim, train_data.num_classes)
    positive_class = cfg["report"]["positive_class"]
    if not 0 <= positive_class < train_data.num_classes:
        raise ConfigError(f"[report] positive_class {positive_class} out of range")
    config = trainer.TrainConfig(
        model=spec, strategy=build_strategy(tr), noise_multiplier=tr["sigma2"],
        lr=tr["lr"], batch_size=tr["batch_size"], epochs=tr["epochs"],
        delta=tr["delta"], seed=tr["seed"], budget_target=tr["budget_target"],
        eval_every=tr["eval_every"])

    baseline = trainer.train_nonprivate(config, train_data, test_data)
    private = trainer.train(config, train_data, test_data)

    # echo the experiment parameters, not the output location, so a run
    # relocated to another directory produces byte-identical artifacts
    echo = dict(cfg)
    echo["report"] = {k: v for k, v in cfg["report"].items() if k != "out_dir"}

    out = Path(cfg["report"]["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    for name, result in ((BASELINE_NAME, baseline), (tr["strategy"], private)):
        fairness = _fairness_dict(spec, result.params, test_data, positive_class)
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
                         train_data.group_names)
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
    if args.n < 1 or args.batch_size < 1 or args.batch_size > args.n:
        raise ConfigError("need 1 <= batch_size <= n")
    if args.epochs < 1:
        raise ConfigError("epochs must be >= 1")
    if not args.sigma > 0:
        raise ConfigError("sigma must be positive")
    if not 0.0 < args.delta <= 1.0:
        raise ConfigError("delta must be in (0, 1]")
    if args.sigma1 is not None and not args.sigma1 > 0:
        raise ConfigError("sigma1 must be positive when given")
    iterations = args.epochs * (args.n // args.batch_size)
    q = args.batch_size / args.n
    ledger = PrivacyLedger([MechanismEvent(args.sigma, q, iterations)])
    if args.sigma1 is not None:
        ledger.append(MechanismEvent(args.sigma1, q, iterations))
    epsilon, best_order = privacy.to_epsilon(privacy.compose(ledger), args.delta)
    print(json.dumps(_sanitize({
        "epsilon": epsilon, "best_order": best_order, "iterations": iterations,
        "sampling_rate": q, "delta": args.delta, "noise_multiplier": args.sigma,
        "count_noise_std": args.sigma1,
        "accounting_assumption": ACCOUNTING_ASSUMPTION,
    }), sort_keys=True))
    return 0


def cmd_analyze(args) -> int:
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
    if not norms:
        raise DataError("norms CSV has no data rows")
    bounds = analysis.cost_bounds(np.asarray(norms), np.asarray(groups),
                                  args.clip, args.eps)
    pooled = None
    if len(norms) * args.eps > 1.0:
        pooled = analysis.optimal_clip(np.asarray(norms), len(norms), args.eps)
    print(json.dumps(_sanitize({
        "clip": args.clip, "eps": args.eps,
        "groups": [dataclasses.asdict(b) for b in bounds],
        "optimal_clip": pooled,
    }), sort_keys=True, indent=2))
    return 0


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
    return {
        "baseline": json.loads(baseline_file.read_text(encoding="utf-8")),
        "private": json.loads(private_files[0].read_text(encoding="utf-8")),
        "impact": json.loads(impact_file.read_text(encoding="utf-8")),
    }


def cmd_compare(args) -> int:
    runs = [_load_run_dir(Path(d)) for d in args.run_dirs]
    digests = {r["private"]["dataset_fingerprint"] for r in runs} | \
              {r["baseline"]["dataset_fingerprint"] for r in runs}
    if len(digests) != 1:
        raise DataError(f"dataset fingerprint mismatch across runs: {sorted(digests)}")

    base_report = runs[0]["baseline"]["test_report"]
    names = [g["name"] for g in base_report["groups"]]

    def table_row(label, report, impact, epsilon, iterations):
        accs = {g["name"]: g["accuracy"] for g in report["groups"]}
        deltas = impact["delta_by_group"] if impact else {n: 0.0 for n in names}
        overall_delta = impact["overall_delta"] if impact else 0.0
        gap = impact["max_pairwise_gap"] if impact else 0.0
        return ([label, epsilon, iterations, report["overall_accuracy"]]
                + [accs[n] for n in names] + [overall_delta]
                + [deltas[n] for n in names] + [gap])

    header = (["strategy", "epsilon", "iterations", "accuracy_total"]
              + [f"accuracy_{n}" for n in names] + ["delta_total"]
              + [f"delta_{n}" for n in names] + ["max_gap"])
    rows = [table_row("sgd", base_report, None, None,
                      runs[0]["baseline"]["iterations_executed"])]
    for run in runs:
        rows.append(table_row(run["private"]["strategy"], run["private"]["test_report"],
                              run["impact"], run["private"]["epsilon"],
                              run["private"]["iterations_executed"]))

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

    p = sub.add_parser("prepare-data", help="build and cache the configured dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="output directory (default: report out_dir)")
    p.set_defaults(func=cmd_prepare_data)

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
