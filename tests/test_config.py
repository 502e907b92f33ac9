"""Golden parsing results for experiment configs.

Each base config pins the exact dict ``load_config`` returns; each mutation
pins the exact ``ConfigError`` text of a config with a single error.
"""

from pathlib import Path

import pytest

from fairdp.cli import load_config
from fairdp.errors import ConfigError
from test_cli import MINIMAL_SYNTH, mutate

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

CENSUS = """
[dataset]
kind = census
path = data/adult.csv
schema = age:numeric, workclass:categorical, sex:categorical, income:categorical
protected = sex
label = income
protected_positive = Female
seed = 3
subsample_group = 1
subsample_size = 50

[model]
kind = softmax

[training]
strategy = naive
clip = 0.5
sigma2 = 1.1
sigma1_ratio = 5
lr = inv_sqrt_total
batch_size = 64
epochs = 3
delta = 1e-5
seed = 2

[report]
out_dir = runs/census
positive_class = 0
"""

IDX = """
[dataset]
kind = idx
images = data/images-idx3-ubyte
labels = data/labels-idx1-ubyte
seed = 1
split_fraction = 0.8
subsample_group = 8
subsample_size = 60

[model]
kind = mlp
hidden = 100
l2 = 1e-4

[training]
strategy = dpsgd-f
clip = 8.0
sigma2 = 1.0
sigma1 = 5.0
lr = 0.3
batch_size = 256
epochs = 1
delta = 1e-5
seed = 7
budget_target = 10

[report]
out_dir = runs/mnist-shape
tau = 0.1
"""

BASES = {
    "dpsgd": (CONFIGS / "synth-dpsgd.ini").read_text(encoding="utf-8"),
    "dpsgd-f": (CONFIGS / "synth-dpsgd-f.ini").read_text(encoding="utf-8"),
    "minimal": MINIMAL_SYNTH.format(strategy="dpsgd", out_dir="out"),
    "census": CENSUS,
    "idx": IDX,
}


SYNTH_SHIPPED = {"kind": "synth", "seed": 1, "split_fraction": 0.7, "n_major": 4750,
                 "n_minor": 250, "dim": 20, "separation_major": 3.0,
                 "separation_minor": 1.0}
MLP_SHIPPED = {"kind": "mlp", "l2": 1e-4, "hidden": 16}
TRAINING_SHIPPED = {"clip": 0.5, "sigma2": 1.0, "lr": 0.8, "batch_size": 256,
                    "epochs": 100, "delta": 1e-6, "seed": 7, "eval_every": 10}

GOLDEN = {
    "dpsgd": {
        "dataset": SYNTH_SHIPPED,
        "model": MLP_SHIPPED,
        "training": {**TRAINING_SHIPPED, "strategy": "dpsgd", "sigma1": 10.0,
                     "budget_target": None},
        "report": {"out_dir": "runs/synth-dpsgd", "tau": 0.05, "positive_class": 1},
    },
    "dpsgd-f": {
        "dataset": SYNTH_SHIPPED,
        "model": MLP_SHIPPED,
        "training": {**TRAINING_SHIPPED, "strategy": "dpsgd-f", "sigma1": 3.0,
                     "budget_target": 25.712},
        "report": {"out_dir": "runs/synth-dpsgd-f", "tau": 0.05, "positive_class": 1},
    },
    "minimal": {
        "dataset": {"kind": "synth", "seed": 7, "split_fraction": 0.8, "n_major": 120,
                    "n_minor": 40, "dim": 4, "separation_major": 3.0,
                    "separation_minor": 1.0},
        "model": {"kind": "softmax", "l2": 0.01, "hidden": 0},
        "training": {"strategy": "dpsgd", "clip": 1.0, "sigma2": 0.6, "sigma1": 6.0,
                     "lr": 0.2, "batch_size": 32, "epochs": 2, "delta": 1e-6,
                     "seed": 11, "eval_every": 1, "budget_target": None},
        "report": {"out_dir": "out", "tau": 0.05, "positive_class": 1},
    },
    "census": {
        "dataset": {"kind": "census", "seed": 3, "split_fraction": 0.8,
                    "path": "data/adult.csv",
                    "schema": [("age", "numeric"), ("workclass", "categorical"),
                               ("sex", "categorical"), ("income", "categorical")],
                    "header": True, "protected": "sex", "label": "income",
                    "protected_positive": "Female", "subsample_group": 1,
                    "subsample_size": 50},
        "model": {"kind": "softmax", "l2": 0.0, "hidden": 0},
        "training": {"strategy": "naive", "clip": 0.5, "sigma2": 1.1, "sigma1": 5.5,
                     "lr": "inv_sqrt_total", "batch_size": 64, "epochs": 3,
                     "delta": 1e-5, "seed": 2, "eval_every": 1, "budget_target": None},
        "report": {"out_dir": "runs/census", "tau": 0.05, "positive_class": 0},
    },
    "idx": {
        "dataset": {"kind": "idx", "seed": 1, "split_fraction": 0.8,
                    "images": "data/images-idx3-ubyte",
                    "labels": "data/labels-idx1-ubyte", "subsample_group": 8,
                    "subsample_size": 60},
        "model": {"kind": "mlp", "l2": 1e-4, "hidden": 100},
        "training": {"strategy": "dpsgd-f", "clip": 8.0, "sigma2": 1.0, "sigma1": 5.0,
                     "lr": 0.3, "batch_size": 256, "epochs": 1, "delta": 1e-5,
                     "seed": 7, "eval_every": 1, "budget_target": 10.0},
        "report": {"out_dir": "runs/mnist-shape", "tau": 0.1, "positive_class": 1},
    },
}

# (base, section, key, value or None to drop the key, exact error text)
MUTATIONS = [
    ("minimal", "dataset", "kind", None,
     "[dataset] kind must be synth, census, or idx, got 'None'"),
    ("minimal", "dataset", "seed", None, "missing key 'seed' in [dataset]"),
    ("minimal", "dataset", "split_fraction", "1.0",
     "[dataset] split_fraction must be in (0, 1), got '1.0'"),
    ("dpsgd", "dataset", "n_major", None, "missing key 'n_major' in [dataset]"),
    ("dpsgd", "dataset", "n_minor", "", "[dataset] n_minor: expected an integer, got ''"),
    ("dpsgd", "dataset", "dim", "4.5", "[dataset] dim: expected an integer, got '4.5'"),
    ("dpsgd", "dataset", "separation_major", None,
     "missing key 'separation_major' in [dataset]"),
    ("dpsgd", "dataset", "separation_minor", "far",
     "[dataset] separation_minor: expected a number, got 'far'"),
    ("census", "dataset", "path", None, "missing key 'path' in [dataset]"),
    ("census", "dataset", "schema", "age",
     "[dataset] schema: bad schema entry 'age' (want name:categorical or name:numeric)"),
    ("census", "dataset", "header", "maybe",
     "[dataset] header: expected a boolean, got 'maybe'"),
    ("census", "dataset", "protected", None, "missing key 'protected' in [dataset]"),
    ("census", "dataset", "label", None, "missing key 'label' in [dataset]"),
    ("census", "dataset", "protected_positive", None,
     "missing key 'protected_positive' in [dataset]"),
    ("idx", "dataset", "images", None, "missing key 'images' in [dataset]"),
    ("idx", "dataset", "labels", None, "missing key 'labels' in [dataset]"),
    ("idx", "dataset", "subsample_group", "eight",
     "[dataset] subsample_group: expected an integer, got 'eight'"),
    ("census", "dataset", "subsample_size", None,
     "[dataset] subsample_group and subsample_size go together"),
    ("minimal", "dataset", "images", "x", "unknown key 'images' in [dataset]"),
    ("minimal", "model", "kind", "cnn", "[model] kind must be softmax or mlp, got 'cnn'"),
    ("dpsgd", "model", "hidden", None,
     "[model] hidden must be given if and only if [model] kind is mlp"),
    ("minimal", "model", "hidden", "7",
     "[model] hidden must be given if and only if [model] kind is mlp"),
    ("minimal", "model", "l2", "", "[model] l2: expected a number, got ''"),
    ("minimal", "model", "dropout", "0.1", "unknown key 'dropout' in [model]"),
    ("minimal", "training", "strategy", "dpsgd2",
     "[training] strategy must be one of ('dpsgd', 'naive', 'dpsgd-f'), got 'dpsgd2'"),
    ("dpsgd", "training", "clip", "0", "[training] clip must be > 0, got '0'"),
    ("dpsgd-f", "training", "clip", "inf",
     "[training] clip = inf needs [training] strategy = dpsgd and [training] sigma2 = 0"),
    ("minimal", "training", "sigma2", None, "missing key 'sigma2' in [training]"),
    ("dpsgd-f", "training", "sigma2", "0",
     "[training] strategy = dpsgd-f needs [training] sigma1 (default [training] "
     "sigma1_ratio * sigma2) and [training] sigma2 both > 0 or both 0, "
     "got sigma1 3.0 and sigma2 0.0"),
    ("census", "training", "sigma2", "1e308",
     "[training] sigma1_ratio * [training] sigma2 must be finite, got inf"),
    ("dpsgd-f", "training", "sigma1", "three",
     "[training] sigma1: expected a number, got 'three'"),
    ("census", "training", "sigma1_ratio", "",
     "[training] sigma1_ratio: expected a number, got ''"),
    ("census", "training", "lr", "inv_sqrt",
     "[training] lr: expected a number, got 'inv_sqrt'"),
    ("idx", "training", "lr", "0",
     "[training] lr must be finite and > 0, or inv_sqrt_total, got '0'"),
    ("minimal", "training", "batch_size", "0",
     "[training] batch_size must be >= 1, got '0'"),
    ("dpsgd", "training", "epochs", "-1", "[training] epochs must be >= 1, got '-1'"),
    ("idx", "training", "delta", None, "missing key 'delta' in [training]"),
    ("minimal", "training", "seed", "1.5",
     "[training] seed: expected an integer, got '1.5'"),
    ("idx", "training", "seed", "-1", "[training] seed must be >= 0, got '-1'"),
    ("dpsgd-f", "training", "budget_target", "match",
     "[training] budget_target: expected a number, got 'match'"),
    ("dpsgd", "training", "eval_every", "often",
     "[training] eval_every: expected an integer, got 'often'"),
    ("minimal", "training", "warmup", "5", "unknown key 'warmup' in [training]"),
    ("minimal", "report", "out_dir", None, "missing key 'out_dir' in [report]"),
    ("idx", "report", "tau", "small", "[report] tau: expected a number, got 'small'"),
    ("minimal", "report", "tau", "-1", "[report] tau must be finite and >= 0, got '-1'"),
    ("census", "report", "positive_class", "yes",
     "[report] positive_class: expected an integer, got 'yes'"),
    ("minimal", "report", "plot", "1", "unknown key 'plot' in [report]"),
]


def load_text(tmp_path, text):
    path = tmp_path / "exp.ini"
    path.write_text(text, encoding="utf-8")
    return load_config(path)


@pytest.mark.parametrize("base", sorted(GOLDEN))
def test_golden_dict(tmp_path, base):
    assert load_text(tmp_path, BASES[base]) == GOLDEN[base]


@pytest.mark.parametrize("base,section,key,value,message", MUTATIONS,
                         ids=[f"{m[0]}-{m[2]}" for m in MUTATIONS])
def test_single_error_message(tmp_path, base, section, key, value, message):
    with pytest.raises(ConfigError) as err:
        load_text(tmp_path, mutate(BASES[base], section, key, value))
    assert str(err.value) == message


@pytest.mark.parametrize("text,message", [
    (BASES["minimal"] + "\n[plotting]\nx = 1\n", "unknown section [plotting]"),
    (BASES["minimal"].split("[report]")[0], "missing section [report]"),
])
def test_section_errors(tmp_path, text, message):
    with pytest.raises(ConfigError) as err:
        load_text(tmp_path, text)
    assert str(err.value) == message

