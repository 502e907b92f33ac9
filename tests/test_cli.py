import csv
import gc
import importlib
import importlib.util
import json
import math
import os
import re
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import fairdp
from fairdp import cli
from fairdp.cli import load_config, main
from fairdp.errors import ConfigError

MINIMAL_SYNTH = """
[dataset]
kind = synth
n_major = 120
n_minor = 40
dim = 4
separation_major = 3.0
separation_minor = 1.0
split_fraction = 0.8
seed = 7

[model]
kind = softmax
l2 = 0.01

[training]
strategy = {strategy}
clip = 1.0
sigma2 = 0.6
lr = 0.2
batch_size = 32
epochs = 2
delta = 1e-6
seed = 11

[report]
out_dir = {out_dir}
tau = 0.05
"""


def write_config(tmp_path, out_dir, strategy="dpsgd", training_extra="",
                 name="exp.ini"):
    path = tmp_path / name
    text = MINIMAL_SYNTH.format(strategy=strategy, out_dir=out_dir)
    if training_extra:
        text = text.replace("seed = 11\n", f"seed = 11\n{training_extra}\n")
    path.write_text(text, encoding="utf-8")
    return path


def mutate(text: str, section: str, key: str, value) -> str:
    """Set ``key`` in ``section`` to ``value``, or drop it when value is None."""
    lines = text.splitlines()
    start = lines.index(f"[{section}]")
    end = next((i for i in range(start + 1, len(lines)) if lines[i].startswith("[")),
               len(lines))
    new = [] if value is None else [f"{key} = {value}"]
    for i in range(start + 1, end):
        if "=" in lines[i] and lines[i].split("=")[0].strip() == key:
            lines[i:i + 1] = new
            break
    else:
        assert value is not None, f"no {key} in [{section}] to drop"
        lines[start + 1:start + 1] = new
    return "\n".join(lines) + "\n"


ARTIFACTS = ("run.json", "epochs.csv", "params.bin", "fairness.json")


class TestConfigValidation:
    def test_valid_config_parses(self, tmp_path):
        cfg = load_config(write_config(tmp_path, tmp_path / "out"))
        assert cfg["training"]["strategy"] == "dpsgd"
        assert cfg["training"]["sigma1"] == pytest.approx(6.0)  # 10x default
        assert cfg["report"]["tau"] == 0.05

    def test_unknown_key_rejected_with_name(self, tmp_path, capsys):
        path = write_config(tmp_path, tmp_path / "out", training_extra="warmup = 5")
        code = main(["train", "--config", str(path)])
        assert code == 2
        assert "warmup" in capsys.readouterr().err

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, tmp_path / "out")
        path.write_text(path.read_text() + "\n[plotting]\nx = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="plotting"):
            load_config(path)

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(MINIMAL_SYNTH.format(strategy="dpsgd", out_dir="o")
                        .replace("sigma2 = 0.6\n", ""), encoding="utf-8")
        with pytest.raises(ConfigError, match="sigma2"):
            load_config(path)

    def test_explicit_sigma1_overrides_ratio(self, tmp_path):
        path = write_config(tmp_path, tmp_path / "out", training_extra="sigma1 = 2.5")
        assert load_config(path)["training"]["sigma1"] == 2.5

    def test_bad_strategy_name(self, tmp_path):
        path = write_config(tmp_path, tmp_path / "out", strategy="dpsgd2")
        with pytest.raises(ConfigError, match="strategy"):
            load_config(path)

    def test_missing_key_named_the_same_in_every_process(self, tmp_path):
        text = MINIMAL_SYNTH.format(strategy="dpsgd", out_dir=tmp_path / "out")
        for key in ("lr", "epochs", "delta", "seed"):
            text = mutate(text, "training", key, None)
        path = tmp_path / "exp.ini"
        path.write_text(text, encoding="utf-8")
        src = str(Path(fairdp.__file__).resolve().parent.parent)
        errs = []
        for hash_seed in range(4):
            env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run(
                [sys.executable, "-m", "fairdp.cli", "train", "--config", str(path)],
                capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 2
            errs.append(proc.stderr)
        assert errs == ["config error: missing key 'lr' in [training]\n"] * 4


# (context, changes), each a list of (section, key, value) applied to
# MINIMAL_SYNTH in that order before ``train``. Each changed value parses but
# is out of range, on its own or under a rule that ties it to other keys; the
# context only selects what makes it so (a strategy, a model kind, the other
# half of a pair). The error names every changed key.
OUT_OF_RANGE = [
    ([], [("training", "delta", "2")]),
    ([], [("training", "sigma2", "-1")]),
    ([], [("training", "sigma2", "inf")]),
    ([], [("training", "eval_every", "0")]),
    ([("model", "kind", "mlp")], [("model", "hidden", "0")]),
    ([], [("model", "l2", "inf")]),
    ([("training", "strategy", "dpsgd-f")], [("training", "sigma1", "-1")]),
    ([("training", "strategy", "naive")], [("training", "sigma1", "inf")]),
    ([], [("training", "strategy", "dpsgd-f"), ("training", "clip", "inf")]),
    ([], [("training", "strategy", "dpsgd-f"), ("training", "clip", "inf"),
          ("training", "sigma2", "0")]),  # a base bound must be finite
    ([], [("training", "clip", "nan")]),
    ([], [("training", "clip", "inf")]),  # unbounded sensitivity at sigma2 > 0
    ([], [("training", "batch_size", "200")]),  # 128 training rows
    ([], [("training", "budget_target", "-5")]),
    # a run without gradient noise has no epsilon to stop at
    ([], [("training", "sigma2", "0"), ("training", "budget_target", "5.0")]),
    ([], [("training", "lr", "-5")]),
    ([], [("training", "lr", "0")]),
    ([], [("training", "lr", "inf")]),
    ([], [("report", "tau", "-1")]),
    ([], [("report", "tau", "inf")]),
    ([], [("model", "hidden", "7")]),  # the model is a softmax
    ([], [("dataset", "n_major", "0")]),
    ([], [("training", "seed", "-1")]),
    ([], [("dataset", "seed", "-2")]),
    ([], [("dataset", "dim", "0")]),
    ([], [("dataset", "separation_minor", "inf")]),
    ([], [("training", "sigma1_ratio", "-2")]),
    ([("dataset", "subsample_size", "10")], [("dataset", "subsample_group", "-1")]),
    ([], [("dataset", "split_fraction", "0")]),
    ([], [("dataset", "n_minor", "0")]),
    ([], [("dataset", "separation_major", "-inf")]),
    ([("dataset", "subsample_group", "0")], [("dataset", "subsample_size", "0")]),
    ([], [("training", "epochs", "0")]),
    ([], [("report", "positive_class", "-1")]),
    ([], [("report", "positive_class", "2")]),  # two classes
    ([], [("training", "sigma1_ratio", "1e308"), ("training", "sigma2", "10")]),
    # a group-aware run releases noised counts and a noised sum; both
    # scales are > 0, or both are 0 for the non-private equivalence run
    ([], [("training", "strategy", "dpsgd-f"), ("training", "sigma1", "0")]),
    ([], [("training", "strategy", "dpsgd-f"), ("training", "sigma1", "3"),
          ("training", "sigma2", "0")]),
    ([], [("training", "strategy", "naive"), ("training", "sigma1_ratio", "0")]),
    # sigma^2 underflows to 0, so no RDP order bounds the run; its epsilon
    # would read null, the value of the run without noise
    ([], [("training", "sigma2", "1e-200")]),
    ([("training", "strategy", "dpsgd-f")], [("training", "sigma1", "1e-200")]),
]


@pytest.mark.parametrize("context,changes", OUT_OF_RANGE,
                         ids=[" ".join(f"{k}={v}" for _, k, v in ctx + c)
                              for ctx, c in OUT_OF_RANGE])
def test_out_of_range_value_is_config_error(tmp_path, capsys, context, changes):
    text = MINIMAL_SYNTH.format(strategy="dpsgd", out_dir=tmp_path / "out")
    for section, key, value in context + changes:
        text = mutate(text, section, key, value)
    path = tmp_path / "exp.ini"
    path.write_text(text, encoding="utf-8")
    assert main(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    for section, key, _ in changes:
        assert f"[{section}] {key}" in err
    assert not (tmp_path / "out").exists()


def test_every_numeric_key_has_an_out_of_range_row():
    def numeric(parse):
        try:
            parse("x", "")
        except ConfigError as exc:
            return "expected an integer" in str(exc) or "expected a number" in str(exc)
        return False

    keys = {(section, key) for section, table in cli.CONFIG_KEYS.items()
            for key, (parse, _, _) in table.items() if numeric(parse)}
    covered = {(section, key) for _, changes in OUT_OF_RANGE for section, key, _ in changes}
    assert len(keys) == 24
    assert keys <= covered


@pytest.mark.parametrize("section,key", [("model", "l2"), ("report", "tau")])
def test_nan_rejected_before_any_dataset(tmp_path, capsys, monkeypatch, section, key):
    built = []
    monkeypatch.setattr(cli, "build_dataset", built.append)
    text = MINIMAL_SYNTH.format(strategy="dpsgd", out_dir=tmp_path / "out")
    path = tmp_path / "exp.ini"
    path.write_text(mutate(text, section, key, "nan"), encoding="utf-8")
    assert main(["train", "--config", str(path)]) == 2
    assert built == []
    assert capsys.readouterr().err == \
        f"config error: [{section}] {key}: expected a number, got 'nan'\n"


def readme_config_keys() -> dict:
    """The keys of each section named in the README's "Config format" block."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Config format", 1)[1].split("```")[1]
    keys, section = {}, None
    for line in block.splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line[1:-1]
            keys[section] = set()
        elif line.startswith("#"):  # "# synth: n_major, n_minor, ..." or its continuation
            listed = re.sub(r"\(.*?\)", "", line.lstrip("# ")).split(":", 1)[-1]
            keys[section] |= {k.strip() for k in listed.split(",") if k.strip()}
        elif "=" in line:
            keys[section].add(line.split("=", 1)[0].strip())
    return keys


def test_readme_names_exactly_the_config_keys():
    assert readme_config_keys() == {name: set(keys) for name, keys in cli.CONFIG_KEYS.items()}


class TestTrainCommand:
    def test_writes_all_artifacts(self, tmp_path):
        out = tmp_path / "out"
        code = main(["train", "--config", str(write_config(tmp_path, out))])
        assert code == 0
        for sub in ("nonprivate", "dpsgd"):
            for name in ARTIFACTS:
                assert (out / sub / name).exists(), f"{sub}/{name}"
        assert (out / "impact.json").exists()
        run = json.loads((out / "dpsgd" / "run.json").read_text())
        assert run["accounting_assumption"] == "poisson-approx"
        assert run["epsilon"] > 0
        assert run["event_kinds"] == ["gradient-noise"]
        assert run["iterations_executed"] == 2 * (128 // 32)
        assert set(run["train_sizes"]) == {"major", "minor"}
        baseline = json.loads((out / "nonprivate" / "run.json").read_text())
        assert baseline["epsilon"] is None

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(write_config(tmp_path, out1))]) == 0
        assert main(["train", "--config",
                     str(write_config(tmp_path, out2, name="exp2.ini"))]) == 0
        for sub in ("nonprivate", "dpsgd"):
            for name in ARTIFACTS:
                a = (out1 / sub / name).read_bytes()
                b = (out2 / sub / name).read_bytes()
                assert a == b, f"{sub}/{name} differs between reruns"
        assert (out1 / "impact.json").read_bytes() == (out2 / "impact.json").read_bytes()

    def test_dpsgdf_records_two_event_kinds(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, out, strategy="dpsgd-f")
        assert main(["train", "--config", str(path)]) == 0
        run = json.loads((out / "dpsgd-f" / "run.json").read_text())
        assert run["event_kinds"] == ["count-noise", "gradient-noise"]

    def test_group_aware_run_without_noise_is_not_private(self, tmp_path, capsys):
        # dpsgd-f with sigma2 = 0 derives sigma1 = 0: the equivalence run
        out = tmp_path / "out"
        path = write_config(tmp_path, out, strategy="dpsgd-f")
        path.write_text(mutate(path.read_text(), "training", "sigma2", "0"), encoding="utf-8")
        assert main(["train", "--config", str(path)]) == 0
        run = json.loads((out / "dpsgd-f" / "run.json").read_text())
        assert run["config"]["training"]["sigma1"] == 0.0
        assert run["epsilon"] is None and run["event_kinds"] == []
        assert run["iterations_executed"] == run["iterations_planned"] == 8

    def test_epochs_csv_shape(self, tmp_path):
        out = tmp_path / "out"
        assert main(["train", "--config", str(write_config(tmp_path, out))]) == 0
        lines = (out / "dpsgd" / "epochs.csv").read_text().strip().splitlines()
        assert lines[0].startswith("epoch,group,mean_loss")
        assert len(lines) == 1 + 2 * 2  # header + 2 epochs x 2 groups

    @pytest.mark.parametrize("strategy", ["dpsgd", "naive", "dpsgd-f"])
    def test_bound_column_reads_the_last_release(self, tmp_path, monkeypatch, strategy):
        # ``bound`` is the release's C_g, except for naive, whose cells are w_g
        releases = []
        real = cli.trainer.apply_strategy

        def spy(*args):
            releases.append(real(*args))
            return releases[-1]

        monkeypatch.setattr(cli.trainer, "apply_strategy", spy)
        out = tmp_path / "out"
        assert main(["train", "--config", str(write_config(tmp_path, out, strategy))]) == 0
        with open(out / strategy / "epochs.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        release = releases[-1]
        if strategy != "dpsgd":
            assert list(release.bounds) != list(release.weights)
        expected = release.weights if strategy == "naive" else release.bounds
        assert [row["bound"] for row in rows[-2:]] == [repr(float(v)) for v in expected]

    def test_huge_sigma2_trains(self, tmp_path, capsys):
        # the shipped run's per-step bound used to round below 0 at this
        # noise and crash the run
        text = (Path(__file__).resolve().parent.parent / "configs" / "synth-dpsgd.ini").read_text()
        for key, value in (("sigma2", "1e8"), ("epochs", "1")):
            text = mutate(text, "training", key, value)
        text = mutate(text, "report", "out_dir", tmp_path / "out")
        path = tmp_path / "huge.ini"
        path.write_text(text, encoding="utf-8")
        assert main(["train", "--config", str(path)]) == 0
        run = json.loads((tmp_path / "out" / "dpsgd" / "run.json").read_text())
        assert run["iterations_executed"] == 3500 // 256
        assert 0.0 < run["epsilon"] < 0.1

    def test_empty_test_group_rejected_before_any_fit(self, tmp_path, capsys, monkeypatch):
        # n_minor = 1 splits as train [3325, 1], test [1425, 0]
        fits = []
        monkeypatch.setattr(cli.trainer, "train", lambda *a: fits.append("private"))
        monkeypatch.setattr(cli.trainer, "train_nonprivate", lambda *a: fits.append("sgd"))
        text = (Path(__file__).resolve().parent.parent / "configs" / "synth-dpsgd.ini").read_text()
        text = mutate(text, "dataset", "n_minor", 1)
        text = mutate(text, "training", "epochs", 3)
        text = mutate(text, "report", "out_dir", tmp_path / "out")
        path = tmp_path / "minor1.ini"
        path.write_text(text, encoding="utf-8")
        assert main(["train", "--config", str(path)]) == 3
        assert fits == []
        assert capsys.readouterr().err == \
            "data error: empty group(s) in evaluation data: ['minor']\n"
        assert not (tmp_path / "out").exists()

    def test_empty_train_group_rejected_before_any_fit(self, tmp_path, capsys, monkeypatch):
        # n_minor = 1 with dataset seed 3 splits as train [3326, 0], test [1424, 1]
        fits = []
        monkeypatch.setattr(cli.trainer, "train", lambda *a: fits.append("private"))
        monkeypatch.setattr(cli.trainer, "train_nonprivate", lambda *a: fits.append("sgd"))
        text = (Path(__file__).resolve().parent.parent / "configs" / "synth-dpsgd-f.ini").read_text()
        text = mutate(text, "dataset", "n_minor", 1)
        text = mutate(text, "dataset", "seed", 3)
        text = mutate(text, "training", "epochs", 2)
        text = mutate(text, "report", "out_dir", tmp_path / "out")
        path = tmp_path / "minor1.ini"
        path.write_text(text, encoding="utf-8")
        assert main(["train", "--config", str(path)]) == 3
        assert fits == []
        assert capsys.readouterr().err == \
            "data error: empty group(s) in the training split: ['minor']\n"
        assert not (tmp_path / "out").exists()

    @staticmethod
    def idx_config(tmp_path, paths):
        """An idx config reading ``paths``; the pair written there is valid."""
        written = {"images": tmp_path / "images.idx", "labels": tmp_path / "labels.idx"}
        written["images"].write_bytes(struct.pack(">4I", 0x803, 2, 1, 1) + bytes(2))
        written["labels"].write_bytes(struct.pack(">2I", 0x801, 2) + bytes([0, 1]))
        text = MINIMAL_SYNTH.format(strategy="dpsgd", out_dir=tmp_path / "out")
        for key in ("n_major", "n_minor", "dim", "separation_major", "separation_minor"):
            text = mutate(text, "dataset", key, None)
        text = mutate(text, "dataset", "kind", "idx")
        for key in ("images", "labels"):
            text = mutate(text, "dataset", key, paths.get(key, written[key]))
        path = tmp_path / "idx.ini"
        path.write_text(text, encoding="utf-8")
        return path, written

    @pytest.mark.parametrize("missing", ["images", "labels"])
    def test_missing_idx_file_is_data_error(self, tmp_path, capsys, missing):
        path, _ = self.idx_config(tmp_path, {missing: tmp_path / "absent.idx"})
        assert main(["train", "--config", str(path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"data error: cannot open '{tmp_path / 'absent.idx'}'")

    @pytest.mark.parametrize("which, extra", [("images", 3), ("labels", 1)])
    def test_trailing_idx_bytes_is_data_error(self, tmp_path, capsys, which, extra):
        path, written = self.idx_config(tmp_path, {})
        written[which].write_bytes(written[which].read_bytes() + bytes(extra))
        assert main(["train", "--config", str(path)]) == 3
        assert capsys.readouterr().err == (
            f"data error: IDX file '{written[which]}' has {extra} extra bytes "
            "past its declared data\n")
        assert not (tmp_path / "out").exists()

    def test_zero_pixel_idx_is_data_error(self, tmp_path, capsys):
        path, written = self.idx_config(tmp_path, {})
        written["images"].write_bytes(struct.pack(">4I", 0x803, 2, 0, 0))
        assert main(["train", "--config", str(path)]) == 3
        assert capsys.readouterr().err == (
            f"data error: image file '{written['images']}' declares 0x0 images\n")
        assert not (tmp_path / "out").exists()

    def test_unsplit_dataset_released_before_first_fit(self, tmp_path, monkeypatch):
        split, fit = cli.dataio.split, cli.trainer.train_nonprivate
        unsplit = []

        def split_spy(data, *args):
            unsplit.append(weakref.ref(data))
            return split(data, *args)

        def fit_spy(*args):
            gc.collect()
            assert unsplit and unsplit[0]() is None, "unsplit dataset alive at the first fit"
            return fit(*args)

        monkeypatch.setattr(cli.dataio, "split", split_spy)
        monkeypatch.setattr(cli.trainer, "train_nonprivate", fit_spy)
        assert main(["train", "--config", str(write_config(tmp_path, tmp_path / "out"))]) == 0


class TestAccountantCommand:
    def test_json_output(self, capsys):
        code = main(["accountant", "--n", "54649", "--batch-size", "256",
                     "--sigma", "0.8", "--epochs", "60", "--delta", "1e-6"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["iterations"] == 60 * (54649 // 256)
        assert out["accounting_assumption"] == "poisson-approx"
        assert 6.2 < out["epsilon"] < 6.9

    def test_sigma1_adds_budget(self, capsys):
        args = ["accountant", "--n", "10000", "--batch-size", "100",
                "--sigma", "1.0", "--epochs", "5", "--delta", "1e-6"]
        main(args)
        base = json.loads(capsys.readouterr().out)["epsilon"]
        main(args + ["--sigma1", "10.0"])
        with_counts = json.loads(capsys.readouterr().out)["epsilon"]
        assert with_counts > base
        assert with_counts < base + 0.1  # the count mechanism is much quieter

    def test_zero_epochs_rejected(self, capsys):
        code = main(["accountant", "--n", "1000", "--batch-size", "100",
                     "--sigma", "1.0", "--epochs", "0", "--delta", "1e-6"])
        assert code == 2
        assert "epochs" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--sigma", "inf"), ("--sigma", "nan"),
                                            ("--sigma1", "inf"), ("--sigma1", "nan")])
    def test_nonfinite_sigma_rejected(self, flag, value, capsys):
        argv = ["accountant", "--n", "1000", "--batch-size", "100", "--sigma", "1.0",
                "--epochs", "1", "--delta", "1e-6"]
        if flag == "--sigma":
            argv[argv.index("--sigma") + 1] = value
        else:
            argv += [flag, value]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and flag.lstrip("-") in err

    @pytest.mark.parametrize("flag", ["--sigma", "--sigma1"])
    def test_unbounded_epsilon_rejected(self, flag, capsys):
        # sigma^2 underflows to 0, so no RDP order bounds the run; its
        # epsilon would read null, the value of the run without noise
        argv = ["accountant", "--n", "3500", "--batch-size", "256", "--sigma", "1.0",
                "--epochs", "1", "--delta", "1e-6", "--sigma1", "3.0"]
        argv[argv.index(flag) + 1] = "1e-200"
        assert main(argv) == 2
        assert capsys.readouterr().err == (f"config error: {flag} must be large enough for "
                                           "a finite epsilon over 13 iterations, got '1e-200'\n")

    def test_huge_sigma_gives_small_epsilon(self, capsys):
        # the bound used to round below 0 here and crash the run
        code = main(["accountant", "--n", "60000", "--batch-size", "256",
                     "--sigma", "1e8", "--epochs", "1", "--delta", "1e-5"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert 0.0 < out["epsilon"] < 0.03
        assert out["noise_multiplier"] == 1e8


def last_epoch_rows(run_dir):
    """The epoch label of each ``epochs.csv`` row, and the last row's epsilon."""
    rows = [line.split(",") for line in
            (run_dir / "epochs.csv").read_text(encoding="utf-8").splitlines()[1:]]
    return [int(row[0]) for row in rows], float(rows[-1][-1])


class TestReportedEpsilon:
    """``run.json``'s epsilon is the last ``epochs.csv`` row's, bit for bit,
    and a budget-stopped run never reports more than its target."""

    # MINIMAL_SYNTH runs 2 epochs of 4 iterations; 17.0 stops every
    # strategy at the end of epoch 1, 17.5 after 5 iterations
    @pytest.mark.parametrize("target", [None, 17.0, 17.5])
    @pytest.mark.parametrize("strategy", ["dpsgd", "naive", "dpsgd-f"])
    def test_run_json_matches_last_epoch_row(self, tmp_path, capsys, strategy, target):
        extra = "" if target is None else f"budget_target = {target!r}"
        out = tmp_path / "out"
        path = write_config(tmp_path, out, strategy=strategy, training_extra=extra)
        assert main(["train", "--config", str(path)]) == 0
        run = json.loads((out / strategy / "run.json").read_text())
        epochs, last = last_epoch_rows(out / strategy)
        assert run["epsilon"] == last
        assert epochs[-1] == -(-run["iterations_executed"] // 4)  # the last epoch that ran
        if target is not None:
            assert 0 < run["iterations_executed"] < run["iterations_planned"]
            assert run["epsilon"] <= target

    def test_budget_stop_at_an_epoch_boundary(self, tmp_path, capsys):
        # this target is the epsilon after 260 = 20 x 13 iterations, where
        # the sum of the two mechanisms' composed curves rounds one bit higher
        target = 11.379285748095082
        text = (Path(__file__).resolve().parent.parent / "configs" / "synth-dpsgd-f.ini").read_text()
        text = mutate(text, "training", "budget_target", repr(target))
        text = mutate(text, "report", "out_dir", tmp_path / "out")
        path = tmp_path / "boundary.ini"
        path.write_text(text, encoding="utf-8")
        assert main(["train", "--config", str(path)]) == 0
        run = json.loads((tmp_path / "out" / "dpsgd-f" / "run.json").read_text())
        epochs, last = last_epoch_rows(tmp_path / "out" / "dpsgd-f")
        assert run["iterations_executed"] == 260
        assert run["epsilon"] == last == target
        # eval_every = 10: rows for epochs 10 and 20 only, no row for epoch 21
        assert epochs == [10, 10, 20, 20]

    def test_accountant_matches_unstopped_train(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["train", "--config",
                     str(write_config(tmp_path, out, strategy="dpsgd-f"))]) == 0
        run = json.loads((out / "dpsgd-f" / "run.json").read_text())
        tr = run["config"]["training"]
        assert run["iterations_executed"] == run["iterations_planned"]
        capsys.readouterr()
        assert main(["accountant", "--n", str(sum(run["train_sizes"].values())),
                     "--batch-size", str(tr["batch_size"]), "--epochs", str(tr["epochs"]),
                     "--sigma", repr(tr["sigma2"]), "--sigma1", repr(tr["sigma1"]),
                     "--delta", repr(tr["delta"])]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["iterations"] == run["iterations_executed"]
        assert (printed["epsilon"], printed["best_order"]) == \
            (run["epsilon"], run["best_order"])


def reference_epsilon(n, batch_size, sigma, epochs, delta, sigma1=None):
    """The integer-order subsampled-Gaussian RDP bound written out anew, with
    exact binomials and a max-shifted fsum, composed over the iterations and
    over the count-noise mechanism when ``sigma1`` is given."""
    q = batch_size / n
    iterations = epochs * (n // batch_size)
    best = math.inf
    for a in tuple(range(2, 65)) + (80, 128, 256, 512):
        rdp = 0.0
        for s in [sigma] + ([sigma1] if sigma1 is not None else []):
            logs = [math.log(math.comb(a, j)) + j * math.log(q) + (a - j) * math.log1p(-q)
                    + j * (j - 1) / (2.0 * s * s) for j in range(a + 1)]
            top = max(logs)
            rdp += (top + math.log(math.fsum(math.exp(t - top) for t in logs))) / (a - 1)
        best = min(best, iterations * rdp + math.log(1.0 / delta) / (a - 1))
    return best


class TestAccountantReference:
    """``fairdp accountant`` rows against an independent reference."""

    ROWS = [  # n, batch size, sigma, epochs, delta, sigma1
        (54649, 256, 0.8, 60, 1e-6, None),
        (60000, 256, 0.8, 60, 1e-6, None),
        (36178, 256, 1.0, 20, 1e-6, None),
        (12000, 64, 1.37, 30, 1e-5, None),
        (21000, 128, 0.61, 1, 1e-6, 2.5),
        (33000, 512, 1.95, 100, 1e-5, 19.8),
        (47000, 256, 0.9, 10, 1e-6, 7.25),
        (15000, 64, 1.2, 60, 1e-5, 3.0),
    ]

    @pytest.mark.parametrize("row", ROWS)
    def test_epsilon_matches_reference(self, row, capsys):
        n, b, sigma, epochs, delta, sigma1 = row
        argv = ["accountant", "--n", str(n), "--batch-size", str(b), "--sigma", repr(sigma),
                "--epochs", str(epochs), "--delta", repr(delta)]
        if sigma1 is not None:
            argv += ["--sigma1", repr(sigma1)]
        assert main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["iterations"] == epochs * (n // b)
        assert math.isclose(out["epsilon"], reference_epsilon(*row), rel_tol=1e-9)


class TestAnalyzeCommand:
    def test_bounds_json(self, tmp_path, capsys):
        path = tmp_path / "norms.csv"
        path.write_text("norm,group\n2.0,0\n2.0,0\n0.5,1\n0.1,1\n", encoding="utf-8")
        code = main(["analyze", "--norms-csv", str(path), "--clip", "1.0",
                     "--eps", "1.0"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        by_group = {g["group"]: g for g in out["groups"]}
        assert by_group[0]["bias_term"] == pytest.approx(1.0)
        assert by_group[0]["upper"] == pytest.approx(1.5)
        assert by_group[1]["bias_term"] == 0.0
        assert out["optimal_clip"] == 2.0

    def test_missing_columns(self, tmp_path, capsys):
        path = tmp_path / "norms.csv"
        path.write_text("value\n1.0\n", encoding="utf-8")
        assert main(["analyze", "--norms-csv", str(path), "--clip", "1.0",
                     "--eps", "1.0"]) == 3

    @pytest.mark.parametrize("clip, eps", [("0", "1.0"), ("nan", "1.0"), ("inf", "1.0"),
                                           ("1.0", "-1"), ("1.0", "nan")])
    def test_bad_clip_or_eps_is_config_error(self, tmp_path, capsys, clip, eps):
        path = tmp_path / "norms.csv"
        path.write_text("norm,group\n2.0,0\n0.5,1\n", encoding="utf-8")
        assert main(["analyze", "--norms-csv", str(path), "--clip", clip,
                     "--eps", eps]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")

    @pytest.mark.parametrize("rows, where", [
        ("2.0,0\n0.5,2\n", "group 1"),
        ("nan,0\n0.5,1\n", "line 2"),
        ("2.0,0\ninf,1\n", "line 3"),
        ("-0.5,0\n0.5,1\n", "line 2"),
        ("2.0,0\n0.5,-1\n1.0,1\n", "line 3"),
    ])
    def test_bad_rows_are_data_errors(self, tmp_path, capsys, rows, where):
        path = tmp_path / "norms.csv"
        path.write_text("norm,group\n" + rows, encoding="utf-8")
        assert main(["analyze", "--norms-csv", str(path), "--clip", "1.0",
                     "--eps", "1.0"]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("data error:") and where in err[0]


def test_prepare_data_is_not_a_command(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["prepare-data", "--config", "exp.ini"])
    assert exit_.value.code == 2
    assert "invalid choice: 'prepare-data'" in capsys.readouterr().err


class TestCompareCommand:
    def run_two(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["train", "--config", str(write_config(tmp_path, out1))])
        main(["train", "--config", str(write_config(tmp_path, out2,
                                                    strategy="dpsgd-f",
                                                    name="exp2.ini"))])
        return out1, out2

    def test_table_rows(self, tmp_path, capsys):
        out1, out2 = self.run_two(tmp_path)
        capsys.readouterr()  # drain the training summaries
        code = main(["compare", str(out1), str(out2)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split(",")[:4] == ["strategy", "epsilon", "iterations",
                                           "accuracy_total"]
        strategies = [line.split(",")[0] for line in lines[1:]]
        assert strategies == ["sgd", "dpsgd", "dpsgd-f"]
        # the shared baseline row carries zero deltas
        header = lines[0].split(",")
        sgd = dict(zip(header, lines[1].split(",")))
        assert float(sgd["delta_total"]) == 0.0
        assert float(sgd["delta_major"]) == 0.0

    def test_out_files(self, tmp_path, capsys):
        out1, out2 = self.run_two(tmp_path)
        dest = tmp_path / "cmp"
        capsys.readouterr()  # drain the training summaries
        assert main(["compare", str(out1), str(out2), "--out", str(dest)]) == 0
        assert (dest / "compare.csv").read_bytes() == capsys.readouterr().out.encode()
        rows = json.loads((dest / "compare.json").read_text())
        assert [r["strategy"] for r in rows] == ["sgd", "dpsgd", "dpsgd-f"]

    def test_fingerprint_mismatch(self, tmp_path, capsys):
        out1 = tmp_path / "r1"
        out3 = tmp_path / "r3"
        main(["train", "--config", str(write_config(tmp_path, out1))])
        other = write_config(tmp_path, out3, name="exp3.ini")
        other.write_text(other.read_text().replace("seed = 7", "seed = 8"),
                         encoding="utf-8")
        main(["train", "--config", str(other)])
        code = main(["compare", str(out1), str(out3)])
        assert code == 3
        assert "fingerprint" in capsys.readouterr().err

    def test_baseline_mismatch(self, tmp_path, capsys):
        # same data, so the fingerprints match, but another lr fits another baseline
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["train", "--config", str(write_config(tmp_path, out1))])
        other = write_config(tmp_path, out2, strategy="dpsgd-f", name="exp2.ini")
        other.write_text(mutate(other.read_text(), "training", "lr", "0.05"), encoding="utf-8")
        main(["train", "--config", str(other)])
        capsys.readouterr()
        assert main(["compare", str(out1), str(out2)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error: ")
        assert f"'{out1}'" in err[0] and f"'{out2}'" in err[0]

    @pytest.mark.parametrize("name", ["nonprivate/run.json", "dpsgd/run.json", "impact.json"])
    def test_invalid_json_names_the_file(self, tmp_path, capsys, name):
        out1 = tmp_path / "r1"
        main(["train", "--config", str(write_config(tmp_path, out1))])
        (out1 / name).write_text('{"strategy": "dpsgd",', encoding="utf-8")
        capsys.readouterr()
        assert main(["compare", str(out1)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("data error: ") and str(out1 / name) in err[0]

    @pytest.mark.parametrize("name, key", [("dpsgd/run.json", "dataset_fingerprint"),
                                           ("nonprivate/run.json", "test_report"),
                                           ("impact.json", "delta_by_group")])
    def test_missing_key_names_the_file(self, tmp_path, capsys, name, key):
        out1 = tmp_path / "r1"
        main(["train", "--config", str(write_config(tmp_path, out1))])
        obj = json.loads((out1 / name).read_text())
        del obj[key]
        (out1 / name).write_text(json.dumps(obj), encoding="utf-8")
        capsys.readouterr()
        assert main(["compare", str(out1)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("data error: ") and str(out1 / name) in err[0]
        assert key in err[0]

    def test_missing_dir_listed(self, tmp_path, capsys):
        code = main(["compare", str(tmp_path / "absent")])
        assert code == 3
        assert "absent" in capsys.readouterr().err


def load_spans():
    """The benchmark's ``perfbench/spans.py``, imported from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkProbes:
    """The benchmark's traced runs wrap src bindings and read their results;
    a probe that no longer fits the src fails here, not only under the
    benchmark."""

    def test_traced_train_per_strategy(self, tmp_path, monkeypatch):
        spans = load_spans()
        for module_name, attr, _, _ in spans.LAYERS:
            module = importlib.import_module(module_name)
            monkeypatch.setattr(module, attr, getattr(module, attr))
        tracer = spans.Tracer()
        spans.install(tracer, spans.LAYERS)
        for strategy in ("dpsgd", "naive", "dpsgd-f"):
            path = write_config(tmp_path, tmp_path / strategy, strategy, name=f"{strategy}.ini")
            assert cli.main(["train", "--config", str(path)]) == 0
        steps = 3 * 2 * (128 // 32)  # strategies x epochs x iterations per epoch
        clip_spans = [s for s in tracer.spans if s[0] == "clipping.apply_strategy"]
        assert len(clip_spans) == steps
        for span in clip_spans:
            assert span[4] is not None and len(span[4]["clipped"]) == 2
        assert spans.layer_metrics(tracer.spans)["clipping.apply_strategy.calls"] == steps
