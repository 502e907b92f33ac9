"""The three workloads: their seeded inputs, commands and output checks.

Every workload is a closed loop of operations. One operation is one fresh
worker process that runs a fixed list of ``fairdp`` commands in its own
directory; the next operation starts when the last one has ended. Inputs
are made here, from the workload seed, before any operation is timed.

  desk-pair         the README experiment on the two shipped synth configs
  mnist-shape       an MNIST-shaped IDX dataset and a P = 79,510 MLP
  accountant-sweep  a grid of ``fairdp accountant`` calls

README.md in this directory says why each was chosen.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import io
import json
import math
import random
import struct
from pathlib import Path

import numpy as np

from fairdp import cli


def _load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _reseed(text: str, offset: int) -> str:
    """Add ``offset`` to ``seed`` in [dataset] and [training]; 0 keeps the text."""
    out, section = [], None
    for line in text.splitlines(keepends=True):
        stripped = line.strip()
        if stripped.startswith("["):
            section = stripped.strip("[]").strip()
        key, sep, value = stripped.partition("=")
        if sep and key.strip() == "seed" and section in ("dataset", "training") and offset:
            line = f"seed = {int(value) + offset}\n"
        out.append(line)
    return "".join(out)


def _fits(out_dir: Path) -> list[dict]:
    """run.json of every fit (baseline and private) in one train out_dir."""
    return [_load_json(p) for p in sorted(out_dir.glob("*/run.json"))]


def _trained_samples(out_dirs) -> int:
    return sum(run["iterations_executed"] * run["config"]["training"]["batch_size"]
               for out_dir in out_dirs for run in _fits(out_dir))


def _call_failures(outputs) -> list[str]:
    failures = []
    for argv, result in outputs:
        if result["rc"] != 0:
            detail = (result["error"] or "").strip().splitlines()[-1:] or [""]
            failures.append(f"'{' '.join(argv[:3])}' exited {result['rc']} {detail[0]}")
    return failures


def _out_dir(config_text: str) -> str:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(config_text)
    return parser.get("report", "out_dir")


class DeskPair:
    """``train`` on synth-dpsgd.ini, then synth-dpsgd-f.ini, then ``compare``."""

    name = "desk-pair"
    training = True
    min_ops = 3
    CONFIGS = ("synth-dpsgd.ini", "synth-dpsgd-f.ini")

    def __init__(self, root: Path, work: Path, seed: int):
        self.configs = {name: _reseed((root / "configs" / name).read_text(encoding="utf-8"),
                                      seed)
                        for name in self.CONFIGS}
        self.out_dirs = [_out_dir(text) for text in self.configs.values()]
        self.commands = [["train", "--config", name] for name in self.CONFIGS]
        self.commands.append(["compare", *self.out_dirs])
        self._accountant: dict[tuple, float] = {}

    def prepare(self, op_dir: Path) -> None:
        for name, text in self.configs.items():
            (op_dir / name).write_text(text, encoding="utf-8")

    def samples(self, op_dir: Path) -> int:
        return _trained_samples(op_dir / d for d in self.out_dirs)

    def accountant_epsilon(self, n, batch_size, sigma, epochs, delta) -> float:
        """Epsilon from a separate ``fairdp accountant`` call, run here."""
        key = (n, batch_size, sigma, epochs, delta)
        if key not in self._accountant:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(["accountant", "--n", str(n), "--batch-size", str(batch_size),
                               "--sigma", repr(sigma), "--epochs", str(epochs),
                               "--delta", repr(delta)])
            self._accountant[key] = json.loads(out.getvalue())["epsilon"] if rc == 0 else None
        return self._accountant[key]

    def check(self, op_dir: Path, outputs) -> tuple[int, int, list[str]]:
        failures = _call_failures(outputs)
        if failures:
            return 1, 1, failures
        uniform_dir, adaptive_dir = (op_dir / d for d in self.out_dirs)
        uniform = _load_json(uniform_dir / "dpsgd" / "run.json")
        adaptive = _load_json(adaptive_dir / "dpsgd-f" / "run.json")

        tr = uniform["config"]["training"]
        expected = self.accountant_epsilon(sum(uniform["train_sizes"].values()),
                                           tr["batch_size"], tr["sigma2"], tr["epochs"],
                                           tr["delta"])
        if uniform["epsilon"] != expected:
            failures.append(f"dpsgd epsilon {uniform['epsilon']} != accountant {expected}")
        target = adaptive["config"]["training"]["budget_target"]
        if not adaptive["epsilon"] <= target:
            failures.append(f"dpsgd-f epsilon {adaptive['epsilon']} > budget {target}")
        if not adaptive["iterations_executed"] < adaptive["iterations_planned"]:
            failures.append("dpsgd-f did not stop early at its budget")

        rows = list(csv.reader(io.StringIO(outputs[-1][1]["stdout"])))
        table = {row[0]: row for row in rows[1:]}
        if sorted(table) != ["dpsgd", "dpsgd-f", "sgd"]:
            failures.append(f"compare rows {sorted(table)}")
        else:
            for run in (uniform, adaptive):
                if float(table[run["strategy"]][1]) != run["epsilon"]:
                    failures.append(f"compare epsilon differs for {run['strategy']}")
        return 1, int(bool(failures)), failures


# --------------------------------------------------------------------------


def write_idx(directory: Path, seed: int, per_class: int) -> tuple[str, str]:
    """Seeded 28x28 uint8 digits in IDX format; returns the two file names.

    Each class is a fixed set of blobs drawn from a shared pool, so classes
    overlap; every image gets a random shift, a brightness and pixel noise.
    """
    rng = np.random.default_rng(seed)
    size, classes = 28, 10
    yy, xx = np.mgrid[:size, :size]
    centers = rng.uniform(6, size - 6, size=(16, 2))
    pool = np.exp(-((yy[None] - centers[:, 0, None, None]) ** 2
                    + (xx[None] - centers[:, 1, None, None]) ** 2) / 8.0)
    protos = np.stack([pool[rng.choice(16, size=5, replace=False)].sum(axis=0)
                       for _ in range(classes)])
    labels = rng.permutation(np.repeat(np.arange(classes), per_class))
    images = protos[labels] * rng.uniform(0.5, 1.0, size=(labels.size, 1, 1))
    shifts = rng.integers(-2, 3, size=(labels.size, 2))
    for i, (dy, dx) in enumerate(shifts):
        images[i] = np.roll(images[i], (dy, dx), axis=(0, 1))
    images += rng.normal(0.0, 0.3, size=images.shape)
    pixels = np.clip(np.rint(images * 255.0), 0, 255).astype(np.uint8)
    (directory / "images-idx3-ubyte").write_bytes(
        struct.pack(">4I", 0x803, labels.size, size, size) + pixels.tobytes())
    (directory / "labels-idx1-ubyte").write_bytes(
        struct.pack(">2I", 0x801, labels.size) + labels.astype(np.uint8).tobytes())
    return "images-idx3-ubyte", "labels-idx1-ubyte"


MNIST_CONFIG = """\
[dataset]
kind = idx
images = ../data/{images}
labels = ../data/{labels}
seed = {dataset_seed}
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
seed = {training_seed}

[report]
out_dir = runs/mnist-shape
tau = 0.05
"""


class MnistShape:
    """``train`` on an MNIST-shaped dataset with digit 8 shrunk to 60 rows.

    330 rows per digit, digit 8 cut to 60: 3,030 rows, of which 2,424 train,
    more than the 2,048-row chunk ``group_train_stats`` evaluates in.
    """

    name = "mnist-shape"
    training = True
    min_ops = 3
    PER_CLASS = 330

    def __init__(self, root: Path, work: Path, seed: int):
        data = work / "data"
        data.mkdir(parents=True)
        images, labels = write_idx(data, seed, self.PER_CLASS)
        self.config = MNIST_CONFIG.format(images=images, labels=labels,
                                          dataset_seed=1 + seed, training_seed=7 + seed)
        self.out_dir = _out_dir(self.config)
        self.commands = [["train", "--config", "mnist-shape.ini"]]

    def prepare(self, op_dir: Path) -> None:
        (op_dir / "mnist-shape.ini").write_text(self.config, encoding="utf-8")

    def samples(self, op_dir: Path) -> int:
        return _trained_samples([op_dir / self.out_dir])

    def check(self, op_dir: Path, outputs) -> tuple[int, int, list[str]]:
        failures = _call_failures(outputs)
        if failures:
            return 1, 1, failures
        out = op_dir / self.out_dir
        private = _load_json(out / "dpsgd-f" / "run.json")
        eps = private["epsilon"]
        if not (isinstance(eps, float) and math.isfinite(eps) and eps > 0):
            failures.append(f"epsilon {eps!r} is not finite and positive")
        digits = [str(d) for d in range(10)]
        for run in _fits(out):
            groups = run["test_report"]["groups"]
            if [g["name"] for g in groups] != digits:
                failures.append(f"{run['strategy']}: test report groups "
                                f"{[g['name'] for g in groups]}")
            elif not all(isinstance(g["accuracy"], float) and 0.0 <= g["accuracy"] <= 1.0
                         for g in groups):
                failures.append(f"{run['strategy']}: a group accuracy is missing")
        deltas = _load_json(out / "impact.json")["delta_by_group"]
        if sorted(deltas) != digits or not all(isinstance(v, float) for v in deltas.values()):
            failures.append("impact.json lacks a finite delta for every digit")
        return 1, int(bool(failures)), failures


# --------------------------------------------------------------------------

ORDERS = tuple(range(2, 65)) + (80, 128, 256, 512)
PUBLISHED = (  # n, sigma, epochs, published epsilon; batch 256, delta 1e-6
    (54649, 0.8, 60, 6.55),
    (60000, 0.8, 60, 6.23),
    (36178, 1.0, 20, 3.10),
    (48336, 1.0, 20, 2.66),
)
PUBLISHED_TOLERANCE = 0.35


def reference_epsilon(n, batch_size, sigma, epochs, delta, sigma1=None) -> float:
    """Integer-order RDP bound of the subsampled Gaussian, written out anew.

    sum_j C(a, j) (1-q)^(a-j) q^j exp(j(j-1) / (2 s^2)), composed over the
    iterations (and over the count-noise mechanism when ``sigma1`` is set),
    then converted to epsilon at ``delta`` by a minimum over orders.
    """
    q = batch_size / n
    iterations = epochs * (n // batch_size)
    sigmas = [sigma] + ([sigma1] if sigma1 is not None else [])
    best = math.inf
    for a in ORDERS:
        rdp = 0.0
        for s in sigmas:
            logs = [math.log(math.comb(a, j)) + j * math.log(q) + (a - j) * math.log1p(-q)
                    + j * (j - 1) / (2.0 * s * s) for j in range(a + 1)]
            top = max(logs)
            rdp += (top + math.log(math.fsum(math.exp(t - top) for t in logs))) / (a - 1)
        best = min(best, iterations * rdp + math.log(1.0 / delta) / (a - 1))
    return best


class AccountantSweep:
    """A seeded grid of ``fairdp accountant`` calls, half with ``--sigma1``.

    The (n, batch size, epochs) rows are fixed: n steps from 10,000 by
    1,000, the batch size cycles through 64..512 and the epochs through
    1..100, next to the four published rows. The seed draws each row's
    sigma and delta, picks which half of the calls also pass ``--sigma1``
    (and its value), and shuffles the order. The work per call depends on
    the number of mechanisms, not on n or epochs, so seeds cost the same.
    """

    name = "accountant-sweep"
    training = False
    min_ops = 3
    SIZE = 64

    def __init__(self, root: Path, work: Path, seed: int):
        rng = random.Random(seed)
        shapes = [(10_000 + 1_000 * i, (64, 128, 256, 512)[i % 4], (1, 10, 30, 60, 100)[i % 5])
                  for i in range(self.SIZE - len(PUBLISHED))]
        count_noise = set(rng.sample(range(len(shapes)), self.SIZE // 2))
        rows = [(n, 256, sigma, epochs, 1e-6, None) for n, sigma, epochs, _ in PUBLISHED]
        for i, (n, b, epochs) in enumerate(shapes):
            rows.append((n, b, round(rng.uniform(0.6, 2.0), 3), epochs, rng.choice((1e-5, 1e-6)),
                         round(rng.uniform(2.0, 20.0), 3) if i in count_noise else None))
        rng.shuffle(rows)
        self.rows = rows
        self.expected = [reference_epsilon(*row) for row in rows]
        self.commands = []
        for n, b, sigma, epochs, delta, sigma1 in rows:
            argv = ["accountant", "--n", str(n), "--batch-size", str(b), "--sigma", repr(sigma),
                    "--epochs", str(epochs), "--delta", repr(delta)]
            if sigma1 is not None:
                argv += ["--sigma1", repr(sigma1)]
            self.commands.append(argv)
        self.published = {(n, 256, sigma, epochs): eps for n, sigma, epochs, eps in PUBLISHED}

    def prepare(self, op_dir: Path) -> None:
        pass

    def samples(self, op_dir: Path) -> int:
        """DP-SGD samples the swept calls account for."""
        return sum(epochs * (n // b) * b for n, b, _, epochs, _, _ in self.rows)

    def check(self, op_dir: Path, outputs) -> tuple[int, int, list[str]]:
        failures = []
        failed = 0
        for row, expected, (argv, result) in zip(self.rows, self.expected, outputs):
            problems = _call_failures([(argv, result)])
            if not problems:
                got = json.loads(result["stdout"])
                n, b, sigma, epochs, _, sigma1 = row
                if not math.isclose(got["epsilon"], expected, rel_tol=1e-9):
                    problems.append(f"epsilon {got['epsilon']} != reference {expected}")
                if got["iterations"] != epochs * (n // b):
                    problems.append(f"iterations {got['iterations']}")
                published = self.published.get((n, b, sigma, epochs))
                if sigma1 is None and published is not None \
                        and abs(got["epsilon"] - published) > PUBLISHED_TOLERANCE:
                    problems.append(f"n={n}: epsilon {got['epsilon']} vs published {published}")
            if problems:
                failed += 1
                failures += [f"{' '.join(argv)}: {p}" for p in problems]
        return len(self.rows), failed, failures


WORKLOADS = {w.name: w for w in (DeskPair, MnistShape, AccountantSweep)}
