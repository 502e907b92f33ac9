"""Dataset loading, preprocessing, rebalancing, and splitting.

Three sources produce the same immutable ``Dataset`` container: delimited
census-style tables with a declared per-column schema, IDX-format image and
label files, and synthetic two-group Gaussian mixtures. All operations are
pure functions of their inputs and seeds, so datasets can be rebuilt and
shared across threads freely.

Fingerprint layout: ``fingerprint`` is the SHA-256 of these little-endian
bytes: a header of four u64 fields (rows, feature dim, group count, class
count), then the feature matrix as row-major f64, the labels as u32, and
the groups as u32. Group names are not part of it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import struct
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DataError

CATEGORICAL = "categorical"
NUMERIC = "numeric"

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

_MISSING_TOKENS = ("", "?")
_FINGERPRINT_HEADER = struct.Struct("<4Q")


class Batch(NamedTuple):
    """Rows taken from a dataset; groups may be partially absent here."""

    features: np.ndarray
    labels: np.ndarray
    groups: np.ndarray


@dataclass(frozen=True)
class RawTable:
    """Parsed delimited table.

    Each column is either categorical (a tuple of strings) or numeric (a
    float64 array); a column never mixes the two kinds.
    """

    column_names: tuple[str, ...]
    columns: tuple[object, ...]
    row_count: int

    def __post_init__(self):
        if len(self.column_names) != len(self.columns):
            raise DataError("column names and columns disagree in length")
        for name, col in zip(self.column_names, self.columns):
            if len(col) != self.row_count:
                raise DataError(f"column '{name}' has {len(col)} entries, expected {self.row_count}")

    def column(self, name: str):
        try:
            return self.columns[self.column_names.index(name)]
        except ValueError:
            raise DataError(f"no such column: '{name}'") from None


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus class labels and group memberships.

    Immutable after construction (arrays are made read-only). Splitting may
    leave a group empty in one side; builders (loaders, synth) always
    produce every group at least once.
    """

    features: np.ndarray
    labels: np.ndarray
    groups: np.ndarray
    group_names: tuple[str, ...]
    num_classes: int

    def __post_init__(self):
        features = np.ascontiguousarray(self.features, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        groups = np.ascontiguousarray(self.groups, dtype=np.int64)
        if features.ndim != 2:
            raise DataError("features must be a 2-D matrix")
        n = features.shape[0]
        if labels.shape != (n,) or groups.shape != (n,):
            raise DataError("labels/groups length must match feature rows")
        if self.num_classes < 1:
            raise DataError("num_classes must be positive")
        if n and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise DataError("label outside [0, num_classes)")
        if n and (groups.min() < 0 or groups.max() >= len(self.group_names)):
            raise DataError("group index outside [0, num_groups)")
        for arr in (features, labels, groups):
            arr.flags.writeable = False
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "group_names", tuple(self.group_names))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_groups(self) -> int:
        return len(self.group_names)

    def group_sizes(self) -> np.ndarray:
        return np.bincount(self.groups, minlength=self.num_groups)

    def take(self, indices) -> Batch:
        idx = np.asarray(indices, dtype=np.int64)
        return Batch(self.features[idx], self.labels[idx], self.groups[idx])


@dataclass(frozen=True)
class ImbalanceSpec:
    """Request to shrink one group to an exact size by seeded subsampling."""

    target_group: int
    target_size: int
    seed: int

    def __post_init__(self):
        if self.target_size < 1:
            raise DataError("target_size must be positive")


def _open(path, mode: str, **kwargs):
    """``open``, with an unopenable file reported as a DataError."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise DataError(f"cannot open '{path}': {exc}") from exc


def load_census_csv(path, schema: Sequence[tuple[str, str]], header: bool = False) -> RawTable:
    """Parse a comma-separated UTF-8 file against a declared schema.

    Args:
      path: file to read.
      schema: ordered (column name, kind) pairs, kind being "categorical"
        or "numeric".
      header: when True, the first line is a header and is skipped (its
        arity is still checked).

    Raises:
      DataError: missing file, ragged row, missing value, or a numeric cell
        that does not parse; messages carry the offending line number.
    """
    schema = list(schema)
    if not schema:
        raise DataError("schema must declare at least one column")
    for name, kind in schema:
        if kind not in (CATEGORICAL, NUMERIC):
            raise DataError(f"column '{name}': unknown kind '{kind}'")
    names = [name for name, _ in schema]
    raw: list[list] = [[] for _ in schema]
    count = 0
    with _open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for line_no, row in enumerate(reader, start=1):
            if not row:
                continue
            if header and line_no == 1:
                if len(row) != len(schema):
                    raise DataError(
                        f"line 1: header has {len(row)} fields, schema declares {len(schema)}")
                continue
            if len(row) != len(schema):
                raise DataError(
                    f"line {line_no}: expected {len(schema)} fields, got {len(row)}")
            cells = [cell.strip() for cell in row]
            for j, cell in enumerate(cells):
                if cell in _MISSING_TOKENS:
                    raise DataError(f"line {line_no}: missing value in column '{names[j]}'")
                if schema[j][1] == NUMERIC:
                    try:
                        raw[j].append(float(cell))
                    except ValueError:
                        raise DataError(
                            f"line {line_no}: column '{names[j]}': "
                            f"cannot parse '{cell}' as a number") from None
                else:
                    raw[j].append(cell)
            count += 1
    columns = tuple(
        np.asarray(col, dtype=np.float64) if kind == NUMERIC else tuple(col)
        for col, (_, kind) in zip(raw, schema))
    return RawTable(tuple(names), columns, count)


def _min_max(col: np.ndarray) -> np.ndarray:
    lo, hi = col.min(), col.max()
    if hi == lo:
        # constant column carries no information; map to zero
        return np.zeros_like(col)
    return (col - lo) / (hi - lo)


def _one_hot(col: Sequence[str]) -> np.ndarray:
    values = sorted(set(col))
    index = {v: i for i, v in enumerate(values)}
    out = np.zeros((len(col), len(values)))
    out[np.arange(len(col)), [index[v] for v in col]] = 1.0
    return out


def preprocess_census(table: RawTable, protected: str, label: str,
                      protected_positive: str) -> Dataset:
    """Turn a raw census table into a two-group classification dataset.

    The protected column (binary categorical) becomes the group labels with
    ``protected_positive`` mapped to group 1, the label column becomes the
    class labels (distinct values sorted, index order), and both are
    excluded from the features. Remaining categorical columns expand to
    full one-hot blocks (no reference level dropped); numeric columns are
    min-max normalized to [0, 1], constant columns mapping to zero.
    """
    protected_col = table.column(protected)
    label_col = table.column(label)
    if isinstance(protected_col, np.ndarray):
        raise DataError(f"protected column '{protected}' must be categorical")
    if isinstance(label_col, np.ndarray):
        raise DataError(f"label column '{label}' must be categorical")
    protected_values = sorted(set(protected_col))
    if len(protected_values) != 2:
        raise DataError(
            f"protected column '{protected}' has {len(protected_values)} distinct "
            "values; exactly 2 supported")
    if protected_positive not in protected_values:
        raise DataError(
            f"'{protected_positive}' not a value of protected column '{protected}'")
    negative = next(v for v in protected_values if v != protected_positive)
    groups = np.fromiter((1 if v == protected_positive else 0 for v in protected_col),
                         dtype=np.int64, count=table.row_count)

    classes = sorted(set(label_col))
    if len(classes) < 2:
        raise DataError(f"label column '{label}' has fewer than 2 distinct values")
    class_index = {v: i for i, v in enumerate(classes)}
    labels = np.fromiter((class_index[v] for v in label_col),
                         dtype=np.int64, count=table.row_count)

    blocks = []
    for name, col in zip(table.column_names, table.columns):
        if name in (protected, label):
            continue
        if isinstance(col, np.ndarray):
            blocks.append(_min_max(col)[:, None])
        else:
            blocks.append(_one_hot(col))
    if not blocks:
        raise DataError("no feature columns left after removing protected and label")
    features = np.hstack(blocks)
    return Dataset(features, labels, groups, (negative, protected_positive), len(classes))


def _read_exact(fh, nbytes: int, path) -> bytes:
    data = fh.read(nbytes)
    if len(data) != nbytes:
        raise DataError(f"truncated IDX file: '{path}'")
    return data


def _read_to_end(fh, nbytes: int, path) -> bytes:
    """The next ``nbytes`` bytes, which must end the file."""
    data = _read_exact(fh, nbytes, path)
    end = fh.tell()
    extra = fh.seek(0, io.SEEK_END) - end
    if extra:
        raise DataError(f"IDX file '{path}' has {extra} extra bytes past its declared data")
    return data


def load_idx(images_path, labels_path) -> Dataset:
    """Load big-endian IDX image/label files as a 10-class dataset.

    Pixels are scaled to [0, 1] by dividing by 255, in one pass into the
    one float64 matrix. The class labels double as the group labels (one group
    per digit class). A file shorter or longer than its header declares,
    or one of images with no pixels, is a DataError.
    """
    with _open(images_path, "rb") as fh:
        magic, count, rows, cols = struct.unpack(">4I", _read_exact(fh, 16, images_path))
        if magic != IDX_IMAGES_MAGIC:
            raise DataError(f"bad magic 0x{magic:08x} in image file '{images_path}'")
        if rows * cols == 0:
            raise DataError(f"image file '{images_path}' declares {rows}x{cols} images")
        pixels = np.frombuffer(_read_to_end(fh, count * rows * cols, images_path),
                               dtype=np.uint8)
    with _open(labels_path, "rb") as fh:
        magic, label_count = struct.unpack(">2I", _read_exact(fh, 8, labels_path))
        if magic != IDX_LABELS_MAGIC:
            raise DataError(f"bad magic 0x{magic:08x} in label file '{labels_path}'")
        if label_count != count:
            raise DataError(
                f"image/label count mismatch: {count} images vs {label_count} labels")
        labels = np.frombuffer(_read_to_end(fh, label_count, labels_path), dtype=np.uint8)
    labels = labels.astype(np.int64)
    if labels.size and labels.max() > 9:
        raise DataError(f"label value {labels.max()} outside 0..9")
    features = np.divide(pixels.reshape(count, rows * cols), 255.0, dtype=np.float64)
    return Dataset(features, labels, labels.copy(), tuple(str(d) for d in range(10)), 10)


def _subset(data: Dataset, indices: np.ndarray) -> Dataset:
    return Dataset(data.features[indices], data.labels[indices], data.groups[indices],
                   data.group_names, data.num_classes)


def subsample_group(data: Dataset, spec: ImbalanceSpec) -> Dataset:
    """Shrink one group to exactly ``spec.target_size`` rows.

    Rows of the target group are chosen uniformly without replacement with
    the spec's seed; every other row is kept, and the surviving rows stay
    in their original relative order.
    """
    if not 0 <= spec.target_group < data.num_groups:
        raise DataError(f"no such group index: {spec.target_group}")
    member_idx = np.flatnonzero(data.groups == spec.target_group)
    if spec.target_size > member_idx.size:
        raise DataError(
            f"target_size {spec.target_size} exceeds group size {member_idx.size}")
    rng = np.random.default_rng(spec.seed)
    chosen = rng.choice(member_idx, size=spec.target_size, replace=False)
    keep = np.ones(data.n, dtype=bool)
    keep[member_idx] = False
    keep[chosen] = True
    return _subset(data, np.flatnonzero(keep))


def split(data: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle, then split into (train, test).

    The train side gets round(train_fraction * n) rows. The split is not
    stratified by group, so small groups can end up unevenly represented;
    realized per-group counts are recorded in run reports.
    """
    if data.n < 2:
        raise DataError("need at least 2 rows to split")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    perm = np.random.default_rng(seed).permutation(data.n)
    n_train = int(round(train_fraction * data.n))
    return _subset(data, perm[:n_train]), _subset(data, perm[n_train:])


GROUP_OFFSET = 6.0


def synth_two_group(n_major: int, n_minor: int, dim: int,
                    separation_major: float, separation_minor: float,
                    seed: int) -> Dataset:
    """Two-group, two-class spherical Gaussian mixture.

    Each group's two class clouds are unit-variance spherical Gaussians
    whose means sit ``separation`` apart along that group's own axis (axis
    0 for the major group, axis 1 for the minor group). The minor group's
    clouds are additionally displaced by a fixed offset along axis 2, so
    the groups occupy distinct regions of feature space, the way digit
    classes do when classes double as groups. A smaller separation makes a
    group harder to classify, so its samples keep larger gradients under
    training. Rows are ordered major group first.
    """
    if n_major < 1 or n_minor < 1 or dim < 1:
        raise ValueError("all sizes must be positive")
    rng = np.random.default_rng(seed)
    feats, labels = [], []
    for g, (size, sep) in enumerate(((n_major, separation_major),
                                     (n_minor, separation_minor))):
        axis = min(g, dim - 1)
        y = rng.integers(0, 2, size=size)
        x = rng.standard_normal((size, dim))
        x[:, axis] += (2.0 * y - 1.0) * (sep / 2.0)
        if g == 1 and dim >= 3:
            x[:, 2] += GROUP_OFFSET
        feats.append(x)
        labels.append(y)
    groups = np.concatenate([np.zeros(n_major, dtype=np.int64),
                             np.ones(n_minor, dtype=np.int64)])
    return Dataset(np.vstack(feats), np.concatenate(labels).astype(np.int64),
                   groups, ("major", "minor"), 2)


def fingerprint(data: Dataset) -> str:
    """SHA-256 of the documented little-endian layout; used to match runs
    for comparison. The pieces are hashed in turn, so the feature matrix is
    read in place, not copied."""
    digest = hashlib.sha256(_FINGERPRINT_HEADER.pack(data.n, data.dim, data.num_groups,
                                                     data.num_classes))
    for piece in (np.ascontiguousarray(data.features, dtype="<f8"),
                  data.labels.astype("<u4"), data.groups.astype("<u4")):
        digest.update(piece)
    return digest.hexdigest()
