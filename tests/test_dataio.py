import hashlib
import struct

import numpy as np
import pytest

from fairdp.dataio import (CATEGORICAL, NUMERIC, Dataset, ImbalanceSpec,
                           fingerprint, load_census_csv,
                           load_idx, preprocess_census, split,
                           subsample_group, synth_two_group)
from fairdp.errors import DataError


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


SCHEMA3 = [("a", NUMERIC), ("b", NUMERIC), ("c", CATEGORICAL)]


class TestLoadCensusCsv:
    def test_three_row_file(self, tmp_path):
        path = write_csv(tmp_path, "1.0,2.5,x\n2.0,3.5,y\n3.0,4.5,x\n")
        table = load_census_csv(path, SCHEMA3)
        assert table.row_count == 3
        assert table.column_names == ("a", "b", "c")
        np.testing.assert_allclose(table.column("a"), [1.0, 2.0, 3.0])
        assert table.column("c") == ("x", "y", "x")

    def test_header_skipped(self, tmp_path):
        path = write_csv(tmp_path, "a,b,c\n1,2,x\n")
        table = load_census_csv(path, SCHEMA3, header=True)
        assert table.row_count == 1

    def test_ragged_row_names_line(self, tmp_path):
        path = write_csv(tmp_path, "1,2,x\n1,2\n")
        with pytest.raises(DataError, match="line 2"):
            load_census_csv(path, SCHEMA3)

    def test_bad_numeric_names_row_and_column(self, tmp_path):
        path = write_csv(tmp_path, "1,2,x\n1,oops,y\n")
        with pytest.raises(DataError, match="line 2.*'b'"):
            load_census_csv(path, SCHEMA3)

    def test_missing_value_rejected(self, tmp_path):
        path = write_csv(tmp_path, "1,2,x\n1,2,?\n")
        with pytest.raises(DataError, match="line 2"):
            load_census_csv(path, SCHEMA3)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            load_census_csv(tmp_path / "nope.csv", SCHEMA3)

    def test_whitespace_stripped(self, tmp_path):
        path = write_csv(tmp_path, "1, 2,  x \n")
        table = load_census_csv(path, SCHEMA3)
        assert table.column("c") == ("x",)


class TestPreprocessCensus:
    def make_table(self, tmp_path):
        text = (
            "0.0,red,Male,hi\n"
            "5.0,green,Female,lo\n"
            "10.0,red,Male,hi\n"
            "2.5,blue,Female,hi\n"
        )
        schema = [("age", NUMERIC), ("color", CATEGORICAL),
                  ("sex", CATEGORICAL), ("income", CATEGORICAL)]
        return load_census_csv(write_csv(tmp_path, text), schema)

    def test_basic_shapes_and_values(self, tmp_path):
        data = preprocess_census(self.make_table(tmp_path), "sex", "income", "Male")
        # age (1) + color one-hot (3); protected and label excluded
        assert data.features.shape == (4, 4)
        assert data.num_classes == 2
        assert data.group_names == ("Female", "Male")
        np.testing.assert_array_equal(data.groups, [1, 0, 1, 0])
        # labels sorted: "hi" -> 0, "lo" -> 1
        np.testing.assert_array_equal(data.labels, [0, 1, 0, 0])
        np.testing.assert_allclose(data.features[:, 0], [0.0, 0.5, 1.0, 0.25])
        # one-hot columns over sorted {blue, green, red}
        np.testing.assert_array_equal(data.features[0, 1:], [0, 0, 1])
        np.testing.assert_array_equal(data.features[3, 1:], [1, 0, 0])

    def test_constant_numeric_column_maps_to_zero(self, tmp_path):
        path = write_csv(tmp_path, "7,Male,hi\n7,Female,lo\n")
        schema = [("x", NUMERIC), ("sex", CATEGORICAL), ("income", CATEGORICAL)]
        table = load_census_csv(path, schema)
        data = preprocess_census(table, "sex", "income", "Male")
        np.testing.assert_array_equal(data.features, [[0.0], [0.0]])

    def test_binary_categorical_features_are_01(self, tmp_path):
        path = write_csv(tmp_path, "a,Male,hi\nb,Female,lo\na,Male,lo\n")
        schema = [("f", CATEGORICAL), ("sex", CATEGORICAL), ("income", CATEGORICAL)]
        data = preprocess_census(load_census_csv(path, schema), "sex", "income", "Male")
        assert set(np.unique(data.features)) <= {0.0, 1.0}

    def test_nonbinary_protected_rejected(self, tmp_path):
        path = write_csv(tmp_path, "1,a,hi\n2,b,lo\n3,c,hi\n")
        schema = [("x", NUMERIC), ("s", CATEGORICAL), ("income", CATEGORICAL)]
        with pytest.raises(DataError, match="3 distinct"):
            preprocess_census(load_census_csv(path, schema), "s", "income", "a")


def write_idx_pair(tmp_path, images, labels, image_magic=0x803, label_magic=0x801,
                   label_count=None):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    ipath = tmp_path / "images.idx"
    lpath = tmp_path / "labels.idx"
    ipath.write_bytes(struct.pack(">4I", image_magic, n, rows, cols) + images.tobytes())
    lpath.write_bytes(struct.pack(">2I", label_magic,
                                  n if label_count is None else label_count)
                      + labels.tobytes())
    return ipath, lpath


class TestLoadIdx:
    def test_roundtrip_and_scaling(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(12, 4, 3), dtype=np.uint8)
        labels = rng.integers(0, 10, size=12, dtype=np.uint8)
        data = load_idx(*write_idx_pair(tmp_path, images, labels))
        assert data.n == 12 and data.dim == 12
        assert data.num_classes == 10 and data.num_groups == 10
        np.testing.assert_array_equal(data.labels, labels)
        np.testing.assert_array_equal(data.groups, labels)
        np.testing.assert_allclose(data.features,
                                   images.reshape(12, 12) / 255.0)
        assert data.features.max() <= 1.0 and data.features.min() >= 0.0

    def test_bad_magic(self, tmp_path):
        paths = write_idx_pair(tmp_path, np.zeros((1, 2, 2)), [0], image_magic=0x804)
        with pytest.raises(DataError, match="magic"):
            load_idx(*paths)

    def test_count_mismatch(self, tmp_path):
        paths = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1], label_count=3)
        with pytest.raises(DataError, match="mismatch|truncated"):
            load_idx(*paths)

    @pytest.mark.parametrize("missing", [0, 1])
    def test_missing_file(self, tmp_path, missing):
        paths = list(write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1]))
        paths[missing] = tmp_path / "absent.idx"
        with pytest.raises(DataError, match="cannot open '.*absent.idx'"):
            load_idx(*paths)

    def test_truncated_images(self, tmp_path):
        ipath, lpath = write_idx_pair(tmp_path, np.zeros((4, 2, 2)), [0, 1, 2, 3])
        ipath.write_bytes(ipath.read_bytes()[:-5])
        with pytest.raises(DataError, match="truncated"):
            load_idx(ipath, lpath)

    @pytest.mark.parametrize("which, extra", [(0, 3), (1, 1)])
    def test_trailing_bytes_rejected(self, tmp_path, which, extra):
        paths = write_idx_pair(tmp_path, np.zeros((4, 2, 2)), [0, 1, 2, 3])
        paths[which].write_bytes(paths[which].read_bytes() + bytes(extra))
        with pytest.raises(DataError) as info:
            load_idx(*paths)
        assert str(info.value) == \
            f"IDX file '{paths[which]}' has {extra} extra bytes past its declared data"

    def test_features_are_the_scaled_pixels_bit_for_bit(self, tmp_path):
        pixels = np.arange(256, dtype=np.uint8).reshape(32, 4, 2)
        data = load_idx(*write_idx_pair(tmp_path, pixels, np.arange(32) % 10))
        want = pixels.reshape(32, -1).astype(np.float64) / 255.0
        assert data.features.tobytes() == want.tobytes()
        assert not data.features.flags.writeable

    def test_fingerprint_pinned(self, tmp_path):
        images = (np.arange(6 * 4 * 3) * 37 % 256).reshape(6, 4, 3)
        data = load_idx(*write_idx_pair(tmp_path, images, [3, 0, 9, 3, 1, 7]))
        assert fingerprint(data) == \
            "d43e098654671d61e7a7c418b7b7f4468e568b2a9880285934a8208a56e1947f"


class TestSubsampleGroup:
    def test_exact_histogram_and_order(self):
        data = synth_two_group(40, 20, 3, 2.0, 1.0, seed=3)
        out = subsample_group(data, ImbalanceSpec(1, 5, seed=9))
        np.testing.assert_array_equal(out.group_sizes(), [40, 5])
        # survivors keep original relative order: group-0 block is untouched
        np.testing.assert_array_equal(out.features[:40], data.features[:40])
        kept = out.features[40:]
        pos = [np.flatnonzero((data.features == row).all(axis=1))[0] for row in kept]
        assert pos == sorted(pos)

    def test_noop_when_size_matches(self):
        data = synth_two_group(10, 6, 3, 2.0, 1.0, seed=3)
        out = subsample_group(data, ImbalanceSpec(1, 6, seed=1))
        np.testing.assert_array_equal(out.features, data.features)
        np.testing.assert_array_equal(out.labels, data.labels)

    def test_oversized_request_rejected(self):
        data = synth_two_group(10, 6, 3, 2.0, 1.0, seed=3)
        with pytest.raises(DataError, match="exceeds"):
            subsample_group(data, ImbalanceSpec(1, 7, seed=1))


def row_multiset(data):
    rows = [data.features[i].tobytes() + bytes([data.labels[i], data.groups[i]])
            for i in range(data.n)]
    return sorted(rows)


class TestSplit:
    def test_sizes(self):
        data = synth_two_group(8, 2, 2, 1.0, 1.0, seed=0)
        train, test = split(data, 0.8, seed=5)
        assert (train.n, test.n) == (8, 2)

    def test_adult_sized_round(self):
        # round(0.8 * 45222) = 36178; the value feeds the accountant as n
        data = Dataset(np.zeros((45222, 1)), np.zeros(45222, dtype=int),
                       np.zeros(45222, dtype=int), ("only",), 2)
        train, test = split(data, 0.8, seed=0)
        assert train.n == 36178
        assert test.n == 45222 - 36178

    def test_deterministic(self):
        data = synth_two_group(30, 10, 4, 2.0, 1.0, seed=2)
        a1, b1 = split(data, 0.7, seed=11)
        a2, b2 = split(data, 0.7, seed=11)
        np.testing.assert_array_equal(a1.features, a2.features)
        np.testing.assert_array_equal(b1.labels, b2.labels)

    def test_partition_multiset(self):
        data = synth_two_group(37, 13, 3, 2.0, 1.0, seed=4)
        train, test = split(data, 0.8, seed=7)
        assert sorted(row_multiset(train) + row_multiset(test)) == row_multiset(data)


class TestSynthTwoGroup:
    def test_sizes_and_groups(self):
        data = synth_two_group(950, 50, 20, 3.0, 1.0, seed=1)
        assert data.n == 1000
        np.testing.assert_array_equal(data.group_sizes(), [950, 50])
        assert data.num_classes == 2

    def test_deterministic(self):
        a = synth_two_group(100, 20, 5, 3.0, 1.0, seed=42)
        b = synth_two_group(100, 20, 5, 3.0, 1.0, seed=42)
        np.testing.assert_array_equal(a.features, b.features)

    def test_zero_separation_minority_unlearnable(self):
        # with no separation the minority's label is independent of its
        # features, so no classifier beats coin flipping on that group
        data = synth_two_group(50, 4000, 6, 3.0, 0.0, seed=8)
        minority = data.features[data.groups == 1]
        labels = data.labels[data.groups == 1]
        # the Bayes-optimal rule for separation 0 is any constant; check the
        # empirical class balance is near half, which caps any accuracy
        assert abs(labels.mean() - 0.5) < 0.05
        corr = np.corrcoef(minority[:, 1], labels)[0, 1]
        assert abs(corr) < 0.05


class TestCacheFormat:
    def test_layout_is_documented_little_endian(self):
        data = Dataset(np.array([[1.5, -2.0], [0.25, 3.0]]), np.array([1, 0]),
                       np.array([0, 2]), ("g", "h", "i"), 2)
        # four u64 header fields (rows, feature dim, group count, class
        # count), then row-major f64 features, u32 labels and u32 groups
        blob = (struct.pack("<4Q", 2, 2, 3, 2) + struct.pack("<4d", 1.5, -2.0, 0.25, 3.0)
                + struct.pack("<2I", 1, 0) + struct.pack("<2I", 0, 2))
        assert fingerprint(data) == hashlib.sha256(blob).hexdigest()

    def test_fingerprint_tracks_content(self):
        a = synth_two_group(10, 5, 2, 1.0, 1.0, seed=1)
        b = synth_two_group(10, 5, 2, 1.0, 1.0, seed=2)
        assert fingerprint(a) == fingerprint(a)
        assert fingerprint(a) != fingerprint(b)


class TestDatasetValidation:
    def test_length_mismatch(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((3, 2)), np.zeros(2, dtype=int),
                    np.zeros(3, dtype=int), ("a",), 2)

    def test_label_range(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 2)), np.array([0, 5]), np.zeros(2, dtype=int),
                    ("a",), 2)

    def test_immutable(self):
        data = synth_two_group(4, 4, 2, 1.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            data.features[0, 0] = 99.0
