import os

import numpy as np
import pytest

from evocnn import data as dt
from evocnn import engine as eng


def random_batch(rng, n):
    labels = rng.integers(0, 10, n).astype(np.uint8)
    pixels = rng.integers(0, 256, (n, 3, 32, 32)).astype(np.uint8)
    return labels, pixels


class TestCifarFormat:
    def test_parse_serialize_byte_round_trip(self, rng):
        labels, pixels = random_batch(rng, 25)
        raw = dt.serialize_cifar_batch(labels, pixels)
        assert len(raw) == 25 * dt.CIFAR_RECORD
        back_labels, back_pixels = dt.parse_cifar_batch(raw)
        np.testing.assert_array_equal(back_labels, labels)
        np.testing.assert_array_equal(back_pixels, pixels)
        assert dt.serialize_cifar_batch(back_labels, back_pixels) == raw

    def test_record_layout_label_then_channel_major_pixels(self):
        # one record: label 7, channel c pixel (r,col) = known ramp value
        pixels = np.arange(3 * 32 * 32, dtype=np.uint8).reshape(1, 3, 32, 32)
        raw = dt.serialize_cifar_batch(np.array([7], np.uint8), pixels)
        assert raw[0] == 7
        assert raw[1] == pixels[0, 0, 0, 0]
        assert raw[1 + 1024] == pixels[0, 1, 0, 0]  # channel-major: G plane after R
        assert raw[1 + 2 * 1024] == pixels[0, 2, 0, 0]

    def test_truncated_batch_rejected(self):
        with pytest.raises(dt.DataError):
            dt.parse_cifar_batch(b"\x00" * (dt.CIFAR_RECORD + 5))
        with pytest.raises(dt.DataError):
            dt.parse_cifar_batch(b"")

    def test_load_cifar10_scales_and_concatenates(self, tmp_path, rng):
        for i in (1, 2):
            labels, pixels = random_batch(rng, 10)
            (tmp_path / f"data_batch_{i}.bin").write_bytes(
                dt.serialize_cifar_batch(labels, pixels)
            )
        ds = dt.load_cifar10(tmp_path)
        assert ds.x.shape == (20, 3, 32, 32)
        assert ds.x.dtype == np.float64
        assert ds.x.min() >= 0.0 and ds.x.max() <= 1.0

    def test_load_empty_dir_rejected(self, tmp_path):
        with pytest.raises(dt.DataError):
            dt.load_cifar10(tmp_path)


class TestSplit:
    def make_raw(self, per_class=60, classes=4, seed=0):
        rng = np.random.default_rng(seed)
        n = per_class * classes
        x = rng.random((n, 1, 4, 4))
        y = np.repeat(np.arange(classes), per_class)
        return dt.Dataset(x=x, y=y)

    def test_proportions_45_5_10(self):
        train, val, test = dt.split(self.make_raw(), seed=0)
        assert (train.n, val.n, test.n) == (180, 20, 40)
        assert (train.split, val.split, test.split) == ("train", "val", "test")

    def test_partition_no_overlap_no_loss(self):
        raw = self.make_raw()
        train, val, test = dt.split(raw, seed=1)
        merged = np.concatenate([train.x, val.x, test.x]).reshape(raw.n, -1)
        original = raw.x.reshape(raw.n, -1)
        assert {tuple(r) for r in merged} == {tuple(r) for r in original}

    def test_stratified_within_one_per_class(self):
        # 61 per class does not divide evenly: largest remainder keeps
        # each class within +-1 of the exact share in every split
        train, val, test = dt.split(self.make_raw(per_class=61), seed=2)
        for part, share in ((train, 61 * 45 / 60), (val, 61 * 5 / 60), (test, 61 * 10 / 60)):
            counts = np.bincount(part.y, minlength=4)
            assert all(abs(c - share) <= 1 for c in counts)

    def test_deterministic_under_seed(self):
        raw = self.make_raw()
        a = dt.split(raw, seed=7)
        b = dt.split(raw, seed=7)
        c = dt.split(raw, seed=8)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.x, y.x)
        assert any(not np.array_equal(x.x, y.x) for x, y in zip(a, c))


class TestBatches:
    def test_drop_remainder_count(self):
        got = list(dt.batches(45, 10, np.random.default_rng(0)))
        assert len(got) == 4
        assert all(b.size == 10 for b in got)

    def test_standard_epoch_is_900_batches(self):
        # 45000 training samples at batch size 50
        n = sum(1 for _ in dt.batches(45_000, 50, np.random.default_rng(0)))
        assert n == 900

    def test_each_index_at_most_once(self):
        seen = np.concatenate(list(dt.batches(103, 10, np.random.default_rng(3))))
        assert len(seen) == len(set(seen.tolist())) == 100

    def test_shuffle_changes_with_seed(self):
        a = np.concatenate(list(dt.batches(64, 8, np.random.default_rng(0))))
        b = np.concatenate(list(dt.batches(64, 8, np.random.default_rng(1))))
        assert not np.array_equal(a, b)

    def test_epoch_draws_one_permutation(self):
        # the training loop's numerics rest on exactly one rng.permutation per epoch
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        got = np.concatenate(list(dt.batches(64, 8, rng)))
        np.testing.assert_array_equal(got, twin.permutation(64))
        assert rng.random() == twin.random()

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            next(dt.batches(10, 0, np.random.default_rng(0)))


class TestSynthDataset:
    def test_shapes_labels_and_range(self):
        ds = dt.synth_dataset(classes=4, count=80, size=16, seed=0)
        assert ds.x.shape == (80, 3, 16, 16)
        assert ds.x.min() >= 0.0 and ds.x.max() <= 1.0
        np.testing.assert_array_equal(np.bincount(ds.y), [20, 20, 20, 20])

    def test_deterministic_under_seed(self):
        a = dt.synth_dataset(4, 40, 12, seed=5)
        b = dt.synth_dataset(4, 40, 12, seed=5)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_count_must_divide_classes(self):
        with pytest.raises(dt.DataError):
            dt.synth_dataset(3, 100, 16)

    def test_classes_are_linearly_separable_features(self):
        # a plain logistic regression on raw pixels should do well,
        # confirming the labels carry real signal
        sklearn = pytest.importorskip("sklearn.linear_model")
        ds = dt.synth_dataset(4, 200, 12, seed=1)
        half = ds.n // 2
        model = sklearn.LogisticRegression(max_iter=2000)
        flat = ds.x.reshape(ds.n, -1)
        model.fit(flat[:half], ds.y[:half])
        assert model.score(flat[half:], ds.y[half:]) > 0.9


class TestEncodeDataset:
    def test_encoding_shrinks_samples_keeps_labels(self, rng):
        ds = dt.synth_dataset(2, 20, 8, seed=0)
        conv = eng.ConvLayer(3, 4, 3, 3, 1)
        conv.init_weights(rng)
        net = eng.Network([conv, eng.MaxPoolLayer(2, 2)])
        enc = dt.encode_dataset(net, ds, chunk=7)
        assert enc.x.shape == (20, 4, 4, 4)
        np.testing.assert_array_equal(enc.y, ds.y)
        assert enc.split == ds.split
        # chunked encoding equals one-shot encoding
        np.testing.assert_allclose(enc.x, net.forward(ds.x))


class TestEvodFormat:
    def test_round_trip(self, tmp_path):
        ds = dt.synth_dataset(2, 10, 6, seed=3)
        path = tmp_path / "cache.evod"
        dt.write_evod(path, ds)
        back = dt.read_evod(path, split="train")
        np.testing.assert_allclose(back.x, ds.x, atol=1e-7)  # f32 storage
        np.testing.assert_array_equal(back.y, ds.y)
        assert back.split == "train"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.evod"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(dt.DataError, match="not an EVOD"):
            dt.read_evod(path)

    def test_truncated_file_rejected(self, tmp_path):
        ds = dt.synth_dataset(2, 10, 6, seed=3)
        path = tmp_path / "trunc.evod"
        dt.write_evod(path, ds)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(dt.DataError, match="truncated"):
            dt.read_evod(path)
