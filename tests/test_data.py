import os
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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

    def test_stray_bin_file_is_not_cifar(self, tmp_path, rng):
        # a valid record under another name is not a CIFAR-10 batch
        labels, pixels = random_batch(rng, 1)
        (tmp_path / "other.bin").write_bytes(dt.serialize_cifar_batch(labels, pixels))
        with pytest.raises(dt.DataError, match=r"data_batch_\*\.bin, test_batch\.bin"):
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

    @pytest.mark.parametrize("count", [0, 2])
    def test_empty_split_rejected(self, count):
        # 0 samples leave nothing to concatenate; 2 leave val and test empty
        with pytest.raises(dt.DataError, match="split empty"):
            dt.split(dt.synth_dataset(2, count, 8, seed=0), seed=0)

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
        n = eng.EVAL_CHUNK + 8  # one full chunk and a partial one
        ds = dt.synth_dataset(2, n, 8, seed=0)
        conv = eng.ConvLayer(3, 4, 3, 3, 1)
        conv.init_weights(rng)
        net = eng.Network([conv, eng.MaxPoolLayer(2, 2)])
        enc = dt.encode_dataset(net, ds)
        assert enc.x.shape == (n, 4, 4, 4)
        np.testing.assert_array_equal(enc.y, ds.y)
        assert enc.split == ds.split
        # chunked encoding equals one-shot encoding
        np.testing.assert_allclose(enc.x, net.forward(ds.x))


@st.composite
def evod_bytes(draw):
    """An EVOD cache with any header fields and a body of the length they
    imply, cut short or extended; or any bytes at all, with or without
    the magic."""
    if draw(st.booleans()):
        return draw(st.sampled_from([b"", b"EVOD"])) + draw(st.binary(max_size=40))
    version = draw(st.sampled_from([1, 1, 1, 0, 2]))
    n, c, h, w = draw(st.tuples(*[st.integers(0, 3)] * 4))
    body = draw(st.binary(min_size=4 * n * c * h * w + n, max_size=4 * n * c * h * w + n))
    raw = b"EVOD" + struct.pack("<IIIII", version, n, c, h, w) + body
    edit = draw(st.sampled_from(["keep", "cut", "extend"]))
    if edit == "cut":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    return raw + draw(st.binary(min_size=1, max_size=4)) if edit == "extend" else raw


SIGNALLING_NAN = np.frombuffer(struct.pack("<Q", 0x7FF0000000000001), "<f8")[0]


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

    def test_every_truncation_rejected(self, tmp_path):
        ds = dt.synth_dataset(2, 10, 6, seed=3)
        path = tmp_path / "cache.evod"
        dt.write_evod(path, ds)
        raw = path.read_bytes()
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(dt.DataError):
                dt.read_evod(path)

    @pytest.mark.parametrize("shape", [(0, 3, 4, 4), (2, 0, 4, 4), (2, 3, 0, 4), (2, 3, 4, 0)])
    def test_empty_shape_rejected(self, tmp_path, shape):
        path = tmp_path / "empty.evod"
        n, c, h, w = shape
        path.write_bytes(b"EVOD" + struct.pack("<IIIII", 1, *shape) + bytes(4 * n * c * h * w + n))
        with pytest.raises(dt.DataError, match="empty"):
            dt.read_evod(path)

    @pytest.mark.parametrize("shape", [(0, 3, 4, 4), (2, 0, 4, 4), (2, 3, 0, 4), (2, 3, 4, 0)])
    def test_empty_shape_refused_on_write(self, tmp_path, shape):
        path = tmp_path / "empty.evod"
        with pytest.raises(dt.DataError, match="empty"):
            dt.write_evod(path, dt.Dataset(x=np.zeros(shape), y=np.zeros(shape[0], np.int64)))
        assert not path.exists()

    @pytest.mark.parametrize("label", [-1, 256, 300])
    def test_label_outside_a_byte_rejected(self, tmp_path, label):
        ds = dt.synth_dataset(2, 10, 6, seed=3)
        ds.y[3] = label
        path = tmp_path / "labels.evod"
        with pytest.raises(dt.DataError, match="labels are bytes"):
            dt.write_evod(path, ds)
        assert not path.exists()

    @pytest.mark.parametrize("bits", [0x7FC00000, 0x7F800001, 0xFFC00001, 0x7F800000, 0xFF800000],
                             ids=["nan", "snan", "negative nan", "inf", "-inf"])
    def test_non_finite_pixel_rejected_on_read(self, tmp_path, bits):
        path = tmp_path / "pixels.evod"
        dt.write_evod(path, dt.synth_dataset(2, 10, 6, seed=3))
        raw = bytearray(path.read_bytes())
        raw[24 + 4 * 7:24 + 4 * 8] = struct.pack("<I", bits)
        path.write_bytes(raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # casting a signalling NaN warns
            with pytest.raises(dt.DataError, match="non-finite"):
                dt.read_evod(path)

    @pytest.mark.parametrize("value", [np.nan, SIGNALLING_NAN, np.inf, -np.inf, 1e39],
                             ids=["nan", "snan", "inf", "-inf", "beyond float32"])
    def test_non_finite_pixel_not_written(self, tmp_path, value):
        ds = dt.synth_dataset(2, 10, 6, seed=3)
        ds.x.flat[7] = value
        path = tmp_path / "pixels.evod"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(dt.DataError, match="non-finite"):
                dt.write_evod(path, ds)
        assert not path.exists()

    @given(evod_bytes())
    @example(b"EVOD\x01\x00")
    @example(b"EVOD" + bytes(19))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_arbitrary_bytes_read_back_or_raise(self, tmp_path, raw):
        path = tmp_path / "fuzz.evod"
        path.write_bytes(raw)
        try:
            ds = dt.read_evod(path)
        except dt.DataError:
            return
        assert len(raw) == 24 + 4 * ds.x.size + ds.n
        dt.write_evod(path, ds)
        back = dt.read_evod(path)
        np.testing.assert_array_equal(back.x, ds.x)
        np.testing.assert_array_equal(back.y, ds.y)
