"""Dataset ingestion and plumbing: CIFAR-10 binary batches, a synthetic
desk-scale generator, stratified splits, batching, and re-encoding a
dataset through a trained encoder."""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

CIFAR_RECORD = 3073  # 1 label byte + 3*1024 channel-major pixel bytes
CIFAR_SHAPE = (3, 32, 32)

SPLIT_PROPORTIONS = (45, 5, 10)  # train : val : test


class DataError(Exception):
    pass


@dataclass(frozen=True)
class Dataset:
    x: np.ndarray  # (N, C, H, W) float64 in [0,1]
    y: np.ndarray  # (N,) int labels
    split: str = "raw"

    def __post_init__(self):
        if self.x.shape[0] != self.y.shape[0]:
            raise DataError("sample and label counts differ")

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def sample_shape(self):
        return self.x.shape[1:]


# ---------------------------------------------------------------------------
# CIFAR-10 binary format
# ---------------------------------------------------------------------------

def parse_cifar_batch(raw: bytes):
    """(labels uint8 (N,), pixels uint8 (N,3,32,32)) from one batch file."""
    if len(raw) == 0 or len(raw) % CIFAR_RECORD != 0:
        raise DataError(
            f"bad CIFAR-10 batch size {len(raw)}: expected a positive "
            f"multiple of {CIFAR_RECORD} (1 label + 3072 pixel bytes per record)"
        )
    n = len(raw) // CIFAR_RECORD
    arr = np.frombuffer(raw, np.uint8).reshape(n, CIFAR_RECORD)
    labels = arr[:, 0].copy()
    pixels = arr[:, 1:].reshape(n, *CIFAR_SHAPE).copy()
    return labels, pixels


def serialize_cifar_batch(labels, pixels) -> bytes:
    n = labels.shape[0]
    out = np.empty((n, CIFAR_RECORD), np.uint8)
    out[:, 0] = labels
    out[:, 1:] = pixels.reshape(n, -1)
    return out.tobytes()


def load_cifar10(path) -> Dataset:
    """All records from the binary batch files under `path`, scaled to [0,1]:
    the standard data_batch_*.bin and test_batch.bin names only."""
    root = Path(path)
    files = sorted(root.glob("data_batch_*.bin")) + sorted(root.glob("test_batch.bin"))
    if not files:
        raise DataError(f"no CIFAR-10 batch files (data_batch_*.bin, test_batch.bin) under {root}")
    labels, pixels = [], []
    for f in files:
        lab, pix = parse_cifar_batch(f.read_bytes())
        labels.append(lab)
        pixels.append(pix)
    x = np.concatenate(pixels).astype(np.float64) / 255.0
    y = np.concatenate(labels).astype(np.int64)
    return Dataset(x=x, y=y, split="raw")


# ---------------------------------------------------------------------------
# Splits and batching
# ---------------------------------------------------------------------------

def _allocate(counts, proportions):
    """Largest-remainder allocation of `counts` items over proportions."""
    total = sum(proportions)
    exact = [counts * p / total for p in proportions]
    base = [int(e) for e in exact]
    rem = counts - sum(base)
    order = sorted(range(len(proportions)), key=lambda i: exact[i] - base[i], reverse=True)
    for i in order[:rem]:
        base[i] += 1
    return base


def split(raw: Dataset, seed) -> tuple[Dataset, Dataset, Dataset]:
    """Stratified 45:5:10 train/val/test split, deterministic under seed.

    Class balance is preserved within +-1 per class and split.
    """
    rng = np.random.default_rng(seed)
    classes = np.unique(raw.y)
    buckets = ([], [], [])
    for cls in classes:
        idx = np.flatnonzero(raw.y == cls)
        idx = idx[rng.permutation(idx.size)]
        n_train, n_val, n_test = _allocate(idx.size, SPLIT_PROPORTIONS)
        buckets[0].append(idx[:n_train])
        buckets[1].append(idx[n_train:n_train + n_val])
        buckets[2].append(idx[n_train + n_val:])
    out = []
    for tag, parts in zip(("train", "val", "test"), buckets):
        if sum(p.size for p in parts) == 0:
            # an empty split fails later (no batch, a 0/0 accuracy) with another error
            raise DataError(f"{raw.n} samples leave the {tag} split empty")
        sel = np.sort(np.concatenate(parts))
        out.append(Dataset(x=raw.x[sel], y=raw.y[sel], split=tag))
    return tuple(out)


def batches(n_samples, batch_size, rng):
    """Index batches for one epoch: one `rng.permutation` shuffle, remainder dropped."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = rng.permutation(n_samples)
    for start in range(0, n_samples - batch_size + 1, batch_size):
        yield order[start:start + batch_size]


# ---------------------------------------------------------------------------
# Synthetic desk-scale dataset
# ---------------------------------------------------------------------------

def synth_dataset(classes, count, size, channels=3, seed=0, noise=0.05) -> Dataset:
    """Class-conditional oriented sinusoid images plus noise.

    Each class k gets a fixed grating orientation (angle pi*k/classes);
    per-image amplitude jitter and Gaussian noise keep it non-trivial
    while remaining learnable by a small CNN.
    """
    if count % classes != 0:
        raise DataError(f"count {count} not divisible by {classes} classes")
    rng = np.random.default_rng(seed)
    per = count // classes
    coords = np.linspace(-1.0, 1.0, size)
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    xs, ys = [], []
    for k in range(classes):
        theta = np.pi * k / classes
        proj = xx * np.cos(theta) + yy * np.sin(theta)
        pattern = np.sin(2.0 * np.pi * 1.5 * proj)
        amp = 0.3 + 0.1 * rng.random(per)
        imgs = 0.5 + amp[:, None, None] * pattern[None]
        imgs = imgs[:, None, :, :].repeat(channels, axis=1)
        # mild per-channel shading so channels are not identical
        shade = 1.0 - 0.1 * np.arange(channels)
        imgs = 0.5 + (imgs - 0.5) * shade[None, :, None, None]
        imgs = imgs + rng.normal(0.0, noise, size=imgs.shape)
        xs.append(np.clip(imgs, 0.0, 1.0))
        ys.append(np.full(per, k, np.int64))
    order = rng.permutation(count)
    x = np.concatenate(xs)[order]
    y = np.concatenate(ys)[order]
    return Dataset(x=x, y=y, split="raw")


# ---------------------------------------------------------------------------
# Encoding through a trained CAE and the EVOD cache format
# ---------------------------------------------------------------------------

def encode_dataset(encoder_net, ds: Dataset) -> Dataset:
    """Replace every sample with its encoding; labels and split kept."""
    return replace(ds, x=np.concatenate([out for _, out in encoder_net.forward_chunks(ds.x)]))


_EVOD_MAGIC = b"EVOD"
_EVOD_VERSION = 1


def write_evod(path, ds: Dataset):
    """Write ds as an EVOD cache. An empty shape or a pixel that is not a
    finite float32, both of which `read_evod` rejects, or a label outside
    [0, 255], which one byte would wrap, raises DataError, and nothing is
    written."""
    n, c, h, w = ds.x.shape
    if 0 in (n, c, h, w):
        raise DataError(f"{path}: empty EVOD shape {(n, c, h, w)}")
    if np.any((ds.y < 0) | (ds.y > 255)):
        raise DataError(f"{path}: EVOD labels are bytes, got {ds.y.min()}..{ds.y.max()}")
    with np.errstate(over="ignore", invalid="ignore"):  # what the cast makes non-finite is rejected
        x = ds.x.astype("<f4")
    if not np.isfinite(x).all():
        raise DataError(f"{path}: non-finite pixel")
    with open(path, "wb") as fh:
        fh.write(_EVOD_MAGIC)
        fh.write(struct.pack("<IIIII", _EVOD_VERSION, n, c, h, w))
        fh.write(x.tobytes())
        fh.write(ds.y.astype(np.uint8).tobytes())


def read_evod(path, split="raw") -> Dataset:
    raw = Path(path).read_bytes()
    if raw[:4] != _EVOD_MAGIC:
        raise DataError(f"{path}: not an EVOD file")
    off = 24
    if len(raw) < off:
        raise DataError(f"{path}: truncated EVOD header")
    version, n, c, h, w = struct.unpack_from("<IIIII", raw, 4)
    if version != _EVOD_VERSION:
        raise DataError(f"{path}: unsupported EVOD version {version}")
    if 0 in (n, c, h, w):
        # an empty split or sample fails later in training with another error
        raise DataError(f"{path}: empty EVOD shape {(n, c, h, w)}")
    size = n * c * h * w
    if len(raw) != off + 4 * size + n:
        raise DataError(f"{path}: truncated EVOD file")
    x = np.frombuffer(raw, "<f4", size, off)
    if not np.isfinite(x).all():
        raise DataError(f"{path}: non-finite pixel")
    x = x.astype(np.float64).reshape(n, c, h, w)
    y = np.frombuffer(raw, np.uint8, n, off + 4 * size).astype(np.int64)
    return Dataset(x=x, y=y, split=split)
