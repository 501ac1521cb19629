"""Seeded input generation, written in the program's own input formats.

Images are drawn from ten class prototypes. Each prototype is a sum of
random low-frequency colour gratings; each image mixes its class
prototype with a second, random prototype, a private random field and
its class tint, then adds pixel noise. The mixing weights make the
classes overlap, so a classifier cannot reach accuracy 1.0. Every
prototype is scaled to the same energy and the tints are evenly spread
colour directions under a random rotation, so how hard a seed's data is
varies little between seeds.

Two writers hand the data over:

- `write_cifar_batch`: one CIFAR-10 binary batch (1 label byte plus
  3072 channel-major pixel bytes per record), read by the program's
  `cifar10` data source, which splits it 45:5:10 itself.
- `write_evod`: one EVOD cache per split (magic, five little-endian
  uint32 header fields, float32 pixels, uint8 labels), read by the
  program's `evod` data source.

Both writers are implemented here from the format descriptions, not
with the program's own serializers.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

CLASSES = 10
CIFAR_SIDE = 32
CIFAR_RECORD = 1 + 3 * CIFAR_SIDE * CIFAR_SIDE


def sub_seed(seed: int, *parts: int) -> np.random.SeedSequence:
    """Independent stream for one (workload seed, trajectory, ...) tuple."""
    return np.random.SeedSequence([int(seed), *map(int, parts)])


def make_images(ss: np.random.SeedSequence, n: int, side: int, classes: int = CLASSES):
    """(pixels uint8 (n,3,side,side), labels uint8 (n,)), classes balanced."""
    if n % classes:
        raise ValueError(f"sample count {n} not divisible by {classes} classes")
    rng = np.random.default_rng(ss)
    coords = np.linspace(0.0, 1.0, side)
    yy, xx = np.meshgrid(coords, coords, indexing="ij")

    def pattern(components):
        img = np.zeros((3, side, side))
        for _ in range(components):
            fy, fx = rng.uniform(-3.0, 3.0, 2)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            colour = rng.normal(0.0, 1.0, 3)
            img += colour[:, None, None] * np.sin(2.0 * np.pi * (fx * xx + fy * yy) + phase)
        img -= img.mean()
        return img / np.sqrt((img * img).mean())

    protos = np.stack([pattern(6) for _ in range(classes)])
    # class tints: evenly spread unit colour vectors under a random rotation,
    # so every seed's classes are equally far apart
    turn = np.arange(classes) * np.pi * (3.0 - np.sqrt(5.0))
    z = 1.0 - 2.0 * (np.arange(classes) + 0.5) / classes
    r = np.sqrt(1.0 - z * z)
    spread = np.stack([r * np.cos(turn), r * np.sin(turn), z], axis=1)
    rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    tints = spread @ rotation
    labels = rng.permutation(np.repeat(np.arange(classes), n // classes))
    others = rng.integers(0, classes, n)
    x = np.empty((n, 3, side, side))
    for i in range(n):
        own = rng.uniform(0.6, 1.0) * protos[labels[i]]
        mixed = rng.uniform(0.3, 0.8) * protos[others[i]]
        field = 0.5 * pattern(2)
        tint = (tints[labels[i]] + rng.normal(0.0, 0.5, 3))[:, None, None]
        x[i] = 0.5 + 0.21 * (own + mixed + field) + 0.05 * tint + rng.normal(0.0, 0.06, (3, side, side))
    pixels = np.clip(np.rint(x * 255.0), 0, 255).astype(np.uint8)
    return pixels, labels.astype(np.uint8)


def write_cifar_batch(path, pixels, labels):
    n = labels.shape[0]
    if pixels.shape != (n, 3, CIFAR_SIDE, CIFAR_SIDE):
        raise ValueError(f"CIFAR records hold 3x32x32 images, got {pixels.shape[1:]}")
    records = np.empty((n, CIFAR_RECORD), np.uint8)
    records[:, 0] = labels
    records[:, 1:] = pixels.reshape(n, -1)
    Path(path).write_bytes(records.tobytes())


def write_evod(path, x, labels):
    n, c, h, w = x.shape
    with open(path, "wb") as fh:
        fh.write(b"EVOD")
        fh.write(struct.pack("<5I", 1, n, c, h, w))
        fh.write(np.asarray(x, "<f4").tobytes())
        fh.write(np.asarray(labels, np.uint8).tobytes())
