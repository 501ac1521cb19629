#!/usr/bin/env python3
"""Peak memory and time of one conv training step at the default search
space's widest channels.

    PYTHONPATH=src python3 scripts/conv_memory_probe.py

Runs one forward and one backward pass, with input gradient, of a float64
3x3, 256 -> 256-channel, stride-1 conv on a batch of 50 32x32 inputs (the
default config's batch size and CIFAR-10's side), in this process with BLAS
pinned to one thread before numpy is imported.

Prints the input's size, the peak resident set the step added (this
process's VmHWM after the step, as perfbench/trajectory.py reads it, less
its VmRSS before it), that peak as a multiple of the input, and the
forward and backward seconds. The input and the output gradient exist
before the step starts, so the added peak is what the layer allocates:
what it keeps between the passes, its temporaries, its output and the
input gradient it returns.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time
from pathlib import Path

import numpy as np

from evocnn import engine as eng

BATCH, CHANNELS, SIDE, KERNEL = 50, 256, 32, 3
MIB = 1 << 20


def status_kib(field):
    """A `field:` line of /proc/self/status, in KiB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    raise RuntimeError(f"no {field} in /proc/self/status")


def main():
    rng = np.random.default_rng(0)
    layer = eng.ConvLayer(CHANNELS, CHANNELS, KERNEL, KERNEL)
    layer.init_weights(rng)
    x = rng.standard_normal((BATCH, CHANNELS, SIDE, SIDE))
    gy = rng.standard_normal((BATCH, CHANNELS, *layer.out_shape(SIDE, SIDE)))
    before_kib = status_kib("VmRSS")
    t0 = time.perf_counter()
    layer.forward(x)
    t1 = time.perf_counter()
    gx = layer.backward(gy)
    t2 = time.perf_counter()
    added = (status_kib("VmHWM") - before_kib) / 1024
    assert gx.shape == x.shape
    input_mib = x.nbytes / MIB
    print(f"input: {input_mib:.1f} MiB ({' x '.join(map(str, x.shape))} {x.dtype})")
    print(f"peak rss added: {added:.1f} MiB ({added / input_mib:.2f}x the input)")
    print(f"forward: {t1 - t0:.2f} s")
    print(f"backward: {t2 - t1:.2f} s")


if __name__ == "__main__":
    main()
