"""Reference kernel: the host's speed, sampled next to a timed workload.

    python3 perfbench/calibrate.py

Runs a fixed kernel (interpreter, NumPy, BLAS and SciPy work, none of it
from the program) every :data:`PERIOD_S` until its standard input closes,
then prints one JSON list: the CPU milliseconds of every run.  A first
line, ``ready``, says that set-up is over and sampling has begun.

The kernel's median CPU time is the unit of the benchmark's
``cost_per_op``.  A shared host slows the program's computations and the
kernel's together, so their ratio keeps the program's own cost.
"""

from __future__ import annotations

import json
import mmap
import select
import sys
import time

import benchlib  # noqa: F401  (pins BLAS to one thread before NumPy loads)
import numpy as np

#: Pause between kernel runs; at about 13 ms per run the kernel keeps about
#: a tenth of one core busy.
PERIOD_S = 0.1


class Kernel:
    """A fixed blend of the kinds of work the program does: interpreter
    loops, JSON encoding, small dense algebra (matmul, FFT), a sparse
    triangular solve, a 3x3 convolution (im2col + matmul) and FFTs over a
    batch of feature maps, elementwise passes over 2 MiB and first-touch
    page faults on 1 MiB of fresh memory; about 13 ms."""

    def __init__(self) -> None:
        import scipy.sparse as sparse
        import scipy.sparse.linalg as sparse_linalg

        rng = np.random.default_rng(0)
        self.matrix = rng.random((64, 64))
        self.grid = rng.random((24, 24))
        self.rows = self.grid.tolist()
        self.stream = rng.random(1 << 18)
        self.scratch = np.empty_like(self.stream)
        side = 48
        line = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(side, side))
        eye = sparse.identity(side)
        laplacian = (sparse.kron(eye, line) + sparse.kron(line, eye)).tocsc()
        self.factor = sparse_linalg.splu(laplacian)
        self.rhs = rng.random(side * side)
        # A batch of 16-channel 32x32 feature maps (padded for 3x3) and the
        # weights of a 3x3 convolution over them, as the operator uses.
        self.features = rng.random((8, 16, 34, 34), dtype=np.float32)
        self.weights = rng.random((16, 16 * 9), dtype=np.float32)

    def __call__(self) -> float:
        table: dict = {}
        total = 0.0
        for i in range(3000):
            table[i & 127] = i
            total += table.get((i * 7) & 127, 0)
        total += len(json.dumps(self.rows))
        for _ in range(16):
            total += float((self.matrix @ self.matrix)[0, 0])
        for _ in range(4):
            total += float(np.abs(np.fft.rfft2(self.grid)).sum())
        total += float(self.factor.solve(self.rhs)[0])
        windows = np.lib.stride_tricks.sliding_window_view(self.features, (3, 3), axis=(2, 3))
        columns = windows.transpose(0, 2, 3, 1, 4, 5).reshape(-1, self.weights.shape[1])
        total += float((self.weights @ columns.T)[0, 0])
        spectrum = np.fft.rfft2(self.features[:, :, :32, :32])
        total += float(np.fft.irfft2(spectrum * 0.5, s=(32, 32))[0, 0, 0, 0])
        np.multiply(self.stream, self.stream, out=self.scratch)
        total += float(np.sqrt(self.scratch, out=self.scratch).sum())
        fresh = mmap.mmap(-1, 1 << 20)
        pages = np.frombuffer(fresh, dtype=np.uint8)
        pages[::mmap.PAGESIZE] = 1
        total += float(pages[::mmap.PAGESIZE].sum())
        del pages
        fresh.close()
        return total


def main() -> int:
    kernel = Kernel()
    kernel()
    print("ready", flush=True)
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        started = time.thread_time()
        kernel()
        samples.append((time.thread_time() - started) * 1e3)
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
