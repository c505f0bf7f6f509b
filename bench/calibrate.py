"""The calibration kernel: a fixed piece of pure Python that times the
machine's current speed.

On a shared machine the same code runs up to 1.5 times slower for spells
from seconds to many minutes, and wall and CPU time slow down together.
The benchmark times this kernel right before and right after each op and
scales the op's time by ``REFERENCE_S`` over the mean of the two: its
figures read as times on a machine where the kernel takes
``REFERENCE_S``.  The kernel lives in the
benchmark, not in normsum, so no change to the program moves it.  Its
work (modular polynomial products over lists and a dict) is the same kind
of interpreter work as normsum's field arithmetic.

``REFERENCE_S`` is a fixed scale, about the kernel's time on a 2-vCPU
Intel Xeon at 2.1 GHz.  Changing it, or the kernel, changes every scaled
figure, so results before and after such a change do not compare.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.0035
REPEATS = 2


def kernel() -> int:
    p = 1009
    a, b = list(range(1, 24)), list(range(7, 30))
    seen = {}
    for rep in range(60):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        seen[rep] = out[rep % len(out)]
        a = out[: len(b)]
    return sum(seen.values())


def measure() -> tuple:
    """(wall s, CPU s) of the kernel, each the best of ``REPEATS`` runs."""
    walls, cpus = [], []
    for _ in range(REPEATS):
        w0, c0 = time.perf_counter(), time.process_time()
        kernel()
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
    return min(walls), min(cpus)
