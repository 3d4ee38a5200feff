"""Machine-speed calibration.

On a shared machine the speed available to one process drifts by tens of
percent over minutes, and every workload's ops slow and speed up
together.  A fixed kernel that does the same kind of work as the
program -- products of sparse polynomials with Fraction coefficients,
stored in dicts keyed by exponent tuples -- slows and speeds up with
them.  The benchmark times this kernel right before each in-process op
and reports the op scaled to the kernel's nominal time: seconds at a
reference machine speed.  Fresh-process timings are paired the same way
with a reference process, a fresh interpreter that runs the kernel
(``fresh.py``).  The kernel uses only the standard library, so no change
to the program can move it.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# Nominal times of one kernel run and of one reference process: the
# reference speed that scaled times refer to.
REFERENCE_S = 0.05
REFERENCE_PROCESS_S = 0.3
PROCESS_KERNELS = 3


def kernel() -> int:
    rng = random.Random(1)
    p = {
        tuple(rng.randint(0, 3) for _ in range(4)): Fraction(rng.randint(1, 9), rng.randint(1, 9))
        for _ in range(30)
    }
    q = dict(p)
    for _ in range(2):
        out: dict = {}
        for ea, ca in p.items():
            for eb, cb in q.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        p = out
    return len(p)


def seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(measured_s: float, kernel_s: float) -> float:
    """A measurement taken next to a kernel run, at reference speed."""
    return measured_s * REFERENCE_S / kernel_s


if __name__ == "__main__":
    # the reference process
    for _ in range(PROCESS_KERNELS):
        kernel()
