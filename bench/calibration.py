"""Machine-speed kernels for reference-speed times.

On a shared virtual machine the speed drifts: the same check takes up
to 25% longer from one few-second window to the next, and up to 50%
over minutes. A fixed kernel timed between checks drifts with it, so
(check time) / (kernel time) is steady while the raw time is not. Gated
times are therefore reported at reference speed:

    reference time = measured time * REF / (median kernel time near the check)

REF is the kernel's typical time on the machine the benchmark was
defined on (2 vCPUs, Intel Xeon, numpy 2.4 with OpenBLAS 0.3.31), so
reference times read close to the milliseconds measured there. Raw
times are reported next to them.

In-process checks are calibrated by ``inprocess_kernel`` (the mix
polycrit's checkers run: Python bytecode, a small LAPACK eigensolve and
a BLAS product); ``polycrit`` processes by ``process_kernel`` (starting
an interpreter that imports numpy, most of a ``polycrit`` process's
start-up), which tracks process start-up far better than any in-process
kernel does. Against a bare interpreter start it halves the drift of
(check time) / (kernel time) between 30-second windows.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

import numpy as np

INPROCESS_REF_S = 0.0021
PROCESS_REF_S = 0.14

# fixed and generic; numpy.random stays unloaded
_MATRIX = np.sin(np.arange(1600.0) ** 2).reshape(40, 40)
_PRODUCT = np.exp(1j * np.arange(128 * 128.0) ** 1.3).reshape(128, 128)


def inprocess_kernel() -> float:
    """A Python loop, a small eigensolve and a complex product large
    enough for BLAS to use its threads."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += i * 0.5
    np.linalg.eigvals(_MATRIX)
    _PRODUCT @ _PRODUCT
    return perf_counter() - t0


def process_kernel(env: dict) -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, capture_output=True, timeout=60, check=True)
    return perf_counter() - t0
