"""Host speed, read from a fixed kernel that runs no saturee code.

The benchmark gets a few cores of a shared host whose speed drifts, by
up to a factor of two, over seconds to minutes.  Raw timings follow that
drift more than they follow the program.  So the benchmark times a fixed
kernel next to every timed block and every set-up probe, and scales each
timing by ``REFERENCE_S / kernel time``: a scaled timing reads as seconds
on a host on which the kernel takes ``REFERENCE_S``.  A change to the
program moves the timing and leaves the kernel alone; a change of host
speed moves both.

Set-up is an import, paced by loading shared libraries and starting
their BLAS thread pools rather than by the interpreter loop, and it
drifts apart from the kernel.  So each set-up probe is paired with a
probe that imports the program's dependencies, numpy and scipy.linalg,
which the program cannot change, and is scaled by
``REFERENCE_IMPORT_S / dependency import time``.  Both imports start the
same two OpenBLAS libraries, whose start-up drifts most: numpy's import
alone read 0.09 s and 0.17 s in runs minutes apart.

The kernel is the mix the 3x3 solvers spend their time on: small numpy
calls and interpreter work.  It calls no BLAS routine large enough to use
threads, so thread settings made inside the program cannot move it.  It
is timed in CPU time of its own thread: BLAS threads the program leaves
spinning after a 64x16 block take turns on the cores with the kernel,
and wall time would read that as a slower host (up to twice as slow).
"""
from __future__ import annotations

import time

import numpy as np

# The kernel's median time on the 2-vCPU Intel Xeon VM the benchmark was
# built on.  It only sets the scale of the numbers; ratios between runs
# do not depend on it.
REFERENCE_S = 0.045
# The median time to import scipy.linalg, and with it numpy, in a fresh
# interpreter on that VM.
REFERENCE_IMPORT_S = 0.36
ROUNDS = 3000

_A = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]],
              dtype=complex)
_B = np.ones(3, dtype=complex)


def kernel_seconds() -> float:
    """CPU time of this thread for one run of the kernel."""
    t0 = time.thread_time()
    total = 0.0
    for _ in range(ROUNDS):
        x = np.linalg.solve(_A, _B)
        total += float(np.abs(x @ x.conj()))
        for j in range(20):
            total += j * 0.5
    return time.thread_time() - t0


def scale(kernel_s: float) -> float:
    """Factor that turns a timing taken beside kernel_s into reference
    seconds."""
    return REFERENCE_S / kernel_s


def import_scale(deps_import_s: float) -> float:
    """Factor that turns an import time taken beside deps_import_s into
    reference seconds."""
    return REFERENCE_IMPORT_S / deps_import_s
