"""Reference kernels that measure the host's speed during a run.

The host's speed drifts by tens of percent over tens of seconds (see
README).  Each workload names the kernel whose work resembles its own;
``run.py`` times that kernel between rounds, in its own process, whose
state does not depend on nblab, and scales the run's times by the kernel's
nominal time over its median time in the run.
"""

from __future__ import annotations

import cmath
import time

import numpy as np

#: seconds each kernel takes on the reference host (2-core VM, see README)
NOMINAL_S = {"py": 0.010, "np": 0.040}


def _kernel_py() -> None:
    """Interpreter-bound: complex powers of short arrays and scalar complex
    arithmetic, the mix of a Dirichlet-series evaluation."""
    ks = np.arange(1.0, 321.0)
    acc = 0j
    for i in range(300):
        s = complex(0.5, 10.0 + i)
        acc += complex(np.sum(ks ** (-s)))
        z = s - 1.0
        for j in range(1, 9):
            acc += 1.0 / (z + j)
        acc += cmath.exp((z + 0.5) * cmath.log(z + 7.5) - z)


def _kernel_np() -> None:
    """Memory-bound: merge, sort and transform arrays of 2^20 doubles, the
    mix of a lattice walk."""
    a = np.arange(1.0, 2.0**19) * 1.4142135623730951
    pts = np.sort(np.concatenate((a, np.arange(1.0, 2.0**19))))
    u = np.diff(pts)
    w = u / pts[:-1]
    float(np.sum(np.log1p(w) - w / (1.0 + w)))


KERNELS = {"py": _kernel_py, "np": _kernel_np}


def time_kernel(name: str) -> float:
    """Seconds one run of the named kernel takes."""
    t0 = time.perf_counter()
    KERNELS[name]()
    return time.perf_counter() - t0
