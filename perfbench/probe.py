"""A fixed reference computation that measures how fast the host runs now.

The benchmark shares its CPU with other tenants; their load makes the same
code run up to about 1.7x slower for seconds to minutes at a time, which
moves every wall-clock figure of a run by as much.  The probe is a small,
frozen stand-in for the package's kind of work (an RK4 loop whose right
side uses einsum on 3x3x3 tensors, a matrix inverse and a Cholesky
factorization, a grid lookup, and float formatting).  It does not import
the package, so no change to the package can change its speed.

`warm_probe()` runs the probe twice (the first run refills the caches the
previous task used) and returns the second run's time.  The benchmark
times a warm probe between consecutive tasks and takes a task's host speed
as `PROBE_REF_S` over the mean of the probe times just before and just
after it; the task's wall time times that speed is the time it would take
on a host where the probe takes `PROBE_REF_S`: the calibrated seconds the
benchmark reports.
"""

import io
import time

import numpy as np

# About the warm probe's median on a 2-vCPU Intel Xeon sandbox (Python 3.11,
# numpy 2.4) at the faster of its two speeds; it only fixes the unit of the
# calibrated times.
PROBE_REF_S = 0.0012

_G = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.2]])
_C = np.linspace(-1.0, 1.0, 27).reshape(3, 3, 3)
_TS = np.linspace(0.0, 1.0, 101)


def _rhs(y):
    gi = np.linalg.inv(_G + 0.01 * np.outer(y, y))
    np.linalg.cholesky(_G)
    gamma = 0.5 * np.einsum("ijl,lk->ijk", np.einsum("iju,ul->ijl", _C, _G), gi)
    return -np.einsum("s,u,suj->j", y, y, gamma)


def probe():
    """Run the reference computation once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    y = np.array([0.3, -0.2, 0.1])
    out = io.StringIO()
    h = 0.01
    for k in range(8):
        k1 = _rhs(y)
        k2 = _rhs(y + 0.5 * h * k1)
        k3 = _rhs(y + 0.5 * h * k2)
        k4 = _rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        idx = int(np.clip(np.searchsorted(_TS, 0.37 + 0.01 * k, side="right") - 1, 0, 99))
        out.write(",".join(f"{v:.17g}" for v in (*y, _TS[idx])) + "\n")
    return time.perf_counter() - t0


def warm_probe():
    """Seconds of one probe run after a first run has warmed the caches."""
    probe()
    return probe()


def speed(before, after):
    """Host-speed factor of work done between two warm probe runs."""
    return PROBE_REF_S / (0.5 * (before + after))
