"""A fixed reference computation that gauges how fast the host runs now.

The benchmark host is a shared virtual machine.  Its speed changes by
30–70% in spells that last from about a second to several minutes, with no
steal time reported and process CPU time tracking wall time, so neither
CPU time nor longer runs take the spells out of a wall-clock rate.  The
end-to-end rates are therefore expressed in *reference seconds*: wall
seconds scaled by how fast the host ran a fixed reference pass, measured
in the same process in between the trials.

One pass does four kinds of work, the kinds the workloads spend their time
on: an interpreter loop, a loop of small numpy operations on vectors of
200, a loop of numpy operations on a 200 x 40 iterate (row gradient, row
norms, top-k rows, a sampled row index, a residual norm), and LAPACK
``gelsy`` least-squares solves of a wide 100 x 180 system.  Its inputs are
fixed here and it calls no ``mmvgreedy`` code, so a change to the program
does not change the pass; it moves only the measured side of the ratio.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

# Nominal duration of one pass: its median on a fast spell of the baseline
# host (README.md, "First baseline").  It fixes the scale of a reference
# second, so that reference rates read close to wall rates on that host.
REF_PASS_S = 0.009

_rng = np.random.default_rng(20260810)
_A = _rng.standard_normal((100, 200))
_y = _rng.standard_normal(100)
_Y = _rng.standard_normal((100, 40))
_X0 = _rng.standard_normal((200, 40))
_W = _rng.standard_normal((100, 180))
_b = _rng.standard_normal((100, 1))
_p = np.full(100, 0.01)


def reference_pass():
    """One pass of the fixed reference work."""
    total = 0
    for i in range(30000):
        total += i * i
    x = np.zeros(200)
    for it in range(60):
        i = it % 100
        x = x - _A[i] * (_A[i] @ x - _y[i])
        keep = np.argpartition(np.abs(x), -5)[-5:]
        z = np.zeros_like(x)
        z[keep] = x[keep]
        x = z
        float(np.linalg.norm(_A @ x - _y))
    X = _X0.copy()
    for it in range(25):
        rows = [int(np.searchsorted(np.cumsum(_p), it * 0.37 % 1.0, side="right"))]
        if not np.isfinite(X).all():
            raise FloatingPointError("reference iterate is not finite")
        X = X - 0.01 * (_A[rows].T @ (_A[rows] @ X - _Y[rows]))
        norms = np.sqrt(np.einsum("ij,ij->i", X, X))
        keep = sorted(int(v) for v in np.argpartition(norms, -5)[-5:])
        Z = np.zeros_like(X)
        Z[keep] = X[keep]
        X = Z + 1e-3 * _X0
        float(np.linalg.norm(_A @ X - _Y) / np.linalg.norm(_Y))
    for _ in range(2):
        scipy.linalg.lstsq(_W, _b, lapack_driver="gelsy", check_finite=False)


class HostGauge:
    """Times reference passes, one per ``every_s`` of measured wall time.

    ``tick`` is called between units of measured work.  It runs as many
    passes as whole ``every_s`` intervals have gone by since the last
    passes, so the passes sample the host's speed evenly over the measured
    time, and returns the seconds it spent, which the caller leaves out of
    its own timings.
    """

    def __init__(self, every_s=0.25, clock=time.perf_counter, run_pass=reference_pass):
        self.every_s = every_s
        self._clock = clock
        self._run_pass = run_pass
        self._mark = None
        self.pass_s = []

    def run(self, passes):
        """Run and time ``passes`` passes; return the seconds they took."""
        clock = self._clock
        began = clock()
        for _ in range(passes):
            start = clock()
            self._run_pass()
            self.pass_s.append(clock() - start)
        return clock() - began

    def tick(self):
        now = self._clock()
        if self._mark is None:
            self._mark = now
        due = int((now - self._mark) / self.every_s)
        if not due:
            return 0.0
        spent = self.run(due)
        # the passes' own time is not measured time
        self._mark += due * self.every_s + spent
        return spent

    def speed(self):
        """How fast the host ran the passes, relative to the nominal pass
        (above 1 means faster); multiplying a wall time by it gives
        reference seconds."""
        return REF_PASS_S * len(self.pass_s) / sum(self.pass_s)
