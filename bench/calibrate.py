"""Host-speed calibration for the untraced runs.

On a shared virtual machine the speed of one fixed piece of Python drifts by
tens of percent over minutes, and every op of a run drifts with it.  The
workload process therefore times a fixed calibration burst after every
``worker.CALIBRATE_EVERY_S`` of op time, and reports its times scaled by

    scale = REFERENCE_BURST_S / mean burst time of this run,

that is, in milliseconds (and ops per second) of the reference host at the
speed it had when the constants below were set.  ``run.py`` scales
``setup_s`` the same way, with a burst before each launch.  The burst is the benchmark's own code and never calls quasiham,
so no change of the program moves it; a faster program still reads faster.
The raw, unscaled times are kept in the run record beside the scaled ones.

The burst mixes the kinds of work the workloads do: ``Fraction`` arithmetic,
dict and list churn, and (for the numerical workloads, which import numpy
anyway) small dense linear algebra.  The exact workload's burst imports no
numpy, so that workload's process never loads it.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# Mean burst time on the reference host (2-vCPU KVM guest, Intel Xeon,
# Python 3.11.7, numpy 2.4.6 with OpenBLAS pinned to one thread).  Fixed
# constants: changing them rescales every reported time.
REFERENCE_BURST_S = {"exact": 0.033, "numeric": 0.032}


def _python_work(n: int) -> int:
    acc = 0
    for i in range(n):
        x = Fraction(i % 11 + 1, i % 13 + 1)
        y = x * x - x / 3 + Fraction(1, i % 5 + 1)
        acc += y.numerator % 7
    table = {}
    for i in range(8 * n):
        table[i % 97] = table.get(i % 97, 0) + i
    return acc + len(sorted(str(v) for v in table.values()))


def _numeric_work(np) -> float:
    """Many calls on small complex matrices, as in the sampling code of the
    numerical workloads, plus a few on a larger real one."""
    rng = np.random.default_rng(0)
    z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    acc = 0.0
    for _ in range(150):
        w = z @ z.conj().T
        acc += float(np.abs(np.linalg.eigvals(w)).max()) + float(np.trace(w).real)
        z = z + 1e-3 * w / (1.0 + acc)
    a = np.arange(36 * 36, dtype=float).reshape(36, 36) / 1000.0
    for _ in range(10):
        acc += float(np.linalg.eigvalsh(a @ a.T)[-1])
    return acc


class Calibrator:
    def __init__(self, numeric: bool):
        self.kind = "numeric" if numeric else "exact"
        self.np = None
        if numeric:
            import numpy

            self.np = numpy
        self.bursts = []

    def burst(self) -> None:
        t0 = perf_counter()
        if self.np is None:
            _python_work(2500)
        else:
            _python_work(1250)
            _numeric_work(self.np)
        self.bursts.append(perf_counter() - t0)

    def scale(self) -> float:
        """Multiplier taking this run's times to the reference host's speed."""
        return REFERENCE_BURST_S[self.kind] / statistics.fmean(self.bursts)

    def record(self) -> dict:
        return {
            "kind": self.kind,
            "bursts": len(self.bursts),
            "mean_burst_s": statistics.fmean(self.bursts),
            "reference_burst_s": REFERENCE_BURST_S[self.kind],
            "scale": self.scale(),
        }
