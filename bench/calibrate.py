"""Machine-speed calibration for the benchmark's timings.

The hosts this benchmark runs on change speed by up to a third for minutes
at a time (other tenants share the cores), which is far more than the
regressions the benchmark must resolve.  A fixed kernel of the same kinds
of work as thermoqme's (2x2 `eigh` and matmuls, where interpreter overhead
dominates, and 16x16 ones, where arithmetic does) is timed in slices
interleaved with the measured operations; the reported timings are the measured ones scaled to the speed
at which one kernel unit takes REFERENCE_UNIT_S.  The scale factor and the
unscaled values are printed with every result.
"""

from time import perf_counter

import numpy as np

# About the median unit time on the 2-vCPU Intel Xeon host where the benchmark was defined.
REFERENCE_UNIT_S = 2.0e-3

_SMALL = np.array([[0.6, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]])
_g = np.random.default_rng(0).normal(size=(2, 16, 16))
_LARGE = (_g[0] + 1j * _g[1]) + (_g[0] + 1j * _g[1]).conj().T


def _unit() -> float:
    t0 = perf_counter()
    for a, repeats in ((_SMALL, 40), (_LARGE, 8)):
        for _ in range(repeats):
            w, u = np.linalg.eigh(a)
            float(np.real(np.trace((u * w) @ u.conj().T @ a)))
    return perf_counter() - t0


def sample(seconds: float) -> tuple[int, float]:
    """Run whole kernel units for about `seconds`: (units, seconds taken)."""
    units, taken = 0, 0.0
    end = perf_counter() + seconds
    while True:
        taken += _unit()
        units += 1
        if perf_counter() >= end:
            return units, taken


def scale(*samples: tuple[int, float]) -> float:
    """Factor that turns a time measured during `samples` into a
    reference-speed time."""
    return REFERENCE_UNIT_S * sum(u for u, _ in samples) / sum(t for _, t in samples)
