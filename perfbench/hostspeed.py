"""Host speed, measured next to every timed op.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over minutes as other tenants load them. Probes on a 2-vCPU Intel Xeon VM
saw a pure-Python loop take 10.8 to 15.9 ms from one second to the next,
and one exact_scan input's latency move from 49 to 98 ms within 20
minutes. So before every timed op (and every set-up launch) the worker
times a small fixed kernel that uses no pmdpdl code: 2x2 complex matmuls,
complex arithmetic and 17-digit formatting in a Python loop, plus a batched
quadratic form and a Gaussian overlap matrix in numpy, the same kinds of
work the program does. Each timing is then scaled by REFERENCE_S over the kernel's
rolling median time around it: a time "at reference speed" is the time the
op would take on the host when the kernel takes REFERENCE_S.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# About the kernel's fastest time on the 2-vCPU Intel Xeon VM the benchmark
# was written on (Python 3.11, numpy 2.4). Only a unit: any constant would do.
REFERENCE_S = 0.0004
# Kernel samples on each side of an op that its speed factor uses.
HALF_WINDOW = 5

_MATRIX = np.array([[0.6, 0.8j], [0.8j, 0.6]])
_STATES = (np.arange(1440.0).reshape(720, 2) % 7) + 1j
_DELAYS = np.linspace(-1.0, 1.0, 128)


def kernel() -> float:
    rows = []
    acc = 0j
    for i in range(40):
        v = _MATRIX @ _MATRIX
        z = complex(v[0, 1]) * complex(1.0, i)
        acc += z
        rows.append(f"{z.real:.17g},{abs(z):.17g}")
    quad = np.real(np.einsum("gi,ij,gj->g", _STATES.conj(), _MATRIX, _STATES))
    dd = _DELAYS[:, None] - _DELAYS[None, :]
    return len("\n".join(rows)) + acc.real + float(quad.sum() + np.exp(-dd * dd).sum())


def sample() -> float:
    """Seconds the kernel takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def factors(samples: list[float]) -> list[float]:
    """Per sample: REFERENCE_S over the median of the samples within
    HALF_WINDOW of it; multiply a time taken next to it by this."""
    out = []
    for i in range(len(samples)):
        window = samples[max(0, i - HALF_WINDOW): i + HALF_WINDOW + 1]
        out.append(REFERENCE_S / statistics.median(window))
    return out
