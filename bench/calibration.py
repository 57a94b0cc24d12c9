"""Calibration kernels that ``run_cal`` is measured in.

Each kernel is a few ms of fixed work that no change to misstab can speed
up, of the kind its workload spends its time on.  The runner times each
operation between two runs of its workload's kernel and divides by their
mean.  On a machine whose speed drifts (see bench/README.md), that ratio
moves far less than wall time, because the kernel slows down with the
operation.  The inputs are built once, at import.
"""

import time
from fractions import Fraction

import numpy as np

_ROWS = np.arange(1000.0)
_DESIGN = np.cos(np.outer(_ROWS, np.arange(250.0)) * 1e-3) + np.eye(1000, 250)
_TARGET = np.sin(_ROWS)
_CELLS = np.full((3, 3, 2, 2), 1.0)


def mixed():
    """Python-level work on ints, dicts and Fractions, numpy calls on a
    small vector and a small matrix product, as in drawing and screening
    replicate tables (bootstrap-screen)."""
    total = 0
    slots = {}
    for i in range(1, 6000):
        slots[i % 97] = Fraction(i, i + 3) if i % 7 == 0 else i * 2
        total += i & 255
    vec = np.arange(64.0)
    for _ in range(300):
        vec = vec * 1.0000001 + 1.0
    mat = np.eye(96) + 1e-3
    for _ in range(4):
        mat = mat @ mat
    return total, slots, vec, mat


def small_arrays():
    """numpy calls on a 3x3x2x2 array, where call overhead dominates, as in
    EM on the two-variable tables (fit-boundary)."""
    cells = _CELLS
    for _ in range(600):
        margin = cells.sum(axis=(0,), keepdims=True)
        cells = cells * np.where(margin > 0, 1.0 / margin, 0.0) * 3.0
    return cells


def linear_algebra():
    """A dense least-squares solve, as in lambda recovery on the large
    table (fit-large)."""
    return np.linalg.lstsq(_DESIGN, _TARGET, rcond=None)[0]


def kernel_seconds(kernel):
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
