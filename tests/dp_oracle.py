"""Reference Dormand-Prince step and error norm for riemdyn.dynamics_newton, kept as a test oracle.

The package generates one straight-line step per state length, which
combines the seven stages in Python floats: per component, a sum that
starts at +0.0 and adds a_j * k_j stage by stage, and then the RMS error
norm, its squares summed from +0.0 in component order. This is the array
form it matches: each combination is a Python ``sum`` over a generator of
coefficient-times-stage array products, which adds in that same order,
and error_norm sums the squares of the scaled error left to right. The
tests require the two to agree bit for bit. numpy_error_norm is the numpy
expression the integrator once evaluated on y5 - y4, kept unchanged as a
second reference: np.add.reduce sums pairwise from 8 terms on, so it may
differ from error_norm in the last bits there.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["dp_step", "dp_step_and_norm", "error_norm", "numpy_error_norm", "scaled_error"]

# Dormand-Prince 5(4) tableau; the first error row is the 5th-order
# propagated solution, the second the embedded 4th-order estimate.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


def dp_step(f, t, y, dt):
    """(y5, y5 - y4) of one step."""
    ks = []
    for i in range(7):
        yi = y if i == 0 else y + dt * sum(a * k for a, k in zip(_DP_A[i], ks))
        ks.append(f(t + _DP_C[i] * dt, yi))
    y5 = y + dt * sum(b * k for b, k in zip(_DP_B5, ks))
    y4 = y + dt * sum(b * k for b, k in zip(_DP_B4, ks))
    return y5, y5 - y4


def scaled_error(y, y5, err, atol, rtol):
    """err scaled by the mixed tolerance atol + rtol * max(|y|, |y5|)."""
    return err / (atol + rtol * np.maximum(np.abs(y), np.abs(y5)))


def error_norm(y, y5, err, atol, rtol):
    """RMS of the scaled error, its squares summed from +0.0 left to right."""
    q = scaled_error(y, y5, err, atol, rtol)
    total = 0.0
    for square in (q * q).tolist():
        total += square
    return math.sqrt(total / q.size)


def numpy_error_norm(y, y5, err, atol, rtol):
    """RMS of the scaled error: np.mean's sum and division."""
    q = scaled_error(y, y5, err, atol, rtol)
    return math.sqrt(float(np.add.reduce(q * q)) / q.size)


def dp_step_and_norm(f, t, y, dt, atol, rtol):
    """(y5, error norm) of one step: the outputs of the package's generated step."""
    y5, err = dp_step(f, t, y, dt)
    return y5, error_norm(y, y5, err, atol, rtol)
