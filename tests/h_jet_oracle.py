"""The closed-form jets of H (and of the quadratic L) as numpy forms, kept as a test oracle.

The package forms each jet in one pass over Python floats. This is the
numpy composition that pass replaced, unchanged: g^-1 @ p with g^-1 from
np.linalg.inv, the BLAS dots
p @ g^-1 @ p and y @ (m y), d(g^-1)/dx = -einsum("ia,abq,bj->ijq"), the
einsum contraction with y and the array arithmetic after it. The tests
require the quadratic L jet without f to agree bit for bit, and every
other jet to within a few ulps: a float sum rounds once per term where
numpy's 2-element dot fuses a multiply and an add, and the package's H
jets contract dg with u = g^-1 p where this form sums d(g^-1)/dx first.
Each jet comes with the scale of its x partials, the sum of the absolute
values of the terms each one adds, since a term that moves by an ulp
moves the partial by that much however much the terms cancel;
raised_form_scale is that scale for the terms of -u . dg . u / 2.
"""

from __future__ import annotations

import math

import numpy as np

import phi_inverse_oracle
from riemdyn import expression, manifold, normal_shift
from riemdyn.errors import DegenerateLagrangianError, ZeroVelocityError

__all__ = ["inverse_metric_partials", "raised_form_scale", "quadratic_jet", "fiberwise_jet"]


def inverse_metric_partials(chart, x) -> np.ndarray:
    """dginv[i, j, q] = d g^ij / d x^q = -(g^-1 (d g / d x^q) g^-1)^ij."""
    ginv = np.linalg.inv(manifold.metric_at(chart, x))
    dg = manifold.metric_partials_at(chart, x)
    return -np.einsum("ia,abq,bj->ijq", ginv, dg, ginv)


def raised_form_scale(chart, x, p) -> np.ndarray:
    """(1/2) sum_ab |dg_abq| |u_a| |u_b| for each q, with u = g^-1 p."""
    u = np.abs(np.linalg.inv(manifold.metric_at(chart, x)) @ p)
    return 0.5 * np.einsum("abq,a,b->q", np.abs(manifold.metric_partials_at(chart, x)), u, u)


def quadratic_jet(chart, rep, f, u, point) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dX/dx, fiber partials, scale of dX/dx) of (1/2) c y . (m y) + s U: L for rep "v", H for rep "p"."""
    f_expr, u_expr = (None if e is None else expression.coordinate_expr(e) for e in (f, u))
    sign = -1.0 if rep == "v" else 1.0
    x = point.x
    if rep == "v":
        y, my = point.v, manifold.metric_at(chart, x) @ point.v
    else:
        y, my = point.p, np.linalg.inv(manifold.metric_at(chart, x)) @ point.p
    c = 1.0 if f_expr is None else math.exp(2.0 * sign * expression.evaluate(f_expr, x))
    dm = manifold.metric_partials_at(chart, x) if rep == "v" else inverse_metric_partials(chart, x)
    out = 0.5 * np.einsum("ijq,i,j->q", dm, y, y)
    scale = np.abs(out)
    if f_expr is not None:
        df = np.array(expression.gradient(f_expr, x))
        scale = c * (scale + np.sum(np.abs(y * my)) * np.abs(df))
        out = c * (out + (sign * float(y @ my)) * df)
    if u_expr is not None:
        du = np.array(expression.gradient(u_expr, x))
        scale = scale + np.abs(du)
        out = out + sign * du
    return out, (my if f_expr is None else c * my), scale


def fiberwise_jet(chart, phi, c_source, state) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dH/dx, dH/dp, scale of dH/dx) of H = z phi'(z) - phi(z) at phi'(z) = |p|/C(x)."""
    phi_expr, c_expr = expression.profile_expr(phi), expression.coordinate_expr(c_source)
    x, p = state.x, state.p
    ginv = np.linalg.inv(manifold.metric_at(chart, x))
    pm = math.sqrt(max(float(p @ ginv @ p), 0.0))
    if pm <= normal_shift.zero_velocity_floor(x):
        raise ZeroVelocityError(f"momentum modulus {pm:.3e} is below the zero-velocity floor")
    c = expression.evaluate(c_expr, x)
    if c <= 0.0:
        raise DegenerateLagrangianError(f"C(x) = {c!r} must be positive for the fiberwise family")
    z = phi_inverse_oracle.invert_phi_prime(phi_expr, pm / c)
    dpm = 0.5 * np.einsum("ijq,i,j->q", inverse_metric_partials(chart, x), p, p) / pm
    dc = np.array(expression.gradient(c_expr, x))
    scale = z * (np.abs(dpm / c) + np.abs(pm * dc / (c * c)))
    return z * (dpm / c - pm * dc / (c * c)), (z / c) * (ginv @ p) / pm, scale
