"""Reference Euler-Lagrange force for riemdyn.dynamics_lagrange, kept as a test oracle.

force_from_lagrangian takes dL/dx, P, M and A from one pass per state and
forms the two covariant gradients itself. This is the composition it
replaced, unchanged: a_matrix and its determinant test, one
spatial_gradient of L and one of the momentum field, and a solve. M has
one source in the package, that pass, so the closed forms of M that the
quadratic and the fiberwise families once computed alone are kept here
too. The tests require the package to agree with all three bit for bit.
"""

from __future__ import annotations

import numpy as np

from riemdyn import dynamics_lagrange, expression, extended_fields, manifold, normal_shift

__all__ = ["force", "mixed", "quadratic_mixed", "fiberwise_mixed"]


def force(chart, lagrangian, point):
    """F solving A F = grad L - (grad P) . v, as force_from_lagrangian computed it."""
    a = dynamics_lagrange.a_matrix(chart, lagrangian, point)
    message = "fiber Hessian is singular (det {det:.3e})"
    dynamics_lagrange._require_regular(a, message)
    grad_l = extended_fields.spatial_gradient(chart, lagrangian.field, point).data
    momentum = dynamics_lagrange.momentum_field(lagrangian)
    grad_p = extended_fields.spatial_gradient(chart, momentum, point).data
    rhs = grad_l - grad_p @ point.v
    return np.linalg.solve(a, rhs)


def quadratic_mixed(chart, f_expr, point):
    """M[k, s] = e^(-2f) (d g_kj/dx^s v^j - 2 g_kj v^j df/dx^s) of (1/2) e^(-2f) |v|^2 - U."""
    x, v = point.x, point.v
    dgv = np.einsum("kjs,j->ks", manifold.metric_partials_at(chart, x), v)
    if f_expr is None:
        return dgv
    v_low = manifold.metric_at(chart, x) @ v
    df = np.array(expression.gradient(f_expr, x))
    return extended_fields._conformal_factor(f_expr, x, -2.0) * (dgv - 2.0 * np.outer(v_low, df))


def fiberwise_mixed(chart, profile, point):
    """M[k, s] = d2L/dx^s dv^k of L = T(x, |v|), from the radial profile T."""
    w = normal_shift.velocity_modulus(chart, point)
    x, v = point.x, point.v
    d1 = profile.d_w(x, w)
    d2 = profile.d2_w(x, w)
    xd = profile.x_partials_d_w(x, w)
    dg = manifold.metric_partials_at(chart, x)
    w_s = np.einsum("ijs,i,j->s", dg, v, v) / (2.0 * w)
    v_low = manifold.metric_at(chart, x) @ v
    dgv = np.einsum("kjs,j->ks", dg, v)
    radial = np.outer(v_low / w, xd + d2 * w_s)
    geometric = d1 * (dgv / w - np.outer(v_low, w_s) / (w * w))
    return radial + geometric


def mixed(chart, lagrangian, point):
    """M of a catalog Lagrangian, from its family's closed form above."""
    if lagrangian.family == "fiberwise-phi":
        return fiberwise_mixed(chart, lagrangian.profile, point)
    return quadratic_mixed(chart, lagrangian.params.get("f"), point)
