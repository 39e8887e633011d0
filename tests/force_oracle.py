"""Reference Euler-Lagrange force for riemdyn.dynamics_lagrange, kept as a test oracle.

force_from_lagrangian takes dL/dx, P, M and A from one pass per state and
forms the two covariant gradients itself. This is the composition it
replaced, unchanged: a_matrix and its determinant test, one
spatial_gradient of L and one of the momentum field, and a solve. The
quadratic family's mixed-partials hook now takes M from that pass, so the
closed form it computed alone is kept here too. The tests require the
package to agree with both bit for bit.
"""

from __future__ import annotations

import numpy as np

from riemdyn import dynamics_lagrange, expression, extended_fields, manifold

__all__ = ["force", "quadratic_mixed"]


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
