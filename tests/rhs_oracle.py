"""Reference right-hand sides for riemdyn.dynamics_newton and dynamics_lagrange, kept as test oracles.

integrate's right-hand side works on the flat state y = (x, v): it
returns one new array built from the Python floats of v and dv, builds a
TangentPoint only for a force that reads one, never calls the zero force
of geodesic_system, and sums Gamma(v, v) in a Python-float loop in
einsum's order. This is the composition it replaced, unchanged: a
TangentPoint, the force through force_vector (the zero force included),
the einsum contraction, v.copy() and np.concatenate. The tests require the
two to agree bit for bit.

dynamics_lagrange's classical right-hand side is one pass over Python
floats: el_terms_fn's lists, a float M v and dynamics_lagrange._solve_regular.
classical_rhs is the numpy composition it replaced, unchanged: el_terms,
the numpy passes of the catalog families (force_oracle keeps their M),
then the singularity rule (_solve_regular with a zero right-hand side),
np.linalg.solve(A, dL/dx - M @ v) and np.concatenate. The form partials
s = dg(v, v) come from np.einsum, not from the package's contraction. A float sum rounds each product where numpy's M @ v fuses
a multiply and an add, and the LU rounds where numpy's kernel fuses, so
the two agree bit for bit only where A is diagonal and no row of M v sums
two non-zero products.
"""

from __future__ import annotations

import force_oracle
import numpy as np

from riemdyn import dynamics_lagrange, dynamics_newton, expression, extended_fields, manifold, normal_shift
from riemdyn.extended_fields import TangentPoint

__all__ = ["newtonian_rhs", "flat_rhs", "el_terms", "classical_rhs"]


def newtonian_rhs(chart, force, point):
    """(dx/dt, dv/dt) at a tangent state, as newtonian_rhs computed it."""
    v = point.v
    gamma = manifold.christoffel_at(chart, point.x)
    f = dynamics_newton.force_vector(chart, force, point)
    dv = f - np.einsum("kij,i,j->k", gamma, v, v)
    return v.copy(), dv


def flat_rhs(chart, force):
    """integrate's right-hand side f(t, y), as integrate built it."""
    n = chart.dim

    def rhs(t, y):
        point = TangentPoint(y[:n], y[n:])
        dx, dv = newtonian_rhs(chart, force, point)
        return np.concatenate([dx, dv])

    return rhs


def _quadratic_terms(chart, lagrangian, point):
    """(dL/dx, P, M, A) of (1/2) e^(-2f) |v|^2 - U as the numpy pass formed them."""
    f_expr, u_expr = lagrangian.params.get("f"), lagrangian.params.get("U")
    x, v = point.x, point.v
    g = manifold.metric_at(chart, x)
    dg = manifold.metric_partials_at(chart, x)
    v_low = g @ v
    c = extended_fields._conformal_factor(f_expr, x, -2.0)
    df = None if f_expr is None else expression.gradient(f_expr, x)
    vs = v.tolist()
    s = np.einsum("ijq,i,j->q", dg, v, v).tolist()
    dldx = extended_fields._quadratic_x_partials(x, vs, v_low.tolist(), c, s, df, u_expr, -1.0)
    mixed = force_oracle.quadratic_mixed(chart, f_expr, point)
    scaled = (lambda a: a) if f_expr is None else (lambda a: c * a)
    return np.array(dldx), scaled(v_low), mixed, scaled(g)


def _fiberwise_terms(chart, lagrangian, point):
    """(dL/dx, P, M, A) of L = T(x, |v|) as the numpy pass formed them, from the radial profile T."""
    profile = lagrangian.profile
    x, v = point.x, point.v
    g = manifold.metric_at(chart, x)
    w = normal_shift.velocity_modulus(chart, point)
    d2, d1 = profile.d2_w(x, w), profile.d_w(x, w)
    dg = manifold.metric_partials_at(chart, x)
    w_s = np.einsum("ijs,i,j->s", dg, v, v) / (2.0 * w)
    v_low = g @ v
    q_low = np.outer(v_low, v_low) / (w * w)
    a = d2 * q_low + (d1 / w) * (g - q_low)
    dldx = np.array(expression.gradient(profile.expr, x, w)) + d1 * w_s
    return dldx, d1 * v_low / w, force_oracle.fiberwise_mixed(chart, profile, point), a


def el_terms(chart, lagrangian, point):
    """(dL/dx, P, M, A) of a catalog Lagrangian as arrays, as its numpy el_terms_fn pass formed them."""
    if lagrangian.family == "fiberwise-phi":
        return _fiberwise_terms(chart, lagrangian, point)
    return _quadratic_terms(chart, lagrangian, point)


def classical_rhs(chart, lagrangian):
    """integrate_lagrangian's right-hand side f(t, y), as integrate_lagrangian built it."""
    n = chart.dim

    def rhs(t, y):
        point = TangentPoint(y[:n], y[n:])
        dldx, _, mixed, a = el_terms(chart, lagrangian, point)
        message = "fiber Hessian is singular (det {det:.3e}) during integration"
        dynamics_lagrange._solve_regular(a.tolist(), [0.0] * n, message)
        vdot = np.linalg.solve(a, dldx - mixed @ point.v)
        return np.concatenate([point.v, vdot])

    return rhs
