"""Reference Newtonian right-hand side for riemdyn.dynamics_newton, kept as a test oracle.

integrate's right-hand side works on the flat state y = (x, v): it
returns one new array built from the Python floats of v and dv, builds a
TangentPoint only for a force that reads one, never calls the zero force
of geodesic_system, and sums Gamma(v, v) in a Python-float loop in
einsum's order. This is the composition it replaced, unchanged: a
TangentPoint, the force through force_vector (the zero force included),
the einsum contraction, v.copy() and np.concatenate. The tests require the
two to agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from riemdyn import dynamics_newton, manifold
from riemdyn.extended_fields import TangentPoint

__all__ = ["newtonian_rhs", "flat_rhs"]


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
