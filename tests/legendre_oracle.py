"""Reference Legendre inverse for riemdyn.dynamics_hamilton.legendre_inverse, kept as a test oracle.

The package inverts the Legendre map in one pass over Python floats. This
is the loop over numpy arrays it replaced: the cold-start walk over the
21-point grid from 1e-2 to 1e2, and the damped Newton iteration with the
fiber Hessian from a_matrix, each residual read through Lagrangian.dv. It
stops at the grid's ends, where the package's walk goes on past them, so
the two agree only where the walk's minimum lies inside the grid. On the
diagonal metrics of the builtin charts the tests require the same v and
iteration count bit for bit.

g^-1 is np.linalg.inv of the metric here, where the package reads
manifold.inverse_metric_at. fiber_hooks keeps the numpy forms of the catalog's fiber hooks, which now
return lists: dL/dv (and the quadratic H's dH/dp) as m @ y times the
conformal factor, the fiberwise dL/dv from lower_index, and A as the factor
times g or, for fiberwise-phi, symmetric_a_matrix.
"""

from __future__ import annotations

import math

import numpy as np

from riemdyn import dynamics_hamilton as dh
from riemdyn import manifold, normal_shift
from riemdyn.dynamics_lagrange import _solve_regular, a_matrix
from riemdyn.errors import NonConvergenceError, NumericOverflowError, ZeroVelocityError
from riemdyn.extended_fields import TangentPoint, _conformal_factor

__all__ = ["GUESS_SCALES", "default_velocity_guess", "legendre_inverse", "fiber_hooks", "symmetric_a_matrix"]

GUESS_SCALES = np.geomspace(1e-2, 1e2, 21).tolist()
_GUESS_START = 10  # s = 1


def default_velocity_guess(ctx, chart, x, p, tol):
    """(velocity, residual vector or None): the walk over GUESS_SCALES from scale 1."""
    direction = np.linalg.inv(manifold.metric_at(chart, x)) @ p
    if manifold._sup_norm(direction) == 0.0:
        return direction, None
    tried = {}  # index -> (residual norm, velocity, residual vector)

    def residual(i):
        if i not in tried:
            v = GUESS_SCALES[i] * direction
            try:
                r = ctx.lagrangian.dv(chart, TangentPoint(x, v)) - p
                tried[i] = (manifold._sup_norm(r), v, r)
            except ZeroVelocityError:
                tried[i] = (math.inf, direction, None)
        return tried[i][0]

    best = i = _GUESS_START
    if residual(best) > tol:
        while i + 1 < len(GUESS_SCALES) and residual(i + 1) <= residual(i):
            i += 1
            if residual(i) < residual(best):
                best = i
        if best == _GUESS_START:
            while best > 0 and residual(best - 1) <= residual(best):
                best -= 1
    return tried[best][1:]


def legendre_inverse(ctx, chart, state):
    """The numpy damped Newton inverse: v with dL/dv(v) = p; sets ctx.last_iterations."""
    lag = ctx.lagrangian
    x = manifold.check_point(chart, state.x)
    p = state.p

    def residual(v_try):
        return lag.dv(chart, TangentPoint(x, v_try)) - p

    tol = dh._NEWTON_TOLERANCE * max(1.0, manifold._sup_norm(p))
    v, r = default_velocity_guess(ctx, chart, x, p, tol)
    if r is None:
        r = residual(v)
    r_norm = manifold._sup_norm(r)
    if not math.isfinite(r_norm):
        raise NumericOverflowError(f"Legendre residual {r_norm!r} at the start velocity overflows the float range")
    message = "fiber Hessian singular during Legendre inversion (det {det:.3e})"
    for iteration in range(1, dh._NEWTON_MAX_ITER + 1):
        if r_norm <= tol:
            ctx.last_iterations = iteration - 1
            return TangentPoint(x, v)
        point = TangentPoint(x, v)
        step = np.array(_solve_regular(a_matrix(chart, lag, point).tolist(), (-r).tolist(), message))
        lam = 1.0
        for _ in range(dh._NEWTON_MAX_DAMPING + 1):
            try:
                r_new = residual(v + lam * step)
            except ZeroVelocityError:
                lam *= 0.5
                continue
            r_new_norm = manifold._sup_norm(r_new)
            if r_new_norm < r_norm or r_new_norm <= tol:
                break
            lam *= 0.5
        else:
            raise NonConvergenceError(
                f"damping exhausted at residual {r_norm:.3e}", residual=r_norm, iterations=iteration
            )
        v = v + lam * step
        r, r_norm = r_new, r_new_norm
    if r_norm <= tol:
        ctx.last_iterations = dh._NEWTON_MAX_ITER
        return TangentPoint(x, v)
    raise NonConvergenceError(
        f"Legendre inversion did not converge in {dh._NEWTON_MAX_ITER} iterations (residual {r_norm:.3e})",
        residual=r_norm,
        iterations=dh._NEWTON_MAX_ITER,
    )


def symmetric_a_matrix(chart, profile, point):
    """Closed-form fiber Hessian A_ij = T'' Q_ij + (T'/|v|) P_ij (lower indexes), g v as numpy's g @ v."""
    w = normal_shift.velocity_modulus(chart, point)
    g = manifold.metric_at(chart, point.x)
    d2, d1 = profile.d2_w(point.x, w), profile.d_w(point.x, w)
    return np.array(normal_shift._a_from(g.tolist(), (g @ point.v).tolist(), w, d2, d1))


def fiber_hooks(chart, lag, point):
    """(dL/dv, A, dH/dp at (x, dL/dv)) of a catalog Lagrangian as arrays, in the numpy forms the list hooks replaced.

    dH/dp is the quadratic H's, e^(2f) g^-1 @ p; None for fiberwise-phi,
    whose H hook forms its list as it did.
    """
    x, v = point.x, point.v
    if lag.family == "fiberwise-phi":
        w = normal_shift.velocity_modulus(chart, point)
        v_low = manifold.lower_index(chart, x, v).tolist()
        d1 = lag.profile.d_w(x, w)
        return np.array([d1 * u / w for u in v_low]), symmetric_a_matrix(chart, lag.profile, point), None
    f = lag.params.get("f")
    g = manifold.metric_at(chart, x)
    dv, a = g @ v, g
    if f is not None:
        c = _conformal_factor(f, x, -2.0)
        dv, a = c * dv, c * a
    ham = np.linalg.inv(g) @ dv
    if f is not None:
        ham = _conformal_factor(f, x, 2.0) * ham
    return dv, a, ham
