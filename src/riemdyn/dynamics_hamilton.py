"""Legendre transform and Hamiltonian flows.

The Legendre map lambda sends a tangent state (x, v) to the cotangent
state (x, p) with p_k = dL/dv^k. Its inverse is solved by a damped
Newton iteration on r(v) = dL/dv - p whose Jacobian is the fiber
Hessian A. Every inversion starts cold, from a rescaled g^-1 p; there is
no warm start, so v* depends only on the state and not on what was
inverted before. Newton stops at |r|_inf <= 1e-12 max(1, |p|_inf)
(_NEWTON_TOLERANCE) within 50 steps (_NEWTON_MAX_ITER), halving each
step at most 20 times (_NEWTON_MAX_DAMPING).

The Hamiltonian is H(x, p) = sum_k p_k v*^k - L(x, v*) at
v* = lambda^(-1)(x, p); for every catalog family H and its partials are
also attached in closed form, derived directly from the family formula
rather than from the Newton inverse, so the identity suite checks a
genuinely independent construction. There are two closed forms:

    kinetic, kinetic-potential, conformal-kinetic (f and U optional):
        H = (1/2) e^(2f) g^ij p_i p_j + U(x), with B = e^(2f) g^ij,
        from extended_fields.momentum_kinetic_scalar
    fiberwise-phi:
        H = z phi'(z) - phi(z) at phi'(z) = |p|/C(x)

The fiberwise H solves phi'(z) = |p|/C(x) by a safeguarded Newton
iteration that takes phi' and phi'' from one call per iterate of phi's
compiled code, called with z directly, with no variable map; a target
that is not finite raises NumericOverflowError instead, so such a state
ends a run non_finite.

Both closed forms carry a jet that is one pass over Python floats
returning lists: u = g^-1 p as numpy's g^-1 @ p, with g^-1 from
inverse_metric_at, and dg from metric_partials_at, each read once through
.tolist(). p . d(g^-1)/dx^q . p is 0.0 - u . d(g)/dx^q . u, since
d(g^-1) = -g^-1 d(g) g^-1: extended_fields._metric_contractions contracts
dg with u, the one contraction of dg with a fiber vector, which the
Lagrangian passes use with v, for any dimension. The fiberwise pass calls
the compiled code of C and phi directly, each looked up once per field on
first use.
hamilton_rhs, which integrate_hamiltonian's right-hand side calls,
validates x once with metric_at, calls the jet with the state and builds
one array from its lists; the right-hand side returns that array. Each
right-hand side inverts phi' once per state and reads neither phi nor U,
which only the value of H needs.

The bits rule: the pass keeps the bits of g^-1 @ p, which are the
quadratic H's fiber partials without f. The numpy forms it replaced
summed d(g^-1)/dx = -g^-1 dg g^-1 before contracting it with p, where
the pass sums dg against u = g^-1 p, so dH/dx may differ from them in the
last bits on a curved chart; on a flat one dg = 0, and 0.0 - t keeps each
contraction +0.0, as theirs was. p . g^-1 p in the fiberwise pass, and
y . m y in the quadratic partials when f is set, are float sums where
numpy's 2-element dot fuses a multiply and an add. tests/h_jet_oracle.py
keeps the numpy forms, and the tests hold the pass within a few ulps of
them.

Canonical motion integrates dx/dt = dH/dp, dp/dt = -dH/dx in plain
coordinates; the covariant form of the momentum equation differs by two
Christoffel contractions that cancel identically by the symmetry of
Gamma in its lower indexes, and covariant_momentum_residual exposes
that cancellation for testing.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import expression, extended_fields, manifold, normal_shift
from .dynamics_lagrange import Lagrangian, _el_terms, _solve_regular, a_matrix, momentum_field
from .dynamics_newton import IntegratorConfig, Trajectory, _integrate_split
from .errors import (
    DegenerateLagrangianError,
    NonConvergenceError,
    NumericOverflowError,
    ZeroVelocityError,
)
from .extended_fields import CotangentPoint, ExtendedField, TangentPoint
from .manifold import ManifoldChart

__all__ = [
    "LegendreContext",
    "Hamiltonian",
    "IdentityReport",
    "legendre_forward",
    "legendre_inverse",
    "energy_h",
    "energy_field",
    "hamiltonian_from_lagrangian",
    "hamilton_rhs",
    "covariant_momentum_residual",
    "integrate_hamiltonian",
    "identity_suite",
]


# The Newton iteration of legendre_inverse; its docstring says how each is used.
_NEWTON_MAX_ITER = 50
_NEWTON_TOLERANCE = 1e-12
_NEWTON_MAX_DAMPING = 20


@dataclass
class LegendreContext:
    """A Lagrangian and the Newton iteration count of its last Legendre inverse."""

    lagrangian: Lagrangian
    last_iterations: int = 0


def _fiber_passes(lagrangian: Lagrangian):
    """(dL/dv, A) at a tangent point as float lists: the Lagrangian's hooks, called directly.

    A Lagrangian without a hook reads extended_fields.fiber_partials or
    fiber_hessian there, made lists at this boundary.
    """
    dv, hessian = lagrangian.field.fiber_partials_fn, lagrangian.second_fiber_fn
    if dv is None:

        def dv(chart, point):
            return extended_fields.fiber_partials(chart, lagrangian.field, point).tolist()

    if hessian is None:

        def hessian(chart, point):
            return extended_fields.fiber_hessian(chart, lagrangian.field, point).tolist()

    return dv, hessian


def legendre_forward(ctx: LegendreContext, chart: ManifoldChart, q: TangentPoint) -> CotangentPoint:
    """Map (x, v) to (x, p) with p_k = dL/dv^k, built from the fiber hook's list."""
    return CotangentPoint(q.x, _fiber_passes(ctx.lagrangian)[0](chart, q))


def energy_h(chart: ManifoldChart, lagrangian: Lagrangian, q: TangentPoint) -> float:
    """h(x, v) = v^k dL/dv^k - L, the energy along tangent states."""
    return float(q.v @ lagrangian.dv(chart, q) - lagrangian.value(chart, q))


def energy_field(lagrangian: Lagrangian) -> ExtendedField:
    """The energy h as a scalar extended field with analytic hooks.

    dh/dv^r = A_rk v^k and dh/dx^s = v^k M[k, s] - dL/dx^s follow from
    differentiating h = v . dL/dv - L, so the hooks inherit whatever
    analytic structure the Lagrangian carries: dh/dx takes M and dL/dx
    from one el_terms_fn pass, as the arrays of dynamics_lagrange._el_terms,
    and dh/dv takes A from second_fiber_fn.
    Without el_terms_fn, dh/dx comes from finite differences of h.
    """

    def ev(chart, point):
        return np.array(energy_h(chart, lagrangian, point))

    dx_fn = None
    dfib_fn = None
    if lagrangian.el_terms_fn is not None:

        def dx_fn(chart, point):
            dldx, _, mixed, _ = _el_terms(chart, lagrangian, point)
            return point.v @ mixed - dldx

    if lagrangian.second_fiber_fn is not None:

        def dfib_fn(chart, point):
            return a_matrix(chart, lagrangian, point) @ point.v

    return ExtendedField((0, 0), "v", ev, dx_fn, dfib_fn, name=f"h[{lagrangian.name}]")


# The cold start's scale grid, as Python floats: the guess is s * g^-1 p for one s here,
# or for one s past either end, where the walk steps on at the grid's ratio 10^(1/5).
_GUESS_SCALES = np.geomspace(1e-2, 1e2, 21).tolist()
_GUESS_START = 10  # s = 1


def _guess_scale(i: int) -> float | None:
    """The walk's scale at index i: _GUESS_SCALES[i] on the grid, 10^((i - 10)/5) past it.

    None where that power leaves the float range, overflowing or rounding to 0.
    """
    if 0 <= i < len(_GUESS_SCALES):
        return _GUESS_SCALES[i]
    try:
        scale = 10.0 ** ((i - _GUESS_START) / 5)
    except OverflowError:
        return None
    return scale if scale > 0.0 else None


def _default_velocity_guess(
    direction: list[float], residual, tol: float
) -> tuple[list[float], list[float] | None]:
    """The raised momentum g^-1 p, rescaled to the walk's scale of least residual.

    direction is g^-1 p and residual(v) the list dL/dv(v) - p, both over
    Python floats. Returns the velocity and its residual, so that Newton
    starts from r without evaluating dL/dv again; r is None when every
    scale is refused or g^-1 p is zero, and the velocity is then the raw
    g^-1 p.

    The residual at scale s is |dL/dv(s g^-1 p) - p|_inf; a scale where dL/dv
    raises ZeroVelocityError counts as infinite. Scale 1 is evaluated first,
    and when its residual is <= tol it is returned at once: the start already
    solves, and Newton returns it with 0 iterations. Otherwise the choice is
    the lowest-index minimum of a walk that starts at s = 1, moves up while
    the residual does not rise and, if it never fell there, down while it
    does not rise, evaluating each scale at most once. On the grid,
    _GUESS_SCALES from 1e-2 to 1e2, that is the grid's lowest-index minimum
    whenever the walk stops inside it. Where the residual still does not
    rise at an end of the grid, the walk steps on past it at the grid's ratio
    (_guess_scale), and stops at the first scale past the grid whose residual
    rises, is refused by dL/dv or is not finite, or where the scale leaves the
    float range. So phi = w^2/2 + w^10/10 at |p| = 1e6, whose root lies near
    s = 4.6e-6, starts there and not at s = 1e-2, from which Newton did not
    converge in 50 steps.

    Without the early stop the walk finds the scan's minimum when the
    residual is unimodal on the grid, as it is for every catalog family:
    along v = s g^-1 p, dL/dv = alpha(s) p with alpha nondecreasing
    (s e^(-2f) for the quadratic families, phi'(C s |p|) C / |p| for
    fiberwise-phi, phi' increasing), so the residual is |alpha(s) - 1| |p|_inf,
    and the refused scales are a prefix of the grid. The early stop returns
    scale 1 whenever it already solves, which is not the scan's lowest-index
    minimum when a neighbouring scale has a smaller residual still, as it can
    where alpha is nearly flat near s = 1 (a fiberwise phi whose phi' levels
    off); the start, and the v Newton returns, then differ from the scan's,
    though both are within tol. On the legendre suite's states the catalog
    families pick the scan's scale with the early stop too (tests/test_hamilton.py
    checks this against tests/guess_oracle.py). Along the ray of any other
    Lagrangian the residual may have several local minima; the walk may then
    stop at another scale than a full scan would, and Newton still has to
    reach the same tolerance.
    """
    if manifold._max_abs(direction) == 0.0:
        return direction, None
    tried = {}  # index -> (residual norm, velocity, residual)

    def norm(i):
        if i not in tried:
            tried[i] = (math.inf, direction, None)
            scale = _guess_scale(i)
            if scale is not None:
                v = [scale * d for d in direction]
                try:
                    r = residual(v)
                    tried[i] = (manifold._max_abs(r), v, r)
                except ZeroVelocityError:
                    pass
        return tried[i][0]

    def onward(i, j):
        """Whether the walk steps from index i to j: j's residual does not rise, and is finite past the grid."""
        return norm(j) <= norm(i) and (0 <= j < len(_GUESS_SCALES) or norm(j) < math.inf)

    best = i = _GUESS_START
    if norm(best) > tol:
        while onward(i, i + 1):
            i += 1
            if norm(i) < norm(best):
                best = i
        if best == _GUESS_START:
            while onward(best, best - 1):
                best -= 1
    return tried[best][1:]


def legendre_inverse(ctx: LegendreContext, chart: ManifoldChart, state: CotangentPoint) -> TangentPoint:
    """Solve dL/dv = p for v by damped Newton with the fiber Hessian.

    One pass over Python floats. x is fixed for the whole inversion:
    inverse_metric_at validates it once and reads g^-1, which raises p to
    the start direction g^-1 p as float sums, each in index order from +0.0
    (numpy's g^-1 @ p on a diagonal metric, as every builtin chart's is).
    Every residual and fiber Hessian is then a direct call of the
    Lagrangian's hooks, fiber_partials_fn and second_fiber_fn, at a
    TangentPoint of x; the catalog's hooks read what depends on x alone,
    the rows of g and the conformal factor, once per point
    (extended_fields._per_point), and the fiberwise A reuses |v|, g v and
    T' of the residual at its iterate. A Lagrangian without a hook reads
    fiber_partials or fiber_hessian, made lists (_fiber_passes). The residuals, their
    sup norms, the Newton steps and the damped update v + lam step are float
    lists, and one TangentPoint holds the result. tests/legendre_oracle.py
    keeps the numpy loop this replaced; on the diagonal metrics of the
    builtin charts the two give the same v and iteration count, bit for bit.

    There is no warm start: the result depends only on the Lagrangian,
    the chart and the state, never on what was inverted before. Newton
    starts from the cold start: the raised momentum g^-1 p times the
    scale of least residual on a fixed 21-point grid from 1e-2 to 1e2,
    found by a walk from scale 1 that steps on past either end of the grid
    while the residual still falls (see _default_velocity_guess). The walk
    takes the tolerance, stops at scale 1 when that already solves, and
    hands over the residual at the scale it picks, so Newton does not
    evaluate dL/dv there again. For the catalog families the residual is
    unimodal along that ray, so the walk picks the scale a full scan of
    the grid would whenever the minimum lies inside it, with 1 residual for
    the quadratic families without f and 3 to 8 for the others on the
    legendre suite's states, instead of 21; for any other Lagrangian it may
    pick another scale, and Newton still has to reach the same tolerance.

    Each Newton step solves A step = -r with dynamics_lagrange._solve_regular
    in Python floats, which refuses a singular A with SingularAError: for the
    quadratic families A = e^(-2f) g is diagonal on every builtin chart and
    the step has np.linalg.solve's bits; for a fiberwise A it may differ from
    them in the last bits. Newton stops when |dL/dv - p|_inf <= 1e-12 *
    max(1, |p|_inf) (_NEWTON_TOLERANCE), takes at most 50 steps
    (_NEWTON_MAX_ITER) and halves each step at most 20 times
    (_NEWTON_MAX_DAMPING); otherwise it raises NonConvergenceError. A start
    residual that is infinite or NaN raises NumericOverflowError. Iteration
    counts land in ctx.last_iterations.
    """
    x = state.x
    ps = state.p.tolist()
    dv, hessian = _fiber_passes(ctx.lagrangian)

    def point(v):
        """TangentPoint(x, v) for the float list v, without the dataclass's conversion of x, a float array."""
        at = object.__new__(TangentPoint)
        object.__setattr__(at, "x", x)
        object.__setattr__(at, "v", np.array(v))
        return at

    def residual(v):
        return [a - b for a, b in zip(dv(chart, point(v)), ps)]

    tol = _NEWTON_TOLERANCE * max(1.0, manifold._max_abs(ps))
    direction = [extended_fields._dot(row, ps) for row in manifold.inverse_metric_at(chart, x).tolist()]
    v, r = _default_velocity_guess(direction, residual, tol)
    if r is None:
        r = residual(v)
    r_norm = manifold._max_abs(r)
    if not math.isfinite(r_norm):
        raise NumericOverflowError(
            f"Legendre residual {r_norm!r} at the start velocity overflows the float range"
        )
    message = "fiber Hessian singular during Legendre inversion (det {det:.3e})"
    for iteration in range(1, _NEWTON_MAX_ITER + 1):
        if r_norm <= tol:
            ctx.last_iterations = iteration - 1
            return TangentPoint(x, v)
        step = _solve_regular(hessian(chart, point(v)), [-ri for ri in r], message)
        lam = 1.0
        for _ in range(_NEWTON_MAX_DAMPING + 1):
            v_try = [vi + lam * si for vi, si in zip(v, step)]
            try:
                r_new = residual(v_try)
            except ZeroVelocityError:
                lam *= 0.5
                continue
            r_new_norm = manifold._max_abs(r_new)
            if r_new_norm < r_norm or r_new_norm <= tol:
                break
            lam *= 0.5
        else:
            raise NonConvergenceError(
                f"damping exhausted at residual {r_norm:.3e}",
                residual=r_norm,
                iterations=iteration,
            )
        v, r, r_norm = v_try, r_new, r_new_norm
    if r_norm <= tol:
        ctx.last_iterations = _NEWTON_MAX_ITER
        return TangentPoint(x, v)
    raise NonConvergenceError(
        f"Legendre inversion did not converge in {_NEWTON_MAX_ITER} iterations "
        f"(residual {r_norm:.3e})",
        residual=r_norm,
        iterations=_NEWTON_MAX_ITER,
    )


# ---------------------------------------------------------------------------
# Hamiltonians


@dataclass(frozen=True)
class Hamiltonian:
    """Scalar H(x, p): an extended field in the p representation."""

    field: ExtendedField

    def value(self, chart: ManifoldChart, state: CotangentPoint) -> float:
        return float(self.field.eval_fn(chart, state))

    def dp(self, chart: ManifoldChart, state: CotangentPoint) -> np.ndarray:
        return extended_fields.fiber_partials(chart, self.field, state)


def _in_w(phi_expr, *pairs):
    """phi's compiled code of the seed pairs as a function of w.

    phi is an expression in w alone (normal_shift.phi_profile), so the code
    takes w as its one argument, or none when phi is constant.
    """
    fn = expression._code(phi_expr, *pairs)
    return fn if phi_expr.variables else lambda w: fn()


_PHI_BISECTION_STEPS = 63  # each halves the floats in the bracket, of which there are < 2^63


def _phi_prime_inverse(phi_expr):
    """The solver z(target) of phi'(z) = target for z > 0, assuming phi' is increasing.

    After at most 200 doublings of the bracket, 100 Newton steps from z = target
    (too few for w^2/2 + w^10/10 at 1e6) and then at most 63 bisection steps by
    bit pattern decide every target, raising where no float meets the tolerance.
    When the bisection closes on two adjacent floats and phi's code gives inf
    or NaN at the upper one, phi' overflowed short of the target (w^2/2 +
    w^4/10 at 1.7e308), and NumericOverflowError names it, so such a state
    ends a run non_finite; otherwise NonConvergenceError. Only that raise path
    evaluates phi' once more.

    It looks phi's compiled code for phi' and for (phi', phi'') up once, on
    its first call, and keeps it.
    """
    codes = []

    def invert(target: float) -> float:
        if not codes:
            codes.extend((_in_w(phi_expr, ("w",)), _in_w(phi_expr, ("w",), ("w", "w"))))
        slope, slope_and_curvature = codes
        lo, hi = 0.0, max(abs(target), 1.0)
        for _ in range(200):
            if slope(hi) >= target:
                break
            hi *= 2.0
        else:
            raise NonConvergenceError(f"could not bracket phi'(z) = {target!r}")
        z = min(max(target, 1e-8), hi)
        tol = 1e-14 * max(1.0, abs(target))
        for step in range(100 + _PHI_BISECTION_STEPS):
            fp, fpp = slope_and_curvature(z)
            err = fp - target
            if abs(err) <= tol:
                return z
            if err > 0.0:
                hi = z
            else:
                lo = z
            z_new = z - err / fpp if fpp > 0.0 else 0.5 * (lo + hi)
            if step >= 99:  # the 100 Newton steps ran out: bisect the bracket by bit pattern
                a, b = struct.unpack("<2q", struct.pack("<2d", lo, hi))
                z_new = struct.unpack("<d", struct.pack("<q", (a + b) // 2))[0]
                if z_new in (lo, hi):
                    if not math.isfinite(slope(hi)):
                        raise NumericOverflowError(
                            f"phi'(z) overflows the float range at z={hi!r}, short of phi'(z) = {target!r}"
                        )
                    break
            elif not (lo < z_new < hi):
                z_new = 0.5 * (lo + hi)
            z = z_new
        raise NonConvergenceError(f"phi' inversion stalled at z={z!r} for target {target!r}")

    return invert


def _coordinate_code(expr):
    """expr's compiled code for its value and for each first partial, as a function of the chart dimension.

    The code of each dimension is looked up once, on first use, and kept.
    """
    by_dim = {}

    def codes(n: int):
        found = by_dim.get(n)
        if found is None:
            gradient = [expression._code(expr, (f"x{q + 1}",)) for q in range(n)]
            found = by_dim[n] = (expression._code(expr, ()), gradient)
        return found

    return codes


def _fiberwise_h_field(lagrangian: Lagrangian) -> ExtendedField:
    """H for L = phi(C(x) |v|), via scalar inversion of phi'.

    The jet is one pass over Python floats returning two lists: u = g^-1 p
    as numpy's g^-1 @ p, with g^-1 from inverse_metric_at, and dg from
    metric_partials_at, each read once through .tolist(); |p|^2 = p . u as a
    float sum; dH/dx's p . d(g^-1)/dx . p as 0.0 - u . dg . u from
    extended_fields._metric_contractions; C and its gradient, and phi' and
    phi'', from their compiled code, looked up on first use. The fiber hook and the jet invert
    phi' once each; the jet never evaluates phi, which only the value needs.
    A target |p|/C(x) that is not finite raises NumericOverflowError first.
    """
    phi_expr = lagrangian.params["phi"]
    c_expr = lagrangian.params["C"]
    invert = _phi_prime_inverse(phi_expr)
    c_codes = _coordinate_code(c_expr)

    def pieces(chart, x, p):
        """(|p|, C(x), z), then what the partials read: g^-1 p, C's arguments and gradient code."""
        ginv = manifold.inverse_metric_at(chart, x)
        ps, p_up = p.tolist(), (ginv @ p).tolist()
        pm = math.sqrt(max(extended_fields._dot(ps, p_up), 0.0))
        if pm <= normal_shift.zero_velocity_floor(x):
            raise ZeroVelocityError(
                f"momentum modulus {pm:.3e} is below the zero-velocity floor"
            )
        value_code, gradient_code = c_codes(len(ps))
        args = expression._coord_args(c_expr, x.tolist())
        c = value_code(*args)
        if c <= 0.0:
            raise DegenerateLagrangianError(
                f"C(x) = {c!r} must be positive for the fiberwise family"
            )
        target = pm / c
        if not math.isfinite(target):
            raise NumericOverflowError(
                f"|p|/C(x) = {pm!r}/{c!r} at {x!r} is not finite: it overflows the float range"
            )
        return pm, c, invert(target), p_up, args, gradient_code

    def fiber(pm, c, z, p_up):
        scale = z / c
        return [scale * u / pm for u in p_up]

    def value(chart, point):
        pm, c, z = pieces(chart, point.x, point.p)[:3]
        phi_val = expression.evaluate_env(phi_expr, {"w": z})
        return np.array(z * (pm / c) - phi_val)

    def dp(chart, point):
        pm, c, z, p_up = pieces(chart, point.x, point.p)[:4]
        return fiber(pm, c, z, p_up)

    def jet(chart, point):
        pm, c, z, p_up, args, gradient_code = pieces(chart, point.x, point.p)
        dg = manifold.metric_partials_at(chart, point.x).tolist()
        s = [0.0 - t for t in extended_fields._metric_contractions(dg, p_up)[0]]
        cc = c * c
        dx = [z * (0.5 * sq / pm / c - pm * code(*args) / cc) for sq, code in zip(s, gradient_code)]
        return dx, fiber(pm, c, z, p_up)

    return ExtendedField((0, 0), "p", value, fiber_partials_fn=dp, name=f"H[{lagrangian.name}]", jet_fn=jet)


def hamiltonian_from_lagrangian(ctx: LegendreContext) -> Hamiltonian:
    """Attach the Hamiltonian of ctx's Lagrangian.

    Catalog families get closed-form value and partials; anything else
    falls back to Newton inversion for values and finite differences for
    partials.
    """
    lag = ctx.lagrangian
    family = lag.family
    if family in ("kinetic", "kinetic-potential", "conformal-kinetic"):
        field = extended_fields.momentum_kinetic_scalar(lag.params.get("f"), lag.params.get("U"))
    elif family == "fiberwise-phi":
        field = _fiberwise_h_field(lag)
    else:

        def ev(chart, state):
            v_state = legendre_inverse(ctx, chart, state)
            return np.array(
                float(state.p @ v_state.v) - lag.value(chart, v_state)
            )

        field = ExtendedField((0, 0), "p", ev, name=f"H[{lag.name}]")

    return Hamiltonian(field)


def hamilton_rhs(
    chart: ManifoldChart, hamiltonian: Hamiltonian, state: CotangentPoint
) -> tuple[np.ndarray, np.ndarray]:
    """Canonical equations dx/dt = dH/dp, dp/dt = -dH/dx, from one jet of H.

    The jet is the pair (dH/dx, dH/dp), so the value of H is never formed.
    x is validated once, by metric_at; the jet reads its geometry record.
    A field's jet_fn is called directly and its lists read as they are;
    a field without one goes through extended_fields.jet. Both rates are
    views of one new array, [dx/dt, dp/dt], built by one np.array call,
    which integrate_hamiltonian's right-hand side returns whole.
    """
    manifold.metric_at(chart, state.x)
    jet = hamiltonian.field.jet_fn
    dx, dp = jet(chart, state) if jet is not None else extended_fields.jet(chart, hamiltonian.field, state)
    rates = np.array([*dp, *[-d for d in dx]])
    return rates[: chart.dim], rates[chart.dim :]


def covariant_momentum_residual(
    chart: ManifoldChart, hamiltonian: Hamiltonian, state: CotangentPoint
) -> np.ndarray:
    """The two Christoffel contractions of the covariant momentum equation.

    Gamma^b_qk p_b dH/dp_q - p_a Gamma^a_kb dH/dp_b vanishes identically
    because Gamma is symmetric in its lower indexes; the residual is
    computed as two separate contractions so nothing cancels on paper
    before it cancels in floating point.
    """
    gamma = manifold.christoffel_at(chart, state.x)
    hp = hamiltonian.dp(chart, state)
    p = state.p
    first = np.einsum("bqk,b,q->k", gamma, p, hp)
    second = np.einsum("akb,a,b->k", gamma, p, hp)
    return first - second


def integrate_hamiltonian(
    chart: ManifoldChart,
    hamiltonian: Hamiltonian,
    state0: CotangentPoint,
    config: IntegratorConfig,
) -> Trajectory:
    """Integrate the canonical equations from state0 over config.t_span; columns p and H."""

    n = chart.dim

    def rhs(t, y):
        x_dot, _ = hamilton_rhs(chart, hamiltonian, CotangentPoint(y[:n], y[n:]))
        return x_dot.base  # the one array of which both rates are views

    def diagnostics(x, p):
        return (hamiltonian.value(chart, CotangentPoint(x, p)),)

    return _integrate_split(chart, rhs, state0.x, state0.p, config, ("p", "H"), diagnostics)


# ---------------------------------------------------------------------------
# Identity suite


@dataclass(frozen=True)
class IdentityReport:
    """Max residual per identity over the sampled states."""

    residuals: dict
    worst_points: dict
    points_checked: int


def identity_suite(
    ctx: LegendreContext, chart: ManifoldChart, points: Sequence[TangentPoint]
) -> IdentityReport:
    """Check the structural identities tying L, H and the duality maps.

    For each tangent state q with image (x, p) under the Legendre map:

      duality_gradient_commutation: spatial and fiber gradients of the
          momentum covector field commute with substituting v = g^(-1) p
          (checked at the metric-dual state, finite differences on the
          substituted side).
      fiber_chain_rule:   dh/dv^r = sum_k A_rk (dH/dp_k o lambda)
      spatial_chain_rule: grad_r h = (grad_r H) o lambda
                          + sum_k grad_r (dL/dv^k) (dH/dp_k o lambda)
      velocity_from_momentum_gradient: v^k = (dH/dp_k) o lambda
      dual_energy: p_k (dH/dp_k) - H recovers L o lambda^(-1) pointwise
      opposite_spatial_gradients: (grad_i H) o lambda = - grad_i L
    """
    lag = ctx.lagrangian
    ham = hamiltonian_from_lagrangian(ctx)
    p_field = momentum_field(lag)
    h_field = energy_field(lag)

    def substituted_momentum_field() -> ExtendedField:
        def ev(inner_chart, state):
            v = manifold.raise_index(inner_chart, state.x, state.p)
            return p_field.eval_fn(inner_chart, TangentPoint(state.x, v))

        return ExtendedField((0, 1), "p", ev, name="momentum_via_duality")

    y_field = substituted_momentum_field()
    names = (
        "duality_gradient_commutation",
        "fiber_chain_rule",
        "spatial_chain_rule",
        "velocity_from_momentum_gradient",
        "dual_energy",
        "opposite_spatial_gradients",
    )
    residuals = {name: 0.0 for name in names}
    worst = {name: -1 for name in names}

    def note(name, value, index):
        if value >= residuals[name]:
            residuals[name] = value
            worst[name] = index

    for index, q in enumerate(points):
        x, v = q.x, q.v
        lam = legendre_forward(ctx, chart, q)

        # The momentum's spatial gradient and its fiber gradient, A, serve two identities each.
        dual = CotangentPoint(x, manifold.lower_index(chart, x, v))
        grad_p = extended_fields.spatial_gradient(chart, p_field, q)
        grad_y = extended_fields.spatial_gradient(chart, y_field, dual)
        a = a_matrix(chart, lag, q)
        fib_y = extended_fields.velocity_gradient_lowered(chart, y_field, dual)
        note(
            "duality_gradient_commutation",
            max(
                float(np.max(np.abs(grad_y - grad_p))),
                float(np.max(np.abs(fib_y - a))),
            ),
            index,
        )

        hp = ham.dp(chart, lam)
        dh_dv = extended_fields.fiber_partials(chart, h_field, q)
        note("fiber_chain_rule", float(np.max(np.abs(dh_dv - a @ hp))), index)

        grad_h = extended_fields.spatial_gradient(chart, h_field, q)
        grad_h_ham = extended_fields.spatial_gradient(chart, ham.field, lam)
        rhs = grad_h_ham + grad_p.T @ hp
        note("spatial_chain_rule", float(np.max(np.abs(grad_h - rhs))), index)

        note("velocity_from_momentum_gradient", float(np.max(np.abs(v - hp))), index)

        h_val = ham.value(chart, lam)
        note(
            "dual_energy",
            abs(float(lam.p @ hp) - h_val - lag.value(chart, q)),
            index,
        )

        grad_l = extended_fields.spatial_gradient(chart, lag.field, q)
        note(
            "opposite_spatial_gradients",
            float(np.max(np.abs(grad_h_ham + grad_l))),
            index,
        )

    return IdentityReport(residuals=residuals, worst_points=worst, points_checked=len(points))
