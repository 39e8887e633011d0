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
iteration that takes phi' and phi'' from one compiled call per iterate.
Both closed forms carry a jet hook, and hamilton_rhs reads dH/dp and dH/dx
from one jet: each right-hand side inverts phi' once per state and reads
neither phi nor U, which only the value of H needs.

Canonical motion integrates dx/dt = dH/dp, dp/dt = -dH/dx in plain
coordinates; the covariant form of the momentum equation differs by two
Christoffel contractions that cancel identically by the symmetry of
Gamma in its lower indexes, and covariant_momentum_residual exposes
that cancellation for testing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import expression, extended_fields, manifold, normal_shift
from .dynamics_lagrange import Lagrangian, _require_regular, a_matrix, momentum_field
from .dynamics_newton import IntegratorConfig, _integrate_split, _write_table
from .errors import (
    DegenerateLagrangianError,
    NonConvergenceError,
    NumericOverflowError,
    ZeroVelocityError,
)
from .extended_fields import CotangentPoint, ExtendedField, TangentPoint, _conformal_factor
from .manifold import ManifoldChart

__all__ = [
    "LegendreContext",
    "Hamiltonian",
    "CotangentTrajectory",
    "IdentityReport",
    "legendre_forward",
    "legendre_inverse",
    "energy_h",
    "energy_field",
    "hamiltonian_from_lagrangian",
    "b_matrix",
    "hamilton_rhs",
    "covariant_momentum_residual",
    "integrate_hamiltonian",
    "write_cotangent_csv",
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


def legendre_forward(ctx: LegendreContext, chart: ManifoldChart, q: TangentPoint) -> CotangentPoint:
    """Map (x, v) to (x, p) with p_k = dL/dv^k."""
    return CotangentPoint(q.x, ctx.lagrangian.dv(chart, q))


def energy_h(chart: ManifoldChart, lagrangian: Lagrangian, q: TangentPoint) -> float:
    """h(x, v) = v^k dL/dv^k - L, the energy along tangent states."""
    return float(q.v @ lagrangian.dv(chart, q) - lagrangian.value(chart, q))


def energy_field(lagrangian: Lagrangian) -> ExtendedField:
    """The energy h as a scalar extended field with analytic hooks.

    dh/dv^r = A_rk v^k and dh/dx^s = v^k M[k, s] - dL/dx^s follow from
    differentiating h = v . dL/dv - L, so the hooks inherit whatever
    analytic structure the Lagrangian carries: dh/dx takes M and dL/dx
    from one el_terms_fn pass, and dh/dv takes A from second_fiber_fn.
    Without el_terms_fn, dh/dx comes from finite differences of h.
    """

    def ev(chart, point):
        return np.array(energy_h(chart, lagrangian, point))

    dx_fn = None
    dfib_fn = None
    if lagrangian.el_terms_fn is not None:

        def dx_fn(chart, point):
            dldx, _, mixed, _ = lagrangian.el_terms_fn(chart, point)
            return point.v @ mixed - dldx

    if lagrangian.second_fiber_fn is not None:

        def dfib_fn(chart, point):
            return a_matrix(chart, lagrangian, point) @ point.v

    return ExtendedField((0, 0), "v", ev, dx_fn, dfib_fn, name=f"h[{lagrangian.name}]")


# The cold start's scale grid, as Python floats: the guess is s * g^-1 p for one s here.
_GUESS_SCALES = np.geomspace(1e-2, 1e2, 21).tolist()
_GUESS_START = 10  # s = 1


def _default_velocity_guess(
    ctx: LegendreContext, chart: ManifoldChart, x: np.ndarray, p: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray | None]:
    """The raised momentum g^-1 p, rescaled to the grid scale of least residual.

    Returns the velocity and its residual vector r = dL/dv(v) - p, so that
    Newton starts from r without evaluating dL/dv again; r is None when
    every scale is refused or g^-1 p is zero, and the velocity is then the
    raw g^-1 p.

    The residual at scale s is |dL/dv(s g^-1 p) - p|_inf; a scale where dL/dv
    raises ZeroVelocityError counts as infinite. Scale 1 is evaluated first,
    and when its residual is <= tol it is returned at once: the start already
    solves, and Newton returns it with 0 iterations. Otherwise the choice is
    the lowest-index minimum over _GUESS_SCALES, found by a walk that starts
    at s = 1, moves up while the residual does not rise and, if it never fell
    there, down while it does not rise, evaluating each scale at most once.

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
    direction = manifold.raise_index(chart, x, p)
    if manifold._sup_norm(direction) == 0.0:
        return direction, None
    tried = {}  # index -> (residual norm, velocity, residual vector)

    def residual(i):
        if i not in tried:
            v = _GUESS_SCALES[i] * direction
            try:
                r = ctx.lagrangian.dv(chart, TangentPoint(x, v)) - p
                tried[i] = (manifold._sup_norm(r), v, r)
            except ZeroVelocityError:
                tried[i] = (math.inf, direction, None)
        return tried[i][0]

    best = i = _GUESS_START
    if residual(best) > tol:
        while i + 1 < len(_GUESS_SCALES) and residual(i + 1) <= residual(i):
            i += 1
            if residual(i) < residual(best):
                best = i
        if best == _GUESS_START:
            while best > 0 and residual(best - 1) <= residual(best):
                best -= 1
    return tried[best][1:]


def legendre_inverse(ctx: LegendreContext, chart: ManifoldChart, state: CotangentPoint) -> TangentPoint:
    """Solve dL/dv = p for v by damped Newton with the fiber Hessian.

    There is no warm start: the result depends only on the Lagrangian,
    the chart and the state, never on what was inverted before. Newton
    starts from the cold start: the raised momentum g^-1 p times the
    scale of least residual on a fixed 21-point grid from 1e-2 to 1e2,
    found by a walk from scale 1 (see _default_velocity_guess). The walk
    takes the tolerance, stops at scale 1 when that already solves, and
    hands over the residual at the scale it picks, so Newton does not
    evaluate dL/dv there again. For the catalog families the residual is
    unimodal along that ray, so the walk picks the scale a full scan of
    the grid would, with 1 residual for the quadratic families without f
    and 3 to 8 for the others on the legendre suite's states, instead of
    21; for any other Lagrangian it may pick another scale, and Newton
    still has to reach the same tolerance.

    Newton stops when |dL/dv - p|_inf <= 1e-12 * max(1, |p|_inf)
    (_NEWTON_TOLERANCE), takes at most 50 steps (_NEWTON_MAX_ITER) and
    halves each step at most 20 times (_NEWTON_MAX_DAMPING); otherwise it
    raises NonConvergenceError. A start residual that is infinite or NaN
    raises NumericOverflowError. Iteration counts land in
    ctx.last_iterations.
    """
    lag = ctx.lagrangian
    x = manifold.check_point(chart, state.x)
    p = state.p

    def residual(v_try):
        return lag.dv(chart, TangentPoint(x, v_try)) - p

    tol = _NEWTON_TOLERANCE * max(1.0, manifold._sup_norm(p))
    v, r = _default_velocity_guess(ctx, chart, x, p, tol)
    if r is None:
        r = residual(v)
    r_norm = manifold._sup_norm(r)
    if not math.isfinite(r_norm):
        raise NumericOverflowError(
            f"Legendre residual {r_norm!r} at the start velocity overflows the float range"
        )
    for iteration in range(1, _NEWTON_MAX_ITER + 1):
        if r_norm <= tol:
            ctx.last_iterations = iteration - 1
            return TangentPoint(x, v)
        point = TangentPoint(x, v)
        a = a_matrix(chart, lag, point)
        _require_regular(a, "fiber Hessian singular during Legendre inversion (det {det:.3e})")
        step = np.linalg.solve(a, -r)
        lam = 1.0
        for _ in range(_NEWTON_MAX_DAMPING + 1):
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
                f"damping exhausted at residual {r_norm:.3e}",
                residual=r_norm,
                iterations=iteration,
            )
        v = v + lam * step
        r, r_norm = r_new, r_new_norm
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
    """Scalar H(x, p) with optional analytic hooks and B = d2H/dp dp."""

    field: ExtendedField
    second_fiber_fn: Callable[[ManifoldChart, CotangentPoint], np.ndarray] | None = None

    def value(self, chart: ManifoldChart, state: CotangentPoint) -> float:
        return float(self.field.eval_fn(chart, state))

    def dx(self, chart: ManifoldChart, state: CotangentPoint) -> np.ndarray:
        return extended_fields.x_partials(chart, self.field, state)

    def dp(self, chart: ManifoldChart, state: CotangentPoint) -> np.ndarray:
        return extended_fields.fiber_partials(chart, self.field, state)


def _invert_phi_prime(phi_expr, target: float) -> float:
    """Solve phi'(z) = target for z > 0, assuming phi' is increasing."""

    lo, hi = 0.0, max(abs(target), 1.0)
    for _ in range(200):
        if expression.partial_env(phi_expr, {"w": hi}, "w") >= target:
            break
        hi *= 2.0
    else:
        raise NonConvergenceError(f"could not bracket phi'(z) = {target!r}")
    z = min(max(target, 1e-8), hi)
    tol = 1e-14 * max(1.0, abs(target))
    for _ in range(100):
        fp, slope = expression.partial_and_second_env(phi_expr, {"w": z}, "w")
        err = fp - target
        if abs(err) <= tol:
            return z
        if err > 0.0:
            hi = z
        else:
            lo = z
        z_new = z - err / slope if slope > 0.0 else 0.5 * (lo + hi)
        if not (lo < z_new < hi):
            z_new = 0.5 * (lo + hi)
        z = z_new
    raise NonConvergenceError(f"phi' inversion stalled at z={z!r} for target {target!r}")


def _fiberwise_h_field(lagrangian: Lagrangian) -> ExtendedField:
    """H for L = phi(C(x) |v|), via scalar inversion of phi'.

    Each hook inverts phi' once; the jet hook inverts it once for both
    partials and never evaluates phi, which only the value needs.
    """
    phi_expr = lagrangian.params["phi"]
    c_expr = lagrangian.params["C"]

    def pieces(chart, point):
        x, p = point.x, point.p
        ginv = manifold.inverse_metric_at(chart, x)
        pm_sq = float(p @ ginv @ p)
        pm = math.sqrt(max(pm_sq, 0.0))
        if pm <= normal_shift.zero_velocity_floor(x):
            raise ZeroVelocityError(
                f"momentum modulus {pm:.3e} is below the zero-velocity floor"
            )
        c = expression.evaluate(c_expr, x)
        if c <= 0.0:
            raise DegenerateLagrangianError(
                f"C(x) = {c!r} must be positive for the fiberwise family"
            )
        z = _invert_phi_prime(phi_expr, pm / c)
        return ginv, pm, c, z

    def value(chart, point, ginv, pm, c, z):
        phi_val = expression.evaluate_env(phi_expr, {"w": z})
        return np.array(z * (pm / c) - phi_val)

    def spatial(chart, point, ginv, pm, c, z):
        x, p = point.x, point.p
        dginv = manifold.inverse_metric_partials_at(chart, x)
        dpm = 0.5 * np.einsum("ijq,i,j->q", dginv, p, p) / pm
        dc = np.array(expression.gradient(c_expr, x))
        return z * (dpm / c - pm * dc / (c * c))

    def fiber(chart, point, ginv, pm, c, z):
        p_up = ginv @ point.p
        return (z / c) * p_up / pm

    def hook(part):
        return lambda chart, point: part(chart, point, *pieces(chart, point))

    def jet(chart, point):
        parts = pieces(chart, point)
        return spatial(chart, point, *parts), fiber(chart, point, *parts)

    hooks = (hook(value), hook(spatial), hook(fiber))
    return ExtendedField((0, 0), "p", *hooks, name=f"H[{lagrangian.name}]", jet_fn=jet)


def hamiltonian_from_lagrangian(ctx: LegendreContext) -> Hamiltonian:
    """Attach the Hamiltonian of ctx's Lagrangian.

    Catalog families get closed-form value and partials; anything else
    falls back to Newton inversion for values and finite differences for
    partials.
    """
    lag = ctx.lagrangian
    family = lag.family
    second_fiber = None
    if family in ("kinetic", "kinetic-potential", "conformal-kinetic"):
        f_expr = lag.params.get("f")
        field = extended_fields.momentum_kinetic_scalar(f_expr, lag.params.get("U"))

        def second_fiber(chart, state):
            ginv = manifold.inverse_metric_at(chart, state.x)
            return ginv if f_expr is None else _conformal_factor(f_expr, state.x, 2.0) * ginv

    elif family == "fiberwise-phi":
        field = _fiberwise_h_field(lag)

        def second_fiber(chart, state):
            v = field.fiber_partials_fn(chart, state)
            return normal_shift.symmetric_b_matrix(chart, lag.profile, TangentPoint(state.x, v))

    else:

        def ev(chart, state):
            v_state = legendre_inverse(ctx, chart, state)
            return np.array(
                float(state.p @ v_state.v) - lag.value(chart, v_state)
            )

        field = ExtendedField((0, 0), "p", ev, name=f"H[{lag.name}]")

    return Hamiltonian(field, second_fiber)


def b_matrix(chart: ManifoldChart, hamiltonian: Hamiltonian, state: CotangentPoint) -> np.ndarray:
    """B^ij = d2H/dp_i dp_j, the inverse of A at matched states."""
    if hamiltonian.second_fiber_fn is not None:
        return np.asarray(hamiltonian.second_fiber_fn(chart, state), dtype=float)
    return extended_fields.fiber_hessian(chart, hamiltonian.field, state)


def hamilton_rhs(
    chart: ManifoldChart, hamiltonian: Hamiltonian, state: CotangentPoint
) -> tuple[np.ndarray, np.ndarray]:
    """Canonical equations dx/dt = dH/dp, dp/dt = -dH/dx, from one jet of H.

    The jet is the pair (dH/dx, dH/dp), so the value of H is never formed.
    x is validated once, by metric_at; the hooks of H read its geometry record.
    """
    manifold.metric_at(chart, state.x)
    dx, dp = extended_fields.jet(chart, hamiltonian.field, state)
    return dp, -dx


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


@dataclass(eq=False)
class CotangentTrajectory:
    """Recorded cotangent trajectory with the Hamiltonian along it."""

    ts: np.ndarray
    xs: np.ndarray
    ps: np.ndarray
    h_values: np.ndarray
    status: str
    chart_name: str = ""

    def points(self) -> list[CotangentPoint]:
        return [CotangentPoint(x, p) for x, p in zip(self.xs, self.ps)]


def integrate_hamiltonian(
    chart: ManifoldChart,
    hamiltonian: Hamiltonian,
    state0: CotangentPoint,
    config: IntegratorConfig,
) -> CotangentTrajectory:
    """Integrate the canonical equations from state0 over config.t_span."""
    n = chart.dim

    def rhs(t, y):
        state = CotangentPoint(y[:n], y[n:])
        dx, dp = hamilton_rhs(chart, hamiltonian, state)
        return np.concatenate([dx, dp])

    def diagnostics(x, p):
        return (hamiltonian.value(chart, CotangentPoint(x, p)),)

    ts, xs, ps, (h_values,), status = _integrate_split(
        chart, rhs, state0.x, state0.p, config, diagnostics
    )
    return CotangentTrajectory(
        ts=ts,
        xs=xs,
        ps=ps,
        h_values=h_values,
        status=status,
        chart_name=chart.name,
    )


def write_cotangent_csv(trajectory: CotangentTrajectory, path) -> None:
    """Write t, coordinates, momenta and H with full precision."""
    n = trajectory.xs.shape[1]
    header = (
        ["t"]
        + [f"x{k + 1}" for k in range(n)]
        + [f"p{k + 1}" for k in range(n)]
        + ["H"]
    )
    columns = [trajectory.ts, trajectory.xs, trajectory.ps, trajectory.h_values]
    _write_table(path, header, columns)


# ---------------------------------------------------------------------------
# Identity suite


@dataclass(frozen=True)
class IdentityReport:
    """Max residual per identity over the sampled states."""

    residuals: dict
    worst_points: dict
    points_checked: int

    def max_residual(self) -> float:
        return max(self.residuals.values()) if self.residuals else 0.0


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

        dual = CotangentPoint(x, manifold.lower_index(chart, x, v))
        grad_x = extended_fields.spatial_gradient(chart, p_field, q).data
        grad_y = extended_fields.spatial_gradient(chart, y_field, dual).data
        fib_x = extended_fields.velocity_gradient(chart, p_field, q).data
        fib_y = extended_fields.velocity_gradient_lowered(chart, y_field, dual).data
        note(
            "duality_gradient_commutation",
            max(
                float(np.max(np.abs(grad_y - grad_x))),
                float(np.max(np.abs(fib_y - fib_x))),
            ),
            index,
        )

        a = a_matrix(chart, lag, q)
        hp = ham.dp(chart, lam)
        dh_dv = extended_fields.fiber_partials(chart, h_field, q)
        note("fiber_chain_rule", float(np.max(np.abs(dh_dv - a @ hp))), index)

        grad_h = extended_fields.spatial_gradient(chart, h_field, q).data
        grad_h_ham = extended_fields.spatial_gradient(chart, ham.field, lam).data
        grad_p = extended_fields.spatial_gradient(chart, p_field, q).data
        rhs = grad_h_ham + grad_p.T @ hp
        note("spatial_chain_rule", float(np.max(np.abs(grad_h - rhs))), index)

        note("velocity_from_momentum_gradient", float(np.max(np.abs(v - hp))), index)

        h_val = ham.value(chart, lam)
        note(
            "dual_energy",
            abs(float(lam.p @ hp) - h_val - lag.value(chart, q)),
            index,
        )

        grad_l = extended_fields.spatial_gradient(chart, lag.field, q).data
        note(
            "opposite_spatial_gradients",
            float(np.max(np.abs(grad_h_ham + grad_l))),
            index,
        )

    return IdentityReport(residuals=residuals, worst_points=worst, points_checked=len(points))
