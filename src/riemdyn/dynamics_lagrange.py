"""Lagrangian systems on the tangent bundle of a chart.

A Lagrangian here is a scalar extended field L(x, v) with optional
analytic hooks: second_fiber_fn for its fiber Hessian A_ij = d2L/dv^i dv^j,
and el_terms_fn for dL/dx, P, the mixed partials M[k, s] = d2L/dx^s dv^k
and A in one pass per state, the one source of M; without it M comes from
finite differences of P. A keeps its own hook because legendre_inverse
needs A alone at every Newton iterate. The Euler-Lagrange equations are
handled in two equivalent shapes:

  * covariant: solving A F = grad L - (grad P) . v for the force vector
    F, where P_k = dL/dv^k is the momentum covector field and grad the
    covariant spatial gradient; the motion is then the Newtonian system
    with force F.
  * classical: A vdot = dL/dx - (d2L/dxdv) v in plain coordinates.

Every solve with A is _solve_regular: one Gaussian elimination with
partial pivoting over Python floats for any n, dividing by the pivots,
whose pivots also give det(A / |A|_max), so A is factored once. It
refuses an A that is singular by manifold's one rule, |det(A / |A|_max)|
<= 1e-12, the rule metric_at applies to the metric, with SingularAError,
and an A with an infinite or NaN entry with NumericOverflowError, so such
a run ends "non_finite". For a diagonal A, as A = e^(-2f) g is on every
builtin chart, the solution has np.linalg.solve's bits; for a general A,
as the fiberwise family's, it may differ from them in the last bits, and
it no longer depends on the host's BLAS.

The classical right-hand side is one pass over Python floats: el_terms_fn
returns lists, b = dL/dx - M v is formed in floats and _solve_regular gives
vdot; _el_terms makes the lists arrays for the callers that read arrays.
A float sum rounds each product where numpy's M @ v fused a multiply and
an add, so where a row of M v sums two non-zero products (conformal-kinetic
where f and g vary along different coordinates) vdot may move in the last
bits; tests/rhs_oracle.py keeps the numpy composition.

el_residual evaluates D_t P - grad L along recorded trajectories with
covariant machinery and analytic hooks; classical_el_residual evaluates
d/dt (dL/dv) - dL/dx using finite differences only, so the two routes
stay independent down to their derivative plumbing.

The builtin catalog has two closed forms, each with its el_terms_fn. The
kinetic, kinetic-potential and conformal-kinetic families are one
quadratic Lagrangian (1/2) e^(-2f(x)) |v|^2 - U(x) with f and U optional,
whose value and partials come from extended_fields.kinetic_energy_scalar
and whose fiber Hessian is A = e^(-2f) g. The fiberwise symmetric family
phi(C(x) |v|) has its own radial-profile formulas.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from . import dynamics_newton, expression, extended_fields, manifold, normal_shift
from .dynamics_newton import (
    ForceField,
    IntegratorConfig,
    Trajectory,
    _tangent_run,
)
from .errors import NumericOverflowError, SingularAError
from .extended_fields import ExtendedField, TangentPoint, _conformal_factor
from .extended_fields import _covariant_gradient, _dot, _index_terms, _metric_contractions
from .extended_fields import _per_point, _quadratic_x_partials
from .manifold import ManifoldChart
from .normal_shift import (
    RadialProfile,
    _a_from,
    _above_floor,
    conformal_kinetic_profile,
    kinetic_profile,
    phi_profile,
    velocity_modulus,
    zero_velocity_floor,
)

__all__ = [
    "Lagrangian",
    "kinetic_lagrangian",
    "kinetic_minus_potential",
    "conformal_kinetic_lagrangian",
    "fiberwise_phi_lagrangian",
    "catalog_lagrangian",
    "FAMILIES",
    "momentum_field",
    "a_matrix",
    "force_from_lagrangian",
    "lagrangian_force_field",
    "el_residual",
    "classical_el_residual",
    "integrate_lagrangian",
]


@dataclass(frozen=True)
class Lagrangian:
    """A scalar Lagrangian with optional analytic derivative hooks.

    field is the scalar extended field L itself (v representation).
    second_fiber_fn returns A_ij with shape (n, n). el_terms_fn returns
    (dL/dx, P, M, A) as float sequences, M and A by row (the catalog's
    passes return lists), from one pass over a state that starts with
    metric_at, equal to what the field's partials and second_fiber_fn
    give; its M is the momentum field's x partials. family and params
    identify catalog members so the Hamiltonian side can attach closed
    forms; profile carries the fiberwise symmetric reduction when one
    exists.
    """

    field: ExtendedField
    family: str
    params: dict = dc_field(default_factory=dict)
    second_fiber_fn: Callable[[ManifoldChart, TangentPoint], np.ndarray] | None = None
    profile: RadialProfile | None = None
    name: str = ""
    el_terms_fn: Callable[[ManifoldChart, TangentPoint], tuple] | None = None
    _momentum: ExtendedField = dc_field(init=False, compare=False, repr=False)

    def __post_init__(self):
        terms = self.el_terms_fn
        momentum = ExtendedField(
            rank=(0, 1),
            rep="v",
            eval_fn=lambda chart, point: self.dv(chart, point),
            x_partials_fn=None if terms is None else lambda chart, point: np.array(terms(chart, point)[2]),
            fiber_partials_fn=self.second_fiber_fn,
            name=f"momentum[{self.name}]",
        )
        object.__setattr__(self, "_momentum", momentum)

    def value(self, chart: ManifoldChart, point: TangentPoint) -> float:
        return float(self.field.eval_fn(chart, point))

    def dv(self, chart: ManifoldChart, point: TangentPoint) -> np.ndarray:
        """Momentum covector P_k = dL/dv^k."""
        return extended_fields.fiber_partials(chart, self.field, point)


def momentum_field(lagrangian: Lagrangian) -> ExtendedField:
    """The momentum covector P_k = dL/dv^k as a rank (0, 1) field, built once per Lagrangian."""
    return lagrangian._momentum


def a_matrix(chart: ManifoldChart, lagrangian: Lagrangian, point: TangentPoint) -> np.ndarray:
    """Fiber Hessian A_ij = d2L/dv^i dv^j, analytic when available."""
    if lagrangian.second_fiber_fn is not None:
        return np.asarray(lagrangian.second_fiber_fn(chart, point), dtype=float)
    return extended_fields.fiber_hessian(chart, lagrangian.field, point)


def _eliminate(rows: list[list[float]], b: list[float]) -> tuple[list[list[float]], float]:
    """Gaussian elimination with partial pivoting on [A | b], A a square matrix of nested Python floats.

    Column k's pivot is the first entry of largest modulus on or below the
    diagonal, as LAPACK's getrf picks it, and each multiplier is the entry
    divided by the pivot, not multiplied by its reciprocal. Carrying b along
    performs the forward substitution of an LU, term for term. Returns the
    rows of [U | y] and det(A / |A|_max) = (+-1) prod_k (u_kk / |A|_max), the
    sign that of the row swaps; det is 0.0 when a pivot is zero, and the
    elimination then stops there. An infinite or NaN entry of A raises
    NumericOverflowError before any arithmetic, as manifold._sup_norm finds
    it, and so does an elimination that overflows, which only entries
    within a factor 2^n of the float maximum can make: its det is not finite.
    """
    sizes = [abs(value) for row in rows for value in row]
    total = sum(sizes)
    size = max(sizes) if total == total else math.nan
    if not math.isfinite(size):
        raise NumericOverflowError(f"fiber Hessian has a non-finite entry ({size!r})")
    m = [[*row, bi] for row, bi in zip(rows, b)]
    n = len(m)
    det = 1.0
    for k in range(n):
        pivot_row = m[k]
        pivot = pivot_row[k]
        best, largest = k, abs(pivot)
        for i in range(k + 1, n):
            if abs(m[i][k]) > largest:
                best, largest = i, abs(m[i][k])
        if best != k:
            pivot_row = m[best]
            m[best] = m[k]
            m[k] = pivot_row
            pivot = pivot_row[k]
            det = -det
        if pivot == 0.0:
            return m, 0.0
        det *= pivot / size
        for row in m[k + 1 :]:
            f = row[k] / pivot
            for j in range(k + 1, n + 1):
                row[j] -= f * pivot_row[j]
    if not math.isfinite(det):
        raise NumericOverflowError(f"fiber Hessian's elimination overflows the float range (det {det!r})")
    return m, det


def _solve_regular(a: list[list[float]], b: list[float], message: str) -> list[float]:
    """x solving A x = b over Python floats, for A and b as nested lists; A is factored once.

    _eliminate's pivots give the singularity rule's det, so that a
    singular A is refused with SingularAError and that det whatever b is;
    back substitution then divides by U's diagonal, column by column from
    the last, as LAPACK's getrs orders its updates. Every term is formed,
    zeros included, so a signed zero comes out as numpy's does. For a
    diagonal A the result has the bits of np.linalg.solve; for a general A
    it may differ in the last bits, where numpy's kernel fuses a multiply
    and an add.
    """
    m, det = _eliminate(a, b)
    if manifold._singular(det):
        raise SingularAError(message.format(det=det))
    n = len(m)
    x = [row[n] for row in m]
    for k in range(n - 1, -1, -1):
        xk = x[k] = x[k] / m[k][k]
        for i in range(k):
            x[i] -= m[i][k] * xk
    return x


def _el_terms(chart: ManifoldChart, lagrangian: Lagrangian, point: TangentPoint) -> tuple:
    """(dL/dx, P, M, A) at a state as arrays: one el_terms_fn call, its lists
    made arrays, else a_matrix, the field's jet and finite differences of P for M."""
    if lagrangian.el_terms_fn is not None:
        return tuple(map(np.array, lagrangian.el_terms_fn(chart, point)))
    manifold.metric_at(chart, point.x)  # validates x once; the hooks read the record
    a = a_matrix(chart, lagrangian, point)
    mixed = extended_fields.x_partials(chart, momentum_field(lagrangian), point)
    return (*extended_fields.jet(chart, lagrangian.field, point), mixed, a)


def force_from_lagrangian(
    chart: ManifoldChart, lagrangian: Lagrangian, point: TangentPoint
) -> np.ndarray:
    """Force vector F^s solving A F = grad L - (grad P) . v.

    grad is the covariant spatial gradient, P the momentum covector
    field; the resulting Newtonian system reproduces the Euler-Lagrange
    motion of the Lagrangian. dL/dx, P, M and A come from one _el_terms
    pass. Gamma is read once, for the index term and for Gamma v, which
    both fiber terms read (extended_fields._fiber_correction's -(X @ Gamma v)).
    _solve_regular refuses a singular A and solves.
    Nothing in riemdyn calls it; it stays public for the Newtonian leg of
    perfbench/workloads.py's threeway_sphere workload.
    """
    dldx, p, mixed, a = _el_terms(chart, lagrangian, point)
    gamma, v = manifold.christoffel_at(chart, point.x), point.v
    gv = gamma @ v  # gv[b, q] = Gamma^b_qa v^a, read by both fiber terms -(X @ gv)
    grad_l = dldx - p @ gv
    grad_p = mixed - a @ gv + _index_terms(gamma, p, ("l",))
    b = (grad_l - grad_p @ v).tolist()
    return np.array(_solve_regular(a.tolist(), b, "fiber Hessian is singular (det {det:.3e})"))


def lagrangian_force_field(lagrangian: Lagrangian) -> ForceField:
    """The extracted force as a plain (upper index) force field; public only for perfbench."""
    return ForceField(
        lambda chart, point: force_from_lagrangian(chart, lagrangian, point), covariant=False
    )


def el_residual(chart: ManifoldChart, lagrangian: Lagrangian, trajectory: Trajectory) -> np.ndarray:
    """Covariant Euler-Lagrange residual D_t P_k - grad_k L per sample.

    Zero (to discretization error) along true trajectories of the
    system. Reads the trajectory's ts, xs and "v" column, and one jet of L per sample.
    """
    points = extended_fields._curve_points(trajectory)
    jets = [extended_fields.jet(chart, lagrangian.field, q) for q in points]
    values = np.stack([dfib for _, dfib in jets])
    dtp = extended_fields.covariant_time_derivative(chart, trajectory, values, ("l",))
    out = np.empty_like(dtp)
    for i, (q, (dx, dfib)) in enumerate(zip(points, jets)):
        gamma = manifold.christoffel_at(chart, q.x)
        out[i] = dtp[i] - _covariant_gradient(gamma, lagrangian.field, q.v, None, dx, dfib)
    return out


def classical_el_residual(
    chart: ManifoldChart, lagrangian: Lagrangian, trajectory: Trajectory
) -> np.ndarray:
    """Textbook residual d/dt (dL/dv^k) - dL/dx^k, finite differences only.

    Both partials come from central differences of the raw Lagrangian
    value and the time derivative from second-order differences of the
    sampled momenta, so this route shares no analytic derivative code
    with el_residual. Reads the trajectory's ts, xs and "v" column.
    """
    points = extended_fields._curve_points(trajectory)
    stripped = dataclasses.replace(
        lagrangian.field, x_partials_fn=None, fiber_partials_fn=None, jet_fn=None
    )
    dt = extended_fields._check_uniform_times(trajectory.ts)
    momenta = np.stack(
        [extended_fields.fiber_partials(chart, stripped, q) for q in points]
    )
    ddt = np.gradient(momenta, dt, axis=0, edge_order=2)
    out = np.empty_like(momenta)
    for i, q in enumerate(points):
        dldx = extended_fields.x_partials(chart, stripped, q)
        out[i] = ddt[i] - dldx
    return out


def integrate_lagrangian(
    chart: ManifoldChart,
    lagrangian: Lagrangian,
    q0: TangentPoint,
    config: IntegratorConfig,
    energy_fn: Callable[[ManifoldChart, TangentPoint], float] | None = None,
) -> Trajectory:
    """Integrate A vdot = dL/dx - (d2L/dxdv) v in plain coordinates.

    This is the classical second-order route; it never forms the
    covariant force or touches Christoffel symbols, so it serves as an
    independent leg against the Newtonian reduction.
    """
    return _tangent_run(chart, _classical_rhs(chart, lagrangian), q0, config, energy_fn)


def _classical_rhs(chart: ManifoldChart, lagrangian: Lagrangian):
    """integrate_lagrangian's right-hand side f(t, y) on the flat state y = (x, v): a new array each call.

    One pass over Python floats: el_terms_fn's lists (a Lagrangian without
    one reads _el_terms' arrays as lists), b = dL/dx - M v with each row of
    M v a float sum in index order, then _solve_regular for vdot.
    tests/rhs_oracle.py keeps the numpy composition it replaced.
    """
    n = chart.dim
    terms = lagrangian.el_terms_fn
    if terms is None:

        def terms(chart, point):
            return [term.tolist() for term in _el_terms(chart, lagrangian, point)]

    def rhs(t, y):
        point = TangentPoint(y[:n], y[n:])
        dldx, _, mixed, a = terms(chart, point)
        v = point.v.tolist()
        b = [d - _dot(row, v) for d, row in zip(dldx, mixed)]
        vdot = _solve_regular(a, b, "fiber Hessian is singular (det {det:.3e}) during integration")
        return np.array(v + vdot)

    return rhs


# ---------------------------------------------------------------------------
# Catalog


def _quadratic_lagrangian(family: str, params: dict, profile: RadialProfile) -> Lagrangian:
    """L = (1/2) e^(-2f) g_ij v^i v^j - U with the optional f and U of params.

    el_terms_fn is one pass over Python floats returning lists: it reads g
    and dg once each through .tolist(), forms g v as numpy's g @ v, and
    gives dL/dx, P, A = e^(-2f) g and M[k, s] = e^(-2f) (d g_kj/dx^s v^j -
    2 g_kj v^j df/dx^s), the contraction of dg with v in einsum's order;
    without f and U no expression code runs. dL/dx comes from the float
    pass of the field's jet, so it equals the jet's x half bit for bit. The
    name is the family followed by each expression's source in brackets.
    """
    f_expr, u_expr = params.get("f"), params.get("U")

    def hessian_at(chart, x):
        rows = manifold.metric_at(chart, x).tolist()
        if f_expr is None:
            return rows
        c = _conformal_factor(f_expr, x, -2.0)
        return [[c * entry for entry in row] for row in rows]

    hessian = _per_point(hessian_at)

    def second_fiber(chart, point):
        return [[*row] for row in hessian(chart, point.x)]

    def terms(chart, point):
        x = point.x
        g = manifold.metric_at(chart, x)
        rows, v_low = g.tolist(), (g @ point.v).tolist()
        dg = manifold.metric_partials_at(chart, x).tolist()
        vs = point.v.tolist()
        s, mixed = _metric_contractions(dg, vs)
        if f_expr is None:
            return _quadratic_x_partials(x, vs, v_low, 1.0, s, None, u_expr, -1.0), v_low, mixed, rows
        c = _conformal_factor(f_expr, x, -2.0)
        df = expression.gradient(f_expr, x)
        dldx = _quadratic_x_partials(x, vs, v_low, c, s, df, u_expr, -1.0)
        mixed = [[c * (m - 2.0 * (u * d)) for m, d in zip(row, df)] for row, u in zip(mixed, v_low)]
        return dldx, [c * u for u in v_low], mixed, [[c * entry for entry in row] for row in rows]

    return Lagrangian(
        field=extended_fields.kinetic_energy_scalar(f_expr, u_expr),
        family=family,
        params=params,
        second_fiber_fn=second_fiber,
        profile=profile,
        name=family + "".join(f"[{e.source}]" for e in params.values()),
        el_terms_fn=terms,
    )


def kinetic_lagrangian() -> Lagrangian:
    """L = (1/2) g_ij v^i v^j; its trajectories are geodesics."""
    return _quadratic_lagrangian("kinetic", {}, kinetic_profile())


def kinetic_minus_potential(u) -> Lagrangian:
    """L = (1/2)|v|^2 - U(x)."""
    u_expr = expression.coordinate_expr(u)
    return _quadratic_lagrangian("kinetic-potential", {"U": u_expr}, kinetic_profile(u_expr))


def conformal_kinetic_lagrangian(f) -> Lagrangian:
    """L = (1/2) e^(-2 f(x)) g_ij v^i v^j."""
    f_expr = expression.coordinate_expr(f)
    profile = conformal_kinetic_profile(f_expr)
    return _quadratic_lagrangian("conformal-kinetic", {"f": f_expr}, profile)


def _fiberwise_point(chart: ManifoldChart, x: np.ndarray) -> tuple:
    """What the fiberwise fiber hooks read at x alone: g, its rows, the zero-velocity floor and x as floats."""
    g = manifold.metric_at(chart, x)
    return g, g.tolist(), zero_velocity_floor(x), x.tolist()


def fiberwise_phi_lagrangian(phi, c="1") -> Lagrangian:
    """L = phi(C(x) |v|), singular on the zero section.

    phi is an expression in "w", C a positive coordinate expression.
    Value evaluation is defined everywhere, but derivative hooks raise
    ZeroVelocityError below the zero-velocity floor. The jet forms |v|, T'
    and g v once for dL/dx and P; el_terms_fn forms |v|, g v, T'', T' and
    the metric partials once for dL/dx, P, M and A. Both are passes over
    Python floats returning lists, which share the formulas of dL/dx and P,
    and A's with normal_shift._a_from; each entry is formed as numpy's
    elementwise and einsum forms of the same expression would form it.
    """
    phi_expr = expression.profile_expr(phi)
    c_expr = expression.coordinate_expr(c)
    profile = phi_profile(phi_expr, c_expr)

    def ev(chart, point):
        w = manifold.speed(chart, point.x, point.v)
        return np.array(profile.value(point.x, w))

    def modulus_x_partials(form, w):
        return [s / (2.0 * w) for s in form]

    def spatial(x, w, d1, w_s):
        return [t + d1 * u for t, u in zip(expression.gradient(profile.expr, x, w), w_s)]

    def fiber(v_low, w, d1):
        return [d1 * u / w for u in v_low]

    def jet(chart, point):
        x = point.x
        w = velocity_modulus(chart, point)
        d1 = profile.d_w(x, w)
        dg = manifold.metric_partials_at(chart, x).tolist()
        w_s = modulus_x_partials(_metric_contractions(dg, point.v.tolist())[0], w)
        return spatial(x, w, d1, w_s), fiber(manifold.lower_index(chart, x, point.v).tolist(), w, d1)

    at_point = _per_point(_fiberwise_point)

    def first_order_at(chart, x, v):
        """(|v|, g's rows, g v, x as floats, T'): |v| by numpy's v @ g @ v, as manifold.speed
        forms it, whose fused multiply and add a float sum would round otherwise; g v as
        float sums, numpy's g @ v on a diagonal metric."""
        g, rows, floor, xs = at_point(chart, x)
        w = _above_floor(manifold._modulus(g, x, v), floor)
        vs = v.tolist()
        return w, rows, [_dot(row, vs) for row in rows], xs, profile.d_w(xs, w)

    # Kept for the last state: a Newton iterate's fiber Hessian follows its residual.
    first_order = _per_point(first_order_at)

    def dfib(chart, point):
        w, _, v_low, _, d1 = first_order(chart, point.x, point.v)
        return fiber(v_low, w, d1)

    def second_fiber(chart, point):
        w, rows, v_low, xs, d1 = first_order(chart, point.x, point.v)
        return _a_from(rows, v_low, w, profile.d2_w(xs, w), d1)

    def terms(chart, point):
        x = point.x
        g = manifold.metric_at(chart, x)
        w = velocity_modulus(chart, point)
        d2, d1 = profile.d2_w(x, w), profile.d_w(x, w)
        xd = expression.gradient(profile.expr, x, w, "w")
        rows, v_low = g.tolist(), (g @ point.v).tolist()
        dg = manifold.metric_partials_at(chart, x).tolist()
        vs = point.v.tolist()
        form, dgv = _metric_contractions(dg, vs)
        w_s = modulus_x_partials(form, w)
        ww = w * w
        mixed = [
            [(u / w) * (t + d2 * s) + d1 * (m / w - u * s / ww) for m, t, s in zip(row, xd, w_s)]
            for row, u in zip(dgv, v_low)
        ]
        return spatial(x, w, d1, w_s), fiber(v_low, w, d1), mixed, _a_from(rows, v_low, w, d2, d1)

    return Lagrangian(
        field=ExtendedField((0, 0), "v", ev, fiber_partials_fn=dfib, name=profile.name, jet_fn=jet),
        family="fiberwise-phi",
        params={"phi": phi_expr, "C": c_expr},
        second_fiber_fn=second_fiber,
        profile=profile,
        name=f"fiberwise[{profile.name}]",
        el_terms_fn=terms,
    )


# Each catalog family's builder, the parser of each of its expression
# parameters in the builder's order (fiberwise-phi's C may be left out), and
# the family's own Newtonian force, built from a Lagrangian of the family.
FAMILIES = {
    "kinetic": (kinetic_lagrangian, {}, lambda lag: dynamics_newton.geodesic_system()),
    "kinetic-potential": (
        kinetic_minus_potential,
        {"U": expression.coordinate_expr},
        lambda lag: dynamics_newton.force_from_potential(lag.params["U"]),
    ),
    "conformal-kinetic": (
        conformal_kinetic_lagrangian,
        {"f": expression.coordinate_expr},
        lambda lag: normal_shift.conformal_force_field(lag.params["f"]),
    ),
    "fiberwise-phi": (
        fiberwise_phi_lagrangian,
        {"phi": expression.profile_expr, "C": expression.coordinate_expr},
        lambda lag: normal_shift.spherical_force_field(lag.profile),
    ),
}


def catalog_lagrangian(family: str, **params) -> Lagrangian:
    """Build a catalog Lagrangian by family name from its FAMILIES expressions, sources or parsed."""
    if family not in FAMILIES:
        raise ValueError(f"unknown Lagrangian family {family!r}")
    build, parsers, _ = FAMILIES[family]
    return build(*(params[key] for key in parsers if key in params))
