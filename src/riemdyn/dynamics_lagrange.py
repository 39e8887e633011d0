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

Every solve with A is gated by _require_regular, which refuses an A that
is singular by manifold's one rule, |det(A / |A|_max)| <= 1e-12, the rule
metric_at applies to the metric, and an A with an infinite or NaN entry
with NumericOverflowError, so such a run ends "non_finite". The solves
themselves stay with np.linalg.solve, which sets the bits.

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
from typing import Callable, Sequence

import numpy as np

from . import dynamics_newton, expression, extended_fields, manifold, normal_shift
from .dynamics_newton import (
    ForceField,
    IntegratorConfig,
    Trajectory,
    _tangent_run,
)
from .errors import NumericOverflowError, SingularAError
from .extended_fields import CurveSample, ExtendedField, TangentPoint, _conformal_factor
from .extended_fields import _fiber_correction, _index_terms, _quadratic_x_partials, _scaled
from .manifold import ManifoldChart
from .normal_shift import (
    RadialProfile,
    _a_from,
    conformal_kinetic_profile,
    kinetic_profile,
    phi_profile,
    symmetric_a_matrix,
    velocity_modulus,
)

__all__ = [
    "Lagrangian",
    "RegularityReport",
    "kinetic_lagrangian",
    "kinetic_minus_potential",
    "conformal_kinetic_lagrangian",
    "fiberwise_phi_lagrangian",
    "catalog_lagrangian",
    "FAMILIES",
    "momentum_field",
    "a_matrix",
    "regularity",
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
    (dL/dx, P, M, A) from one pass over a state that starts with metric_at,
    equal to what the field's partials and second_fiber_fn give; its M is
    the momentum field's x partials. family and params identify catalog
    members so the Hamiltonian side can attach closed forms; profile
    carries the fiberwise symmetric reduction when one exists.
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
            x_partials_fn=None if terms is None else lambda chart, point: terms(chart, point)[2],
            fiber_partials_fn=self.second_fiber_fn,
            name=f"momentum[{self.name}]",
        )
        object.__setattr__(self, "_momentum", momentum)

    def value(self, chart: ManifoldChart, point: TangentPoint) -> float:
        return float(self.field.eval_fn(chart, point))

    def dx(self, chart: ManifoldChart, point: TangentPoint) -> np.ndarray:
        """Plain partials dL/dx^q at fixed velocity components."""
        return extended_fields.x_partials(chart, self.field, point)

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


@dataclass(frozen=True)
class RegularityReport:
    """Determinant and spectrum summary of the fiber Hessian at a state.

    det_a is det(A / |A|_max), the determinant the singularity rule reads,
    and tolerance the rule's bound on it.
    """

    det_a: float
    min_abs_eig: float
    is_regular: bool
    is_positive: bool
    tolerance: float


def _hessian_det(a: np.ndarray) -> float:
    """det(A / |A|_max) of a fiber Hessian; an infinite or NaN entry raises NumericOverflowError."""
    size = manifold._sup_norm(a)
    if not math.isfinite(size):
        raise NumericOverflowError(f"fiber Hessian has a non-finite entry ({size!r})")
    return manifold._relative_det(a, size)


def _require_regular(a: np.ndarray, message: str) -> None:
    """Raise SingularAError when A is singular by manifold's rule; message is formatted with the keyword det."""
    det = _hessian_det(a)
    if manifold._singular(det):
        raise SingularAError(message.format(det=det))


def regularity(chart: ManifoldChart, lagrangian: Lagrangian, point: TangentPoint) -> RegularityReport:
    """Classify the fiber Hessian at a state as regular / positive definite.

    is_regular is the decision of _require_regular, and is_positive that of
    metric_at's test on the symmetric part of A: a Cholesky factor, and
    regular by the same rule. Both are decided on A / |A|_max, so A and c A
    get the same decisions; of the report, only min_abs_eig scales with c.
    An A with an infinite or NaN entry raises NumericOverflowError.
    """
    a = a_matrix(chart, lagrangian, point)
    det = _hessian_det(a)
    rows = manifold._symmetric_rows(a.tolist())
    definite = manifold._cholesky_det(rows, max(abs(value) for row in rows for value in row))
    return RegularityReport(
        det_a=det,
        min_abs_eig=float(np.min(np.abs(np.linalg.eigvalsh(np.array(rows))))),
        is_regular=not manifold._singular(det),
        is_positive=definite is not None and not manifold._singular(definite),
        tolerance=manifold._SINGULAR_DET,
    )


def _el_terms(chart: ManifoldChart, lagrangian: Lagrangian, point: TangentPoint) -> tuple:
    """(dL/dx, P, M, A) at a state: one el_terms_fn call, else a_matrix, the
    field's two partials and finite differences of P for M."""
    if lagrangian.el_terms_fn is not None:
        return lagrangian.el_terms_fn(chart, point)
    manifold.metric_at(chart, point.x)  # validates x once; the hooks read the record
    a = a_matrix(chart, lagrangian, point)
    mixed = extended_fields.x_partials(chart, momentum_field(lagrangian), point)
    return lagrangian.dx(chart, point), lagrangian.dv(chart, point), mixed, a


def force_from_lagrangian(
    chart: ManifoldChart, lagrangian: Lagrangian, point: TangentPoint
) -> np.ndarray:
    """Force vector F^s solving A F = grad L - (grad P) . v.

    grad is the covariant spatial gradient, P the momentum covector
    field; the resulting Newtonian system reproduces the Euler-Lagrange
    motion of the Lagrangian. dL/dx, P, M and A come from one _el_terms
    pass, and Gamma is read once for spatial_gradient's fiber and index terms.
    Nothing in riemdyn calls it; it stays public for the Newtonian leg of
    perfbench/workloads.py's threeway_sphere workload.
    """
    dldx, p, mixed, a = _el_terms(chart, lagrangian, point)
    _require_regular(a, "fiber Hessian is singular (det {det:.3e})")
    gamma, v = manifold.christoffel_at(chart, point.x), point.v
    grad_l = dldx + _fiber_correction(gamma, v, p, "v")
    grad_p = mixed + _fiber_correction(gamma, v, a, "v") + _index_terms(gamma, p, ("l",))
    return np.linalg.solve(a, grad_l - grad_p @ v)


def lagrangian_force_field(lagrangian: Lagrangian) -> ForceField:
    """The extracted force as a plain (upper index) force field; public only for perfbench."""
    return ForceField(
        lambda chart, point: force_from_lagrangian(chart, lagrangian, point), covariant=False
    )


def _as_samples(trajectory_or_samples) -> list[CurveSample]:
    if isinstance(trajectory_or_samples, Trajectory):
        return trajectory_or_samples.curve_samples()
    return list(trajectory_or_samples)


def el_residual(chart: ManifoldChart, lagrangian: Lagrangian, trajectory) -> np.ndarray:
    """Covariant Euler-Lagrange residual D_t P_k - grad_k L per sample.

    Zero (to discretization error) along true trajectories of the
    system. Accepts a Trajectory or a list of CurveSamples.
    """
    samples = _as_samples(trajectory)
    values = np.stack(
        [extended_fields.fiber_partials(chart, lagrangian.field, s.point) for s in samples]
    )
    dtp = extended_fields.covariant_time_derivative(chart, samples, values, ("l",))
    out = np.empty_like(dtp)
    for i, sample in enumerate(samples):
        grad_l = extended_fields.spatial_gradient(chart, lagrangian.field, sample.point).data
        out[i] = dtp[i] - grad_l
    return out


def classical_el_residual(chart: ManifoldChart, lagrangian: Lagrangian, trajectory) -> np.ndarray:
    """Textbook residual d/dt (dL/dv^k) - dL/dx^k, finite differences only.

    Both partials come from central differences of the raw Lagrangian
    value and the time derivative from second-order differences of the
    sampled momenta, so this route shares no analytic derivative code
    with el_residual.
    """
    samples = _as_samples(trajectory)
    stripped = dataclasses.replace(
        lagrangian.field, x_partials_fn=None, fiber_partials_fn=None, jet_fn=None
    )
    dt = extended_fields._check_uniform_times(samples)
    momenta = np.stack(
        [extended_fields.fiber_partials(chart, stripped, s.point) for s in samples]
    )
    ddt = np.gradient(momenta, dt, axis=0, edge_order=2)
    out = np.empty_like(momenta)
    for i, sample in enumerate(samples):
        dldx = extended_fields.x_partials(chart, stripped, sample.point)
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
    n = chart.dim

    def rhs(t, y):
        point = TangentPoint(y[:n], y[n:])
        dldx, _, mixed, a = _el_terms(chart, lagrangian, point)
        _require_regular(a, "fiber Hessian is singular (det {det:.3e}) during integration")
        vdot = np.linalg.solve(a, dldx - mixed @ point.v)
        return np.concatenate([point.v, vdot])

    return _tangent_run(chart, rhs, q0, config, energy_fn)


# ---------------------------------------------------------------------------
# Catalog


def _quadratic_lagrangian(family: str, params: dict, profile: RadialProfile) -> Lagrangian:
    """L = (1/2) e^(-2f) g_ij v^i v^j - U with the optional f and U of params.

    el_terms_fn reads g and dg once for dL/dx, P, A = e^(-2f) g and M[k, s] =
    e^(-2f) (d g_kj/dx^s v^j - 2 g_kj v^j df/dx^s); without f and U no
    expression code runs. The name is the family followed by each
    expression's source in brackets.
    """
    f_expr, u_expr = params.get("f"), params.get("U")

    def second_fiber(chart, point):
        g = manifold.metric_at(chart, point.x)
        return _scaled(f_expr, g, _conformal_factor(f_expr, point.x, -2.0))

    def terms(chart, point):
        x, v = point.x, point.v
        g = manifold.metric_at(chart, x)
        dg = manifold.metric_partials_at(chart, x)
        v_low = g @ v
        dgv = np.einsum("kjs,j->ks", dg, v)
        c = _conformal_factor(f_expr, x, -2.0)
        df = None if f_expr is None else np.array(expression.gradient(f_expr, x))
        mixed = dgv if df is None else c * (dgv - 2.0 * np.outer(v_low, df))
        dldx = _quadratic_x_partials(x, v, v_low, c, dg, df, u_expr, -1.0)
        return dldx, _scaled(f_expr, v_low, c), mixed, _scaled(f_expr, g, c)

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


def fiberwise_phi_lagrangian(phi, c="1") -> Lagrangian:
    """L = phi(C(x) |v|), singular on the zero section.

    phi is an expression in "w", C a positive coordinate expression.
    Value evaluation is defined everywhere, but derivative hooks raise
    ZeroVelocityError below the zero-velocity floor. el_terms_fn forms |v|,
    g v, T'', T' and the metric partials once for dL/dx, P, M and A, sharing
    the formulas of dL/dx and P with the field's hooks and A's with
    symmetric_a_matrix.
    """
    phi_expr = expression.profile_expr(phi)
    c_expr = expression.coordinate_expr(c)
    profile = phi_profile(phi_expr, c_expr)

    def ev(chart, point):
        w = manifold.speed(chart, point.x, point.v)
        return np.array(profile.value(point.x, w))

    def modulus_x_partials(dg, v, w):
        return np.einsum("ijs,i,j->s", dg, v, v) / (2.0 * w)

    def spatial(x, w, d1, w_s):
        return profile.x_partials(x, w) + d1 * w_s

    def fiber(v_low, w, d1):
        return d1 * v_low / w

    def dx(chart, point):
        w = velocity_modulus(chart, point)
        w_s = modulus_x_partials(manifold.metric_partials_at(chart, point.x), point.v, w)
        return spatial(point.x, w, profile.d_w(point.x, w), w_s)

    def dfib(chart, point):
        w = velocity_modulus(chart, point)
        v_low = manifold.lower_index(chart, point.x, point.v)
        return fiber(v_low, w, profile.d_w(point.x, w))

    def terms(chart, point):
        x, v = point.x, point.v
        g = manifold.metric_at(chart, x)
        w = velocity_modulus(chart, point)
        d2, d1, xd = profile.d2_w(x, w), profile.d_w(x, w), profile.x_partials_d_w(x, w)
        dg = manifold.metric_partials_at(chart, x)
        w_s = modulus_x_partials(dg, v, w)
        v_low = g @ v
        radial = np.outer(v_low / w, xd + d2 * w_s)
        geometric = d1 * (np.einsum("kjs,j->ks", dg, v) / w - np.outer(v_low, w_s) / (w * w))
        a = _a_from(g, v_low, w, d2, d1)
        return spatial(x, w, d1, w_s), fiber(v_low, w, d1), radial + geometric, a

    return Lagrangian(
        field=ExtendedField((0, 0), "v", ev, dx, dfib, name=profile.name),
        family="fiberwise-phi",
        params={"phi": phi_expr, "C": c_expr},
        second_fiber_fn=lambda chart, point: symmetric_a_matrix(chart, profile, point),
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
