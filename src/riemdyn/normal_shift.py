"""Fiberwise spherically symmetric scalars and shift force families.

A scalar on the tangent bundle is fiberwise spherically symmetric when
it depends on the velocity only through the metric modulus |v|, so it is
fully described by a radial profile T(x, w) evaluated at w = |v|. Every
profile is one expression over x1..xn and w. The catalog profiles are
fixed templates such as exp(-2*f)*w^2/2 or phi(C*w) with the coordinate
expressions substituted into the tree, and every partial a profile
offers is the expression compiler's exact derivative.

For fiberwise symmetric scalars the covariant spatial gradient reduces
to the plain partial of the profile at fixed w, and the fiber Hessian
has the closed form

    A = T'' Q + (T'/|v|) P

built from the projectors Q^i_k = v^i v_k / |v|^2 and P = I - Q onto the
velocity direction and its orthogonal complement. Inverting slot by slot
gives B = (1/T'') Q + (|v|/T') P with raised indexes.

A shift force derives from a profile W(x, w):

    F_r = -|v| sum_s (grad_s W / W') (2 v^s v_r / |v|^2 - delta^s_r)

optionally extended by an additive term (h(W)/W') v_r/|v| for a chosen
scalar function h. The special profile W = w e^(-f(x)) collapses the
force to the conformal family

    F_r = -|v|^2 grad_r f + 2 (grad f . v) v_r

whose flow coincides with the geodesic flow of the rescaled metric
e^(-2f) g; conformal_geodesic_check integrates both sides and reports
how far apart they land.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import expression, manifold
from .dynamics_newton import ForceField, IntegratorConfig, geodesic_system, integrate
from .errors import DegenerateLagrangianError, DegenerateWError, ZeroVelocityError
from .extended_fields import ExtendedField, TangentPoint, TensorComponents
from .manifold import ManifoldChart

__all__ = [
    "RadialProfile",
    "NormalShiftForce",
    "ConformalCheckReport",
    "profile_from_expression",
    "phi_profile",
    "kinetic_profile",
    "conformal_kinetic_profile",
    "conformal_shift_profile",
    "h_function",
    "zero_velocity_floor",
    "velocity_modulus",
    "projectors",
    "symmetric_a_matrix",
    "symmetric_b_matrix",
    "force_spherical",
    "force_normal_shift",
    "force_conformal",
    "spherical_force_field",
    "normal_shift_force_field",
    "conformal_force_field",
    "conformal_geodesic_check",
    "as_extended_field",
]

_DEGENERACY_TOL = 1e-10


@dataclass(frozen=True)
class RadialProfile:
    """A scalar profile T(x, w) of position and fiber modulus: one expression over x1..xn and w.

    Methods take (x: ndarray, w: float) and run the expression's compiled
    code. x_partials returns the array of plain partials dT/dx^s at fixed
    w, which for fiberwise symmetric scalars equals the covariant spatial
    gradient. x_partials_d_w is the mixed derivative d/dx^s of dT/dw.
    """

    expr: expression.ScalarExpr

    @property
    def name(self) -> str:
        return self.expr.source

    def value(self, x, w):
        return expression.evaluate_fiber(self.expr, x, w)

    def d_w(self, x, w):
        return expression.evaluate_fiber(self.expr, x, w, "w")

    def d2_w(self, x, w):
        return expression.evaluate_fiber(self.expr, x, w, "w", "w")

    def x_partials(self, x, w):
        return np.array(expression.gradient(self.expr, x, w))

    def x_partials_d_w(self, x, w):
        return np.array(expression.gradient(self.expr, x, w, "w"))


@dataclass(frozen=True)
class NormalShiftForce:
    """A shift force built from a profile W(x, w) and optional h term."""

    w_profile: RadialProfile
    h_fn: Callable[[float], float] | None = None


def profile_from_expression(source) -> RadialProfile:
    """Profile from an expression (source or parsed) over x1..xn and w."""
    return RadialProfile(expression.profile_expr(source) if isinstance(source, str) else source)


def _composed(template: str, **parts) -> expression.ScalarExpr:
    """A fixed template with each named part replaced by a coordinate expression (source or parsed)."""
    trees = {
        name: expression.coordinate_expr(part) if isinstance(part, str) else part
        for name, part in parts.items()
    }
    return expression.substitute(expression.parse(template), trees)


def phi_profile(phi, c) -> RadialProfile:
    """Profile phi(C(x) * w) from a one-variable phi and a coordinate C.

    phi is an expression in the variable "w"; c an expression in x1..xn.
    """
    phi_expr = expression.profile_expr(phi) if isinstance(phi, str) else phi
    if any(name != "w" for name in phi_expr.variables):
        raise ValueError("phi must be an expression in the single variable 'w'")
    return RadialProfile(expression.substitute(phi_expr, {"w": _composed("C*w", C=c)}))


# Parsed at import, so that building the kinetic family runs no expression code.
_KINETIC = expression.parse("w^2/2")


def kinetic_profile(u=None) -> RadialProfile:
    """Profile w^2 / 2 of the free kinetic scalar, less a potential U(x) when given."""
    if u is None:
        return RadialProfile(_KINETIC)
    return RadialProfile(_composed("w^2/2 - U", U=u))


def conformal_kinetic_profile(f) -> RadialProfile:
    """Profile (1/2) e^(-2 f(x)) w^2."""
    return RadialProfile(_composed("exp(-2*f)*w^2/2", f=f))


def conformal_shift_profile(f) -> RadialProfile:
    """Shift profile W = w e^(-f(x)), the conformal special case."""
    return RadialProfile(_composed("w*exp(-f)", f=f))


def h_function(source: str | None) -> Callable[[float], float] | None:
    """Resolve an h term: None or "0" for zero, else an expression in w ("sin w" is kept as an alias)."""
    if source is None or source == "0":
        return None
    expr = expression.profile_expr("sin(w)" if source == "sin w" else source)
    if any(name != "w" for name in expr.variables):
        raise ValueError("h must be an expression in the single variable 'w'")
    return lambda w: expression.evaluate_env(expr, {"w": w})


def zero_velocity_floor(x: np.ndarray) -> float:
    """States with |v| at or below this floor count as zero velocity."""
    return 1e-8 * max(1.0, manifold._sup_norm(x))


def velocity_modulus(chart: ManifoldChart, point: TangentPoint) -> float:
    """Metric modulus |v|, rejecting near-zero velocities."""
    w = manifold.speed(chart, point.x, point.v)
    if w <= zero_velocity_floor(point.x):
        raise ZeroVelocityError(
            f"velocity modulus {w:.3e} is below the zero-velocity floor"
        )
    return w


def projectors(chart: ManifoldChart, point: TangentPoint) -> tuple[TensorComponents, TensorComponents]:
    """Mixed-index projectors (Q, P) onto v and its orthogonal complement."""
    w = velocity_modulus(chart, point)
    v_low = manifold.lower_index(chart, point.x, point.v)
    q = np.outer(point.v, v_low) / (w * w)
    p = np.eye(chart.dim) - q
    variance = ("u", "l")
    return TensorComponents(q, variance), TensorComponents(p, variance)


def symmetric_a_matrix(
    chart: ManifoldChart, profile: RadialProfile, point: TangentPoint
) -> np.ndarray:
    """Closed-form fiber Hessian A_ij = T'' Q_ij + (T'/|v|) P_ij (lower indexes)."""
    w = velocity_modulus(chart, point)
    g = manifold.metric_at(chart, point.x)
    v_low = g @ point.v
    q_low = np.outer(v_low, v_low) / (w * w)
    p_low = g - q_low
    return profile.d2_w(point.x, w) * q_low + (profile.d_w(point.x, w) / w) * p_low


def symmetric_b_matrix(
    chart: ManifoldChart, profile: RadialProfile, point: TangentPoint
) -> np.ndarray:
    """Closed-form inverse B^ij = (1/T'') Q^ij + (|v|/T') P^ij (upper indexes)."""
    w = velocity_modulus(chart, point)
    d1 = profile.d_w(point.x, w)
    d2 = profile.d2_w(point.x, w)
    if abs(d1) < _DEGENERACY_TOL or abs(d2) < _DEGENERACY_TOL:
        raise DegenerateLagrangianError(
            f"profile {profile.name!r} has T'={d1:.3e}, T''={d2:.3e} at |v|={w:.3e}"
        )
    ginv = manifold.inverse_metric_at(chart, point.x)
    q_up = np.outer(point.v, point.v) / (w * w)
    p_up = ginv - q_up
    return q_up / d2 + (w / d1) * p_up


def force_spherical(
    chart: ManifoldChart, profile: RadialProfile, point: TangentPoint
) -> np.ndarray:
    """Covariant force F_r of a fiberwise symmetric Lagrangian system.

    F_r = -sum_s (grad_s T'/T'' - grad_s T/(|v| T'')) v^s v_r / |v|
          - |v| sum_s (grad_s T/T') (v^s v_r/|v|^2 - delta^s_r)
    """
    w = velocity_modulus(chart, point)
    x, v = point.x, point.v
    d1 = profile.d_w(x, w)
    d2 = profile.d2_w(x, w)
    if abs(d1) < _DEGENERACY_TOL or abs(d2) < _DEGENERACY_TOL:
        raise DegenerateLagrangianError(
            f"profile {profile.name!r} is degenerate at |v|={w:.3e}"
        )
    grad_t = profile.x_partials(x, w)
    grad_d1 = profile.x_partials_d_w(x, w)
    v_low = manifold.lower_index(chart, x, v)
    radial = float((grad_d1 / d2 - grad_t / (w * d2)) @ v)
    out = -radial * v_low / w
    tangential = float((grad_t / d1) @ v)
    out = out - w * (tangential * v_low / (w * w) - grad_t / d1)
    return out


def force_normal_shift(
    chart: ManifoldChart, force: NormalShiftForce, point: TangentPoint
) -> np.ndarray:
    """Covariant shift force from a profile W, with optional h term.

    F_r = -|v| sum_s (grad_s W / W') (2 v^s v_r / |v|^2 - delta^s_r)
          [+ (h(W)/W') v_r / |v|]
    """
    w = velocity_modulus(chart, point)
    x, v = point.x, point.v
    profile = force.w_profile
    d1 = profile.d_w(x, w)
    if abs(d1) < _DEGENERACY_TOL:
        raise DegenerateWError(
            f"shift profile {profile.name!r} has W'={d1:.3e} at |v|={w:.3e}"
        )
    grad_w = profile.x_partials(x, w)
    v_low = manifold.lower_index(chart, x, v)
    along = float((grad_w / d1) @ v)
    out = -w * (2.0 * along * v_low / (w * w) - grad_w / d1)
    if force.h_fn is not None:
        out = out + (force.h_fn(profile.value(x, w)) / d1) * (v_low / w)
    return out


def force_conformal(chart: ManifoldChart, f, point: TangentPoint) -> np.ndarray:
    """Covariant conformal force F_r = -|v|^2 grad_r f + 2 (grad f . v) v_r."""
    f_expr = expression.coordinate_expr(f) if isinstance(f, str) else f
    x, v = point.x, point.v
    df = np.array(expression.gradient(f_expr, x))
    g = manifold.metric_at(chart, x)
    v_low = g @ v
    w_sq = float(v @ v_low)
    return -w_sq * df + 2.0 * float(df @ v) * v_low


def spherical_force_field(profile: RadialProfile) -> ForceField:
    return ForceField(
        lambda chart, point: force_spherical(chart, profile, point),
        covariant=True,
        name=f"spherical({profile.name})",
    )


def normal_shift_force_field(force: NormalShiftForce) -> ForceField:
    return ForceField(
        lambda chart, point: force_normal_shift(chart, force, point),
        covariant=True,
        name=f"normal_shift({force.w_profile.name})",
    )


def conformal_force_field(f) -> ForceField:
    f_expr = expression.coordinate_expr(f) if isinstance(f, str) else f
    return ForceField(
        lambda chart, point: force_conformal(chart, f_expr, point),
        covariant=True,
        name=f"conformal({f_expr.source})",
    )


def as_extended_field(profile: RadialProfile) -> ExtendedField:
    """The profile as a plain scalar extended field (no analytic hooks).

    Useful for cross-checking the fixed-modulus reduction against the
    generic finite-difference gradient machinery.
    """

    def ev(chart, point):
        w = manifold.speed(chart, point.x, point.v)
        return np.array(profile.value(point.x, w))

    return ExtendedField((0, 0), "v", ev, name=profile.name)


@dataclass(frozen=True)
class ConformalCheckReport:
    """Outcome of integrating a conformal force against rescaled geodesics."""

    sup_distance: float
    parameter_discrepancy: float
    force_status: str
    geodesic_status: str
    samples_compared: int

    @property
    def both_completed(self) -> bool:
        return self.force_status == "completed" and self.geodesic_status == "completed"


def conformal_geodesic_check(
    chart: ManifoldChart, f, q0: TangentPoint, config: IntegratorConfig
) -> ConformalCheckReport:
    """Integrate the conformal force on chart g and the geodesics of e^(-2f) g.

    Both runs start from the same (x, v) with the same stepper settings.
    sup_distance is the worst per-time coordinate gap over the shared
    samples; parameter_discrepancy reports, for each force sample, the
    time offset to the nearest geodesic sample in coordinates, catching
    trajectories that trace one path on different clocks.
    """
    f_expr = expression.coordinate_expr(f, dim=chart.dim) if isinstance(f, str) else f
    traj_force = integrate(chart, conformal_force_field(f_expr), q0, config)
    rescaled = manifold.conformal_rescale(chart, f_expr)
    traj_geo = integrate(rescaled, geodesic_system(), q0, config)

    m = min(len(traj_force.ts), len(traj_geo.ts))
    xf, xg = traj_force.xs[:m], traj_geo.xs[:m]
    sup_distance = float(np.max(np.abs(xf - xg))) if m else math.inf

    gaps = np.max(np.abs(xf[:, None, :] - xg[None, :, :]), axis=2)
    nearest = np.argmin(gaps, axis=1)
    parameter_discrepancy = float(
        np.max(np.abs(traj_geo.ts[:m][nearest] - traj_force.ts[:m]))
    ) if m else math.inf

    return ConformalCheckReport(
        sup_distance=sup_distance,
        parameter_discrepancy=parameter_discrepancy,
        force_status=traj_force.status,
        geodesic_status=traj_geo.status,
        samples_compared=m,
    )
