"""Fiberwise spherically symmetric scalars and shift force families.

A scalar on the tangent bundle is fiberwise spherically symmetric when
it depends on the velocity only through the metric modulus |v|, so it is
fully described by a radial profile T(x, w) evaluated at w = |v|. For
such scalars the covariant spatial gradient reduces to the plain partial
of the profile at fixed w, and the fiber Hessian has the closed form

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
    "FiberwiseSymmetricLagrangian",
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
    """A scalar profile T(x, w) of position and fiber modulus.

    Callables take (x: ndarray, w: float). x_partials returns the array
    of plain partials dT/dx^s at fixed w, which for fiberwise symmetric
    scalars equals the covariant spatial gradient. x_partials_d_w is the
    mixed derivative d/dx^s of dT/dw.
    """

    value: Callable[[np.ndarray, float], float]
    d_w: Callable[[np.ndarray, float], float]
    d2_w: Callable[[np.ndarray, float], float]
    x_partials: Callable[[np.ndarray, float], np.ndarray]
    x_partials_d_w: Callable[[np.ndarray, float], np.ndarray]
    name: str = ""


@dataclass(frozen=True)
class FiberwiseSymmetricLagrangian:
    """A Lagrangian L(x, v) = profile(x, |v|)."""

    profile: RadialProfile
    name: str = ""


@dataclass(frozen=True)
class NormalShiftForce:
    """A shift force built from a profile W(x, w) and optional h term."""

    w_profile: RadialProfile
    h_fn: Callable[[float], float] | None = None
    name: str = ""


def profile_from_expression(source, fiber_var: str = "w") -> RadialProfile:
    """Profile from an expression (source or parsed) over x1..xn and one fiber variable."""
    expr = expression.profile_expr(source, fiber_var=fiber_var) if isinstance(source, str) else source

    def env(x, w):
        e = {f"x{k + 1}": float(val) for k, val in enumerate(x)}
        e[fiber_var] = float(w)
        return e

    def value(x, w):
        return expression.evaluate_env(expr, env(x, w))

    def d_w(x, w):
        return expression.partial_env(expr, env(x, w), fiber_var)

    def d2_w(x, w):
        return expression.second_partial_env(expr, env(x, w), fiber_var, fiber_var)

    def x_partials(x, w):
        e = env(x, w)
        return np.array(
            [expression.partial_env(expr, e, f"x{s + 1}") for s in range(len(x))]
        )

    def x_partials_d_w(x, w):
        e = env(x, w)
        return np.array(
            [
                expression.second_partial_env(expr, e, f"x{s + 1}", fiber_var)
                for s in range(len(x))
            ]
        )

    return RadialProfile(value, d_w, d2_w, x_partials, x_partials_d_w, name=expr.source)


def phi_profile(phi, c) -> RadialProfile:
    """Profile phi(C(x) * w) from a one-variable phi and a coordinate C.

    phi is an expression in the variable "w"; c an expression in x1..xn.
    Derivatives follow the chain rule through the product z = C(x) w.
    """
    phi_expr = expression.profile_expr(phi, fiber_var="w") if isinstance(phi, str) else phi
    c_expr = expression.coordinate_expr(c) if isinstance(c, str) else c
    if any(name != "w" for name in phi_expr.variables):
        raise ValueError("phi must be an expression in the single variable 'w'")

    def pieces(x, w):
        cval = expression.evaluate(c_expr, x)
        z = cval * w
        env = {"w": z}
        return cval, z, env

    def value(x, w):
        _, _, env = pieces(x, w)
        return expression.evaluate_env(phi_expr, env)

    def d_w(x, w):
        cval, _, env = pieces(x, w)
        return expression.partial_env(phi_expr, env, "w") * cval

    def d2_w(x, w):
        cval, _, env = pieces(x, w)
        return expression.second_partial_env(phi_expr, env, "w", "w") * cval * cval

    def x_partials(x, w):
        cval, _, env = pieces(x, w)
        dphi = expression.partial_env(phi_expr, env, "w")
        dc = np.array(expression.gradient(c_expr, x))
        return dphi * w * dc

    def x_partials_d_w(x, w):
        cval, _, env = pieces(x, w)
        dphi = expression.partial_env(phi_expr, env, "w")
        ddphi = expression.second_partial_env(phi_expr, env, "w", "w")
        dc = np.array(expression.gradient(c_expr, x))
        return (ddphi * cval * w + dphi) * dc

    name = f"phi({phi_expr.source}; C={c_expr.source})"
    return RadialProfile(value, d_w, d2_w, x_partials, x_partials_d_w, name=name)


def kinetic_profile() -> RadialProfile:
    """Profile w^2 / 2 of the free kinetic scalar."""
    zeros = lambda x, w: np.zeros(len(x))
    return RadialProfile(
        value=lambda x, w: 0.5 * w * w,
        d_w=lambda x, w: w,
        d2_w=lambda x, w: 1.0,
        x_partials=zeros,
        x_partials_d_w=zeros,
        name="kinetic",
    )


def conformal_kinetic_profile(f) -> RadialProfile:
    """Profile (1/2) e^(-2 f(x)) w^2."""
    f_expr = expression.coordinate_expr(f) if isinstance(f, str) else f

    def factor(x):
        return math.exp(-2.0 * expression.evaluate(f_expr, x))

    def df(x):
        return np.array(expression.gradient(f_expr, x))

    return RadialProfile(
        value=lambda x, w: 0.5 * factor(x) * w * w,
        d_w=lambda x, w: factor(x) * w,
        d2_w=lambda x, w: factor(x),
        x_partials=lambda x, w: -factor(x) * w * w * df(x),
        x_partials_d_w=lambda x, w: -2.0 * factor(x) * w * df(x),
        name=f"conformal_kinetic({f_expr.source})",
    )


def conformal_shift_profile(f) -> RadialProfile:
    """Shift profile W = w e^(-f(x)), the conformal special case."""
    f_expr = expression.coordinate_expr(f) if isinstance(f, str) else f

    def factor(x):
        return math.exp(-expression.evaluate(f_expr, x))

    def df(x):
        return np.array(expression.gradient(f_expr, x))

    return RadialProfile(
        value=lambda x, w: w * factor(x),
        d_w=lambda x, w: factor(x),
        d2_w=lambda x, w: 0.0,
        x_partials=lambda x, w: -w * factor(x) * df(x),
        x_partials_d_w=lambda x, w: -factor(x) * df(x),
        name=f"w*exp(-({f_expr.source}))",
    )


_H_BUILTINS = {
    "0": None,
    "w": lambda w: w,
    "w^2": lambda w: w * w,
    "sin w": math.sin,
    "sin(w)": math.sin,
}


def h_function(source: str | None) -> Callable[[float], float] | None:
    """Resolve an h term: builtin name, expression in w, or None for zero."""
    if source is None:
        return None
    if source in _H_BUILTINS:
        return _H_BUILTINS[source]
    expr = expression.profile_expr(source, fiber_var="w")
    if any(name != "w" for name in expr.variables):
        raise ValueError("h must be an expression in the single variable 'w'")
    return lambda w: expression.evaluate_env(expr, {"w": w})


def zero_velocity_floor(x: np.ndarray) -> float:
    """States with |v| at or below this floor count as zero velocity."""
    return 1e-8 * max(1.0, float(np.max(np.abs(x))))


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
    chart: ManifoldChart, lagrangian: FiberwiseSymmetricLagrangian, point: TangentPoint
) -> np.ndarray:
    """Closed-form fiber Hessian A_ij = T'' Q_ij + (T'/|v|) P_ij (lower indexes)."""
    w = velocity_modulus(chart, point)
    profile = lagrangian.profile
    g = manifold.metric_at(chart, point.x)
    v_low = g @ point.v
    q_low = np.outer(v_low, v_low) / (w * w)
    p_low = g - q_low
    return profile.d2_w(point.x, w) * q_low + (profile.d_w(point.x, w) / w) * p_low


def symmetric_b_matrix(
    chart: ManifoldChart, lagrangian: FiberwiseSymmetricLagrangian, point: TangentPoint
) -> np.ndarray:
    """Closed-form inverse B^ij = (1/T'') Q^ij + (|v|/T') P^ij (upper indexes)."""
    w = velocity_modulus(chart, point)
    profile = lagrangian.profile
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
    chart: ManifoldChart, lagrangian: FiberwiseSymmetricLagrangian, point: TangentPoint
) -> np.ndarray:
    """Covariant force F_r of a fiberwise symmetric Lagrangian system.

    F_r = -sum_s (grad_s T'/T'' - grad_s T/(|v| T'')) v^s v_r / |v|
          - |v| sum_s (grad_s T/T') (v^s v_r/|v|^2 - delta^s_r)
    """
    w = velocity_modulus(chart, point)
    x, v = point.x, point.v
    profile = lagrangian.profile
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


def spherical_force_field(lagrangian: FiberwiseSymmetricLagrangian) -> ForceField:
    return ForceField(
        lambda chart, point: force_spherical(chart, lagrangian, point),
        covariant=True,
        name=f"spherical({lagrangian.profile.name})",
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


def as_extended_field(lagrangian: FiberwiseSymmetricLagrangian) -> ExtendedField:
    """The profile as a plain scalar extended field (no analytic hooks).

    Useful for cross-checking the fixed-modulus reduction against the
    generic finite-difference gradient machinery.
    """

    def ev(chart, point):
        w = manifold.speed(chart, point.x, point.v)
        return np.array(lagrangian.profile.value(point.x, w))

    return ExtendedField((0, 0), "v", ev, name=lagrangian.profile.name)


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
