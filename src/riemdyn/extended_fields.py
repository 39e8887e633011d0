"""Tensor fields that depend on position and on a fiber variable.

An extended field assigns tensor components X(x, v) or X(x, p) to every
state, where v is a tangent velocity (the "v" representation) and p a
cotangent momentum (the "p" representation). Because components depend
on the fiber coordinate, the covariant spatial derivative gains a fiber
correction alongside the usual Christoffel index terms:

    v-rep:  grad_q X = dX/dx^q - v^a Gamma^b_qa dX/dv^b
                       + Gamma-terms for upper indexes
                       - Gamma-terms for lower indexes
    p-rep:  same, with fiber correction + p_a Gamma^a_qb dX/dp_b

The fiber derivative is itself a tensor operation: in the v
representation d/dv^q adds a lower index, in the p representation
d/dp_q adds an upper index (a lowered variant contracts with the
metric). Along a curve t -> (x(t), v(t)) the covariant time derivative

    D_t X = dX/dt + Gamma index terms contracted with xdot

satisfies the chain rule D_t X = (grad X) . xdot + (fiber grad X) . D_t v,
which chain_rule_check verifies sample by sample.

A jet is a field's first-order derivative at a point, its x partials and
fiber partials without the value (Griewank & Walther, Evaluating
Derivatives, 2008): one jet_fn call, or x_partials and fiber_partials.
spatial_gradient reads Gamma once, from the chart's geometry record,
reads the value only for rank > 0, where the index terms need it, and
takes both partials from one jet. The fiber correction is one matrix
product and each index term one einsum, for any rank.

A field without a hook gets its partials and its fiber Hessian from
finite differences: x_partials, fiber_partials and fiber_hessian call
expression._central_differences and expression._second_differences, and
x_partials refuses a stencil that leaves the chart with FDStepError.

Conventions: component axes are ordered upper-then-lower, every new
derivative axis is appended last, and Christoffel arrays are indexed
Gamma[k, i, j] = Gamma^k_ij.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import expression, manifold
from .errors import (
    InsufficientSamplesError,
    MissingAccelError,
    NumericOverflowError,
    RankMismatchError,
)
from .manifold import ManifoldChart

__all__ = [
    "TangentPoint",
    "CotangentPoint",
    "CurveSample",
    "ExtendedField",
    "TensorComponents",
    "x_partials",
    "fiber_partials",
    "jet",
    "fiber_hessian",
    "spatial_gradient",
    "velocity_gradient",
    "velocity_gradient_lowered",
    "contract",
    "covariant_time_derivative",
    "chain_rule_check",
    "kinetic_energy_scalar",
    "velocity_vector_field",
    "lowered_velocity_field",
    "momentum_kinetic_scalar",
]


@dataclass(frozen=True, eq=False)
class TangentPoint:
    """A point of the tangent bundle in chart coordinates: (x, v)."""

    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))


@dataclass(frozen=True, eq=False)
class CotangentPoint:
    """A point of the cotangent bundle in chart coordinates: (x, p)."""

    x: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))


@dataclass(frozen=True, eq=False)
class CurveSample:
    """One sample of a curve in the tangent bundle.

    accel, when present, holds the covariant acceleration D_t v at the
    sample (an upper-index vector); checks that need it raise
    MissingAccelError when it is absent.
    """

    t: float
    point: TangentPoint
    accel: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class ExtendedField:
    """Tensor components over the tangent or cotangent bundle.

    rank is (upper, lower). rep is "v" or "p" and fixes which bundle the
    field lives on; every operation validates it against the point type
    so velocity and momentum data is never silently mixed. eval_fn maps
    (chart, point) to a component array of shape (dim,) * (upper + lower)
    with upper axes first. The two optional partials callables return
    analytic derivatives with the derivative axis appended last; when
    absent, central finite differences of eval_fn are used. The optional
    jet_fn returns the pair (x partials, fiber partials) from one call,
    for a field whose two share costly work; each must equal what
    x_partials_fn and fiber_partials_fn return at the point, and it
    refuses every point that eval_fn refuses.
    """

    rank: tuple[int, int]
    rep: str
    eval_fn: Callable[[ManifoldChart, object], np.ndarray]
    x_partials_fn: Callable[[ManifoldChart, object], np.ndarray] | None = None
    fiber_partials_fn: Callable[[ManifoldChart, object], np.ndarray] | None = None
    name: str = ""
    jet_fn: Callable[[ManifoldChart, object], tuple] | None = None

    def __post_init__(self):
        if self.rep not in ("v", "p"):
            raise ValueError(f"rep must be 'v' or 'p', got {self.rep!r}")
        if len(self.rank) != 2 or min(self.rank) < 0:
            raise ValueError(f"rank must be a pair of non-negative ints, got {self.rank!r}")

    @property
    def variance(self) -> tuple[str, ...]:
        return ("u",) * self.rank[0] + ("l",) * self.rank[1]


@dataclass(frozen=True, eq=False)
class TensorComponents:
    """A plain component array tagged with per-axis variance ('u' or 'l')."""

    data: np.ndarray
    variance: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "data", np.asarray(self.data, dtype=float))
        if len(self.variance) != self.data.ndim:
            raise RankMismatchError(
                f"variance {self.variance!r} does not match array of ndim {self.data.ndim}"
            )
        if any(tag not in ("u", "l") for tag in self.variance):
            raise RankMismatchError(f"variance tags must be 'u' or 'l': {self.variance!r}")


def _fiber_of(field: ExtendedField, point) -> np.ndarray:
    if field.rep == "v":
        if not isinstance(point, TangentPoint):
            raise ValueError(
                f"field {field.name!r} is velocity-represented but got {type(point).__name__}"
            )
        return point.v
    if not isinstance(point, CotangentPoint):
        raise ValueError(
            f"field {field.name!r} is momentum-represented but got {type(point).__name__}"
        )
    return point.p


def _with_fiber(point, fiber: np.ndarray):
    if isinstance(point, TangentPoint):
        return TangentPoint(point.x, fiber)
    return CotangentPoint(point.x, fiber)


def _with_base(point, x: np.ndarray):
    if isinstance(point, TangentPoint):
        return TangentPoint(x, point.v)
    return CotangentPoint(x, point.p)


def _component_shape(field: ExtendedField, dim: int) -> tuple[int, ...]:
    return (dim,) * (field.rank[0] + field.rank[1])


def _eval_components(chart: ManifoldChart, field: ExtendedField, point) -> np.ndarray:
    _fiber_of(field, point)
    out = np.asarray(field.eval_fn(chart, point), dtype=float)
    want = _component_shape(field, chart.dim)
    if out.shape != want:
        raise RankMismatchError(
            f"field {field.name!r} produced shape {out.shape}, expected {want}"
        )
    return out


def x_partials(chart: ManifoldChart, field: ExtendedField, point) -> np.ndarray:
    """dX/dx^q at fixed fiber components, derivative axis last."""
    if field.x_partials_fn is not None:
        return np.asarray(field.x_partials_fn(chart, point), dtype=float)
    return expression._central_differences(
        lambda y: _eval_components(chart, field, _with_base(point, y)),
        manifold.check_point(chart, point.x),
        lambda y: manifold.in_domain(chart, y),
    )


def fiber_partials(chart: ManifoldChart, field: ExtendedField, point) -> np.ndarray:
    """dX/dv^b (or dX/dp_b), derivative axis last."""
    if field.fiber_partials_fn is not None:
        return np.asarray(field.fiber_partials_fn(chart, point), dtype=float)
    return expression._central_differences(
        lambda f: _eval_components(chart, field, _with_fiber(point, f)), _fiber_of(field, point)
    )


def jet(chart: ManifoldChart, field: ExtendedField, point) -> tuple[np.ndarray, np.ndarray]:
    """(dX/dx^q, fiber partials) at point.

    One jet_fn call when the field has one, otherwise x_partials and
    fiber_partials. The value is not part of a jet; _eval_components reads it.
    """
    if field.jet_fn is not None:
        dx, dfib = field.jet_fn(chart, point)
        return np.asarray(dx, dtype=float), np.asarray(dfib, dtype=float)
    return x_partials(chart, field, point), fiber_partials(chart, field, point)


def fiber_hessian(chart: ManifoldChart, field: ExtendedField, point) -> np.ndarray:
    """Finite-difference fiber Hessian d2X/dv dv (or d2X/dp dp) of a scalar field.

    First differences of fiber_partials_fn when the field has one,
    otherwise second differences of the value.
    """
    fiber = _fiber_of(field, point)
    if field.fiber_partials_fn is not None:
        return expression._central_differences(
            lambda f: np.asarray(field.fiber_partials_fn(chart, _with_fiber(point, f)), dtype=float),
            fiber,
        )
    return expression._second_differences(
        lambda f: float(field.eval_fn(chart, _with_fiber(point, f))), fiber
    )


def _fiber_correction(
    gamma: np.ndarray, fiber: np.ndarray, dfib: np.ndarray, rep: str
) -> np.ndarray:
    """The fiber term of the spatial gradient, shape like dfib.

    v-rep: - v^a Gamma^b_qa dX/dv^b.  p-rep: + p_a Gamma^a_qb dX/dp_b.
    Each is one matrix product of dfib with a (dim, dim) contraction of Gamma.
    """
    if rep == "v":
        return -(dfib @ (gamma @ fiber))  # (gamma @ v)[b, q] = Gamma^b_qa v^a
    n = fiber.shape[0]
    m = (fiber @ gamma.reshape(n, n * n)).reshape(n, n)  # m[q, b] = p_a Gamma^a_qb
    return dfib @ m.T


# Subscripts of the component axes in _index_terms; "a" is summed and "q" is the new index.
_COMPONENT_AXES = "bcdefghijklmnoprstuvwxyz"


def _index_terms(gamma: np.ndarray, data: np.ndarray, variance: Sequence[str]) -> np.ndarray:
    """Christoffel corrections for every component index, q axis appended.

    An upper index k adds + Gamma^k_qa X^(...a...) and a lower index j adds
    - Gamma^a_qj X_(...a...), one einsum per index.
    """
    axes = _COMPONENT_AXES[: data.ndim]
    out = np.zeros(data.shape + (gamma.shape[0],))
    for i, tag in enumerate(variance):
        summed = axes[:i] + "a" + axes[i + 1 :]
        if tag == "u":
            out += np.einsum(f"{axes[i]}qa,{summed}->{axes}q", gamma, data)
        else:
            out -= np.einsum(f"aq{axes[i]},{summed}->{axes}q", gamma, data)
    return out


def spatial_gradient(chart: ManifoldChart, field: ExtendedField, point) -> TensorComponents:
    """Covariant spatial derivative, one new lower index appended.

    Gamma is read once. The value is read only for rank > 0, before the
    partials, and both partials come from one jet.
    """
    fiber = _fiber_of(field, point)
    gamma = manifold.christoffel_at(chart, point.x)
    values = None if field.rank == (0, 0) else _eval_components(chart, field, point)
    dx, dfib = jet(chart, field, point)
    data = dx + _fiber_correction(gamma, fiber, dfib, field.rep)
    if values is not None:
        data = data + _index_terms(gamma, values, field.variance)
    return TensorComponents(data, field.variance + ("l",))


def velocity_gradient(chart: ManifoldChart, field: ExtendedField, point) -> TensorComponents:
    """Fiber derivative: d/dv^q adds a lower index, d/dp_q an upper one."""
    dfib = fiber_partials(chart, field, point)
    new_tag = "l" if field.rep == "v" else "u"
    return TensorComponents(dfib, field.variance + (new_tag,))


def velocity_gradient_lowered(
    chart: ManifoldChart, field: ExtendedField, point
) -> TensorComponents:
    """Momentum-representation fiber derivative with the new index lowered.

    Contracts d/dp_k with the metric: g_qk dX/dp_k. Only meaningful for
    p-rep fields; v-rep fields already produce a lower index.
    """
    if field.rep != "p":
        raise ValueError("lowered fiber gradient applies to p-rep fields only")
    dfib = fiber_partials(chart, field, point)
    g = manifold.metric_at(chart, point.x)
    return TensorComponents(
        np.einsum("...k,qk->...q", dfib, g), field.variance + ("l",)
    )


def contract(a: TensorComponents, b: TensorComponents, slot_a: int, slot_b: int) -> TensorComponents:
    """Contract one slot of a against one slot of b (one upper, one lower)."""
    if not (0 <= slot_a < len(a.variance)) or not (0 <= slot_b < len(b.variance)):
        raise RankMismatchError(
            f"slots ({slot_a}, {slot_b}) out of range for variances "
            f"{a.variance!r} and {b.variance!r}"
        )
    if a.variance[slot_a] == b.variance[slot_b]:
        raise RankMismatchError(
            f"cannot contract two {a.variance[slot_a]!r} slots; "
            "one upper and one lower index required"
        )
    if a.data.shape[slot_a] != b.data.shape[slot_b]:
        raise RankMismatchError(
            f"slot lengths differ: {a.data.shape[slot_a]} vs {b.data.shape[slot_b]}"
        )
    data = np.tensordot(a.data, b.data, axes=([slot_a], [slot_b]))
    variance = (
        tuple(t for i, t in enumerate(a.variance) if i != slot_a)
        + tuple(t for i, t in enumerate(b.variance) if i != slot_b)
    )
    return TensorComponents(data, variance)


def _check_uniform_times(samples: Sequence[CurveSample]) -> float:
    if len(samples) < 3:
        raise InsufficientSamplesError(
            f"need at least 3 samples, got {len(samples)}"
        )
    ts = np.array([s.t for s in samples])
    dts = np.diff(ts)
    dt = float(dts[0])
    if dt <= 0.0 or not np.allclose(dts, dt, rtol=1e-9, atol=1e-12):
        raise InsufficientSamplesError("samples must be uniformly spaced in t")
    return dt


def covariant_time_derivative(
    chart: ManifoldChart,
    samples: Sequence[CurveSample],
    values,
    variance: tuple[str, ...] = (),
) -> np.ndarray:
    """D_t of component values recorded along a curve.

    values has shape (len(samples),) + component shape; variance tags the
    component axes. The time derivative uses second-order differences
    (central inside, one-sided at the ends) plus spatial_gradient's
    Christoffel index terms, _index_terms, contracted with the curve velocity.
    """
    dt = _check_uniform_times(samples)
    values = np.asarray(values, dtype=float)
    if values.shape[0] != len(samples):
        raise InsufficientSamplesError(
            f"got {values.shape[0]} value rows for {len(samples)} samples"
        )
    if values.ndim - 1 != len(variance):
        raise RankMismatchError(
            f"variance {variance!r} does not match value shape {values.shape[1:]}"
        )
    ddt = np.gradient(values, dt, axis=0, edge_order=2)
    if not variance:
        return ddt
    out = np.empty_like(ddt)
    for i, sample in enumerate(samples):
        gamma = manifold.christoffel_at(chart, sample.point.x)
        out[i] = ddt[i] + _index_terms(gamma, values[i], variance) @ sample.point.v
    return out


def chain_rule_check(
    chart: ManifoldChart, field: ExtendedField, samples: Sequence[CurveSample]
) -> np.ndarray:
    """Residual of D_t X = (grad X) . xdot + (fiber grad X) . D_t v per sample.

    Returns an array of shape (len(samples),) + component shape; a small
    residual confirms the two gradients and the curve data are mutually
    consistent. Requires a v-rep field and samples carrying accel.
    """
    if field.rep != "v":
        raise ValueError("chain rule check runs on v-rep fields")
    for sample in samples:
        if sample.accel is None:
            raise MissingAccelError(f"sample at t={sample.t} lacks covariant accel")
    values = np.stack(
        [_eval_components(chart, field, s.point) for s in samples], axis=0
    )
    lhs = covariant_time_derivative(chart, samples, values, field.variance)
    residual = np.empty_like(lhs)
    for i, sample in enumerate(samples):
        grad = spatial_gradient(chart, field, sample.point).data
        vgrad = velocity_gradient(chart, field, sample.point).data
        rhs = np.einsum("...q,q->...", grad, sample.point.v)
        rhs = rhs + np.einsum("...b,b->...", vgrad, sample.accel)
        residual[i] = lhs[i] - rhs
    return residual


# ---------------------------------------------------------------------------
# Field catalog used by checks and higher layers


def _conformal_factor(f_expr, x, scale: float) -> float:
    """e^(scale f(x)), or 1.0 without f: e^(-2f) scales the quadratic Lagrangian, e^(2f) its H."""
    if f_expr is None:
        return 1.0
    try:
        factor = math.exp(scale * expression.evaluate(f_expr, x))
    except OverflowError:
        raise NumericOverflowError(
            f"conformal factor e^({scale:g} f) at {x!r} overflows the float range"
        ) from None
    if factor == 0.0:
        raise NumericOverflowError(
            f"conformal factor e^({scale:g} f) at {x!r} underflows the float range"
        )
    return factor


def _scaled(f_expr, a, c):
    """c a for the conformal factor c of f; a itself, not copied, when there is no f."""
    return a if f_expr is None else c * a


def _quadratic_x_partials(x, y, my, c, dm, df, u_expr, sign: float) -> np.ndarray:
    """dX/dx^q of (1/2) c y . (m y) + s U from m y, c, dm/dx^q and df/dx^q (None without f)."""
    out = 0.5 * np.einsum("ijq,i,j->q", dm, y, y)
    if df is not None:
        out = c * (out + (sign * float(y @ my)) * df)
    if u_expr is not None:
        out = out + sign * np.array(expression.gradient(u_expr, x))
    return out


def _quadratic_scalar(rep: str, f, u, name: str) -> ExtendedField:
    """(1/2) c(x) y . (m(x) y) + s U(x) on the tangent or the cotangent bundle.

    rep "v" is L: y = v, m = g, c = e^(-2f), s = -1. rep "p" is H: y = p,
    m = g^-1, c = e^(2f), s = +1. f and U are optional, and without them no
    expression code runs. The hooks and the jet share the product m y; the
    jet forms it once for both partials and never evaluates U.
    """
    f_expr, u_expr = (None if e is None else expression.coordinate_expr(e) for e in (f, u))
    sign = -1.0 if rep == "v" else 1.0

    def fiber_of(point):
        return point.v if rep == "v" else point.p

    def product(chart, point):
        if rep == "v":
            return manifold.metric_at(chart, point.x) @ point.v
        return manifold.inverse_metric_at(chart, point.x) @ point.p

    def factor(x):
        return _conformal_factor(f_expr, x, 2.0 * sign)

    def spatial(chart, point, my, c):
        x = point.x
        if rep == "v":
            dm = manifold.metric_partials_at(chart, x)
        else:
            dm = manifold.inverse_metric_partials_at(chart, x)
        df = None if f_expr is None else np.array(expression.gradient(f_expr, x))
        return _quadratic_x_partials(x, fiber_of(point), my, c, dm, df, u_expr, sign)

    def ev(chart, point):
        my, c = product(chart, point), factor(point.x)
        out = 0.5 * c * float(fiber_of(point) @ my)
        if u_expr is not None:
            out += sign * expression.evaluate(u_expr, point.x)
        return np.array(out)

    def dx(chart, point):
        return spatial(chart, point, product(chart, point), factor(point.x))

    def dfib(chart, point):
        return _scaled(f_expr, product(chart, point), factor(point.x))

    def jet(chart, point):
        my, c = product(chart, point), factor(point.x)
        return spatial(chart, point, my, c), _scaled(f_expr, my, c)

    return ExtendedField((0, 0), rep, ev, dx, dfib, name=name, jet_fn=jet)


def kinetic_energy_scalar(f=None, u=None) -> ExtendedField:
    """Scalar L = (1/2) e^(-2 f(x)) g_ij v^i v^j - U(x) on the tangent bundle.

    f and U are optional, and without them no expression code runs.
    """
    return _quadratic_scalar("v", f, u, "kinetic_energy")


def velocity_vector_field() -> ExtendedField:
    """The tautological vector field X^k = v^k."""

    def ev(chart, point):
        return point.v.copy()

    def dx(chart, point):
        return np.zeros((chart.dim, chart.dim))

    def dfib(chart, point):
        return np.eye(chart.dim)

    return ExtendedField((1, 0), "v", ev, dx, dfib, name="velocity")


def lowered_velocity_field() -> ExtendedField:
    """The covector field X_k = g_kj v^j."""

    def ev(chart, point):
        return manifold.metric_at(chart, point.x) @ point.v

    def dx(chart, point):
        dg = manifold.metric_partials_at(chart, point.x)
        return np.einsum("kjq,j->kq", dg, point.v)

    def dfib(chart, point):
        return manifold.metric_at(chart, point.x)

    return ExtendedField((0, 1), "v", ev, dx, dfib, name="lowered_velocity")


def momentum_kinetic_scalar(f=None, u=None) -> ExtendedField:
    """Scalar H = (1/2) e^(2 f(x)) g^ij p_i p_j + U(x) on the cotangent bundle.

    The Hamiltonian of kinetic_energy_scalar(f, u); f and U are optional,
    and without them no expression code runs.
    """
    return _quadratic_scalar("p", f, u, "momentum_kinetic")
