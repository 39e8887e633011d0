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
which chain_rule_check verifies sample by sample. A curve is a
dynamics_newton.Trajectory, read through its attributes: ts, xs, the "v"
column and, for chain_rule_check, an "accel" column holding D_t v.

A jet is a field's first-order derivative at a point, its x partials and
fiber partials without the value (Griewank & Walther, Evaluating
Derivatives, 2008). jet_fn is a field's one first-order read, returning
float sequences; jet makes them arrays, and x_partials reads the x hook,
else the jet's x half, else finite differences. _covariant_gradient forms
the covariant spatial derivative from a point's Gamma, value (for rank > 0)
and jet, which spatial_gradient, el_residual and chain_rule_check each
read once per point. The fiber correction is one matrix product and each
index term one einsum, for any rank. The quadratic scalars' jet is one
pass over Python floats. _metric_contractions is every contraction of
d(g)/dx with a fiber vector, one scan of dg for any dimension: the L jets
and Euler-Lagrange passes contract it with v, and the H jets with the
raised momentum u = g^-1 p, since p . d(g^-1)/dx^q . p = -u . d(g)/dx^q . u
by d(g^-1) = -g^-1 d(g) g^-1.

A field without a hook gets its partials and its fiber Hessian from
finite differences: x_partials, fiber_partials and fiber_hessian call
expression._central_differences and expression._second_differences, and
x_partials refuses a stencil that leaves the chart with FDStepError.

Conventions: gradients are plain arrays whose component axes are ordered
upper-then-lower, every new derivative axis is appended last, and
Christoffel arrays are indexed Gamma[k, i, j] = Gamma^k_ij.
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
    "ExtendedField",
    "x_partials",
    "fiber_partials",
    "jet",
    "fiber_hessian",
    "spatial_gradient",
    "velocity_gradient_lowered",
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
class ExtendedField:
    """Tensor components over the tangent or cotangent bundle.

    rank is (upper, lower). rep is "v" or "p" and fixes which bundle the
    field lives on; every operation validates it against the point type
    so velocity and momentum data is never silently mixed. eval_fn maps
    (chart, point) to a component array of shape (dim,) * (upper + lower)
    with upper axes first. The two optional partials callables return
    analytic derivatives with the derivative axis appended last; when
    absent, central finite differences of eval_fn are used. The optional
    jet_fn returns the pair (x partials, fiber partials) from one call, as
    float sequences; without x_partials_fn its x half stands in for one, its
    fiber half must equal fiber_partials_fn's, and it refuses every point
    that eval_fn refuses.
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
    """dX/dx^q at fixed fiber components, derivative axis last: the x hook, else the jet's x half, else FD."""
    if field.x_partials_fn is not None:
        return np.asarray(field.x_partials_fn(chart, point), dtype=float)
    if field.jet_fn is not None:
        return np.asarray(field.jet_fn(chart, point)[0], dtype=float)
    return expression._central_differences(
        lambda y: _eval_components(chart, field, _with_base(point, y)),
        manifold.check_point(chart, point.x),
        lambda y: manifold.in_domain(chart, y),
    )


def fiber_partials(chart: ManifoldChart, field: ExtendedField, point) -> np.ndarray:
    """dX/dv^b (or dX/dp_b), derivative axis last: d/dv^q adds a lower axis and d/dp_q an upper one."""
    if field.fiber_partials_fn is not None:
        return np.asarray(field.fiber_partials_fn(chart, point), dtype=float)
    return expression._central_differences(
        lambda f: _eval_components(chart, field, _with_fiber(point, f)), _fiber_of(field, point)
    )


def jet(chart: ManifoldChart, field: ExtendedField, point) -> tuple[np.ndarray, np.ndarray]:
    """(dX/dx^q, fiber partials) at point, as arrays.

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


def _covariant_gradient(gamma: np.ndarray, field: ExtendedField, fiber, values, dx, dfib) -> np.ndarray:
    """The covariant spatial derivative from a point's Gamma, fiber, value (read for rank > 0) and jet."""
    data = dx + _fiber_correction(gamma, fiber, dfib, field.rep)
    if field.variance:
        data = data + _index_terms(gamma, values, field.variance)
    return data


def spatial_gradient(chart: ManifoldChart, field: ExtendedField, point) -> np.ndarray:
    """Covariant spatial derivative as a plain array.

    Its axes are the field's upper axes, then its lower axes, then the new
    lower axis last. Gamma is read once. The value is read only for rank > 0, before the
    partials, and both partials come from one jet.
    """
    fiber = _fiber_of(field, point)
    gamma = manifold.christoffel_at(chart, point.x)
    values = None if field.rank == (0, 0) else _eval_components(chart, field, point)
    return _covariant_gradient(gamma, field, fiber, values, *jet(chart, field, point))


def velocity_gradient_lowered(chart: ManifoldChart, field: ExtendedField, point) -> np.ndarray:
    """Momentum-representation fiber derivative with the new index lowered, as a plain array.

    Its axes are the field's upper axes, then its lower axes, then the new
    lower axis last. Contracts d/dp_k with the metric: g_qk dX/dp_k. Only meaningful for
    p-rep fields; v-rep fields already produce a lower index.
    """
    if field.rep != "p":
        raise ValueError("lowered fiber gradient applies to p-rep fields only")
    dfib = fiber_partials(chart, field, point)
    g = manifold.metric_at(chart, point.x)
    return np.einsum("...k,qk->...q", dfib, g)


def _check_uniform_times(ts: np.ndarray) -> float:
    if len(ts) < 3:
        raise InsufficientSamplesError(f"need at least 3 samples, got {len(ts)}")
    dts = np.diff(ts)
    dt = float(dts[0])
    if dt <= 0.0 or not np.allclose(dts, dt, rtol=1e-9, atol=1e-12):
        raise InsufficientSamplesError("samples must be uniformly spaced in t")
    return dt


def _curve_points(curve) -> list[TangentPoint]:
    """The tangent state (x, v) at each sample of a curve, from its xs and "v" column."""
    return [TangentPoint(x, v) for x, v in zip(curve.xs, curve.columns["v"])]


def covariant_time_derivative(
    chart: ManifoldChart, curve, values, variance: tuple[str, ...] = ()
) -> np.ndarray:
    """D_t of component values recorded along a curve.

    curve is a dynamics_newton.Trajectory; its ts, xs and "v" column are
    read. values has shape (len(curve.ts),) + component shape; variance
    tags the component axes. The time derivative uses second-order
    differences (central inside, one-sided at the ends) plus
    spatial_gradient's Christoffel index terms, _index_terms, contracted
    with the curve velocity.
    """
    dt = _check_uniform_times(curve.ts)
    values = np.asarray(values, dtype=float)
    if values.shape[0] != len(curve.ts):
        raise InsufficientSamplesError(
            f"got {values.shape[0]} value rows for {len(curve.ts)} samples"
        )
    if values.ndim - 1 != len(variance):
        raise RankMismatchError(
            f"variance {variance!r} does not match value shape {values.shape[1:]}"
        )
    ddt = np.gradient(values, dt, axis=0, edge_order=2)
    if not variance:
        return ddt
    out = np.empty_like(ddt)
    for i, point in enumerate(_curve_points(curve)):
        gamma = manifold.christoffel_at(chart, point.x)
        out[i] = ddt[i] + _index_terms(gamma, values[i], variance) @ point.v
    return out


def chain_rule_check(chart: ManifoldChart, field: ExtendedField, curve) -> np.ndarray:
    """Residual of D_t X = (grad X) . xdot + (fiber grad X) . D_t v per sample.

    curve is a dynamics_newton.Trajectory whose "accel" column holds the
    covariant acceleration D_t v (upper index) at each sample; without
    that column the check raises MissingAccelError. Returns an array of
    shape (len(curve.ts),) + component shape; a small residual confirms
    the two gradients and the curve data are mutually consistent.
    Requires a v-rep field. Each sample's value and jet are read once.
    """
    if field.rep != "v":
        raise ValueError("chain rule check runs on v-rep fields")
    accels = curve.columns.get("accel")
    if accels is None:
        raise MissingAccelError('curve has no "accel" column of covariant accelerations')
    points = _curve_points(curve)
    values = np.stack([_eval_components(chart, field, point) for point in points], axis=0)
    jets = [jet(chart, field, point) for point in points]
    lhs = covariant_time_derivative(chart, curve, values, field.variance)
    residual = np.empty_like(lhs)
    for i, (point, accel, (dx, dfib)) in enumerate(zip(points, accels, jets)):
        grad = _covariant_gradient(manifold.christoffel_at(chart, point.x), field, point.v, values[i], dx, dfib)
        rhs = np.einsum("...q,q->...", grad, point.v) + np.einsum("...b,b->...", dfib, accel)
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


def _per_point(compute):
    """compute(chart, x) or compute(chart, x, v), kept for the last chart and coordinates it was computed at.

    A fiber hook reads what depends on x alone through this, such as the
    rows of g and the conformal factor, so that the calls one Legendre
    inversion makes at its fixed x compute them once, as the chart's
    geometry record keeps the metric. compute must be a pure function of the
    chart and the arrays; what it raises is not kept, and what it returns is
    shared by every call at that point, so nothing may write to it.
    """
    last = [None, None, None]  # chart, the arrays' bytes, value

    def at(chart, x, v=None):
        key = x.tobytes() if v is None else (x.tobytes(), v.tobytes())
        if last[1] != key or last[0] is not chart:
            value = compute(chart, x) if v is None else compute(chart, x, v)
            last[:] = chart, key, value
        return last[2]

    return at


def _dot(a: list[float], b: list[float]) -> float:
    """sum a_i b_i over Python floats, from +0.0 in index order, one rounding per product and per sum."""
    s = 0.0
    for ai, bi in zip(a, b):
        s += ai * bi
    return s


def _metric_contractions(dg: list, y: list[float]) -> tuple[list[float], list[list[float]]]:
    """(s, dgy) from one scan of dg over Python floats; dg nested as dg[k][j][q].

    s_q = sum_kj (dg_kjq y_k) y_j has the bits of np.einsum("kjq,k,j->q",
    dg, y, y), and dgy[k][q] = sum_j dg_kjq y_j those of
    np.einsum("kjq,j->kq", dg, y): each sum runs in index order from +0.0.
    A term whose dg entry is zero is left out when y is finite: it is +0.0
    or -0.0, and a sum that starts at +0.0 never holds -0.0, so no bit
    changes. With an infinite or NaN entry of y every term is formed, so
    every s_q is NaN or infinite; an infinite or NaN entry of dg is never
    left out, so it makes its s_q so.
    """
    skip = math.isfinite(sum(y))
    s = [0.0] * len(y)
    dgy = []
    for yk, plane in zip(y, dg):
        row = [0.0] * len(y)
        for yj, entries in zip(y, plane):
            for q, d in enumerate(entries):
                if d != 0.0 or not skip:
                    row[q] += d * yj
                    s[q] += d * yk * yj
        dgy.append(row)
    return s, dgy


def _quadratic_x_partials(x, y, my, c, s, df, u_expr, sign: float) -> list[float]:
    """dX/dx^q of (1/2) c y . (m y) + sign U over Python floats.

    From y, m y, c, the form partials s_q = y . (dm/dx^q) y and df/dx^q
    (None without f): c (s_q / 2 + sign (y . m y) df_q) + sign dU/dx^q,
    the factor c and the term in df only with f.
    """
    out = [0.5 * sq for sq in s]
    if df is not None:
        scale = sign * _dot(y, my)
        out = [c * (o + scale * d) for o, d in zip(out, df)]
    if u_expr is not None:
        out = [o + sign * d for o, d in zip(out, expression.gradient(u_expr, x))]
    return out


def _quadratic_scalar(rep: str, f, u, name: str) -> ExtendedField:
    """(1/2) c(x) y . (m(x) y) + s U(x) on the tangent or the cotangent bundle.

    rep "v" is L: y = v, m = g, c = e^(-2f), s = -1. rep "p" is H: y = p,
    m = g^-1, c = e^(2f), s = +1. f and U are optional, and without them no
    expression code runs. The jet is one pass over Python floats returning
    lists: m y as numpy's m @ y, with m from metric_at or
    inverse_metric_at, and dg from metric_partials_at, each read once
    through .tolist(), and the form partials from _metric_contractions: dg
    contracted with v for L, and 0.0 minus dg contracted with u = g^-1 p,
    the m y already formed, for H. 0.0 - t keeps a zero contraction +0.0,
    as on a flat chart. So L's jet without f has the bits of the numpy form
    it replaced (tests/h_jet_oracle.py). H's x partials, summed over u where
    the numpy form summed d(g^-1)/dx, and, with f, y . m y, a float sum
    where it was a BLAS dot, may differ in the last bits. The jet never
    evaluates U. The
    fiber partials hook returns a list, c (m y) with m y as float sums in
    index order (numpy's m @ y on a diagonal metric), reading the rows of m
    and c once per point (_per_point); fiber_partials makes it an array.
    The value keeps its numpy form.
    """
    f_expr, u_expr = (None if e is None else expression.coordinate_expr(e) for e in (f, u))
    sign = -1.0 if rep == "v" else 1.0

    def matrix(chart, x):
        if rep == "v":
            return manifold.metric_at(chart, x)
        return manifold.inverse_metric_at(chart, x)

    def factor(x):
        return _conformal_factor(f_expr, x, 2.0 * sign)

    def fiber_of(point):
        return point.v if rep == "v" else point.p

    def jet(chart, point):
        x, y = point.x, fiber_of(point)
        my, c = (matrix(chart, x) @ y).tolist(), factor(x)
        ys = y.tolist()
        dg = manifold.metric_partials_at(chart, x).tolist()
        s = _metric_contractions(dg, ys if rep == "v" else my)[0]
        if rep == "p":
            s = [0.0 - t for t in s]  # p . d(g^-1)/dx . p = -u . dg . u
        df = None if f_expr is None else expression.gradient(f_expr, x)
        dfib = my if f_expr is None else [c * v for v in my]
        return _quadratic_x_partials(x, ys, my, c, s, df, u_expr, sign), dfib

    def ev(chart, point):
        y = fiber_of(point)
        my = matrix(chart, point.x) @ y
        out = 0.5 * factor(point.x) * float(y @ my)
        if u_expr is not None:
            out += sign * expression.evaluate(u_expr, point.x)
        return np.array(out)

    # The rows of m and the factor c at a point, read once per point (_per_point).
    fiber_data = _per_point(lambda chart, x: (matrix(chart, x).tolist(), factor(x)))

    def dfib(chart, point):
        rows, c = fiber_data(chart, point.x)
        ys = fiber_of(point).tolist()
        my = [_dot(row, ys) for row in rows]
        return my if f_expr is None else [c * u for u in my]

    return ExtendedField((0, 0), rep, ev, fiber_partials_fn=dfib, name=name, jet_fn=jet)


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
