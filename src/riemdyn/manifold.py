"""Coordinate charts with Riemannian metric data.

A ManifoldChart bundles a coordinate domain with callables producing the
metric matrix g_ij(x), optionally its coordinate partials, and optionally
the Christoffel symbols of the Levi-Civita connection. Anything not
supplied analytically is reconstructed numerically: metric partials by
expression._central_differences, whose stencil must stay inside the
chart's domain (FDStepError otherwise), and Christoffel symbols from

    Gamma^k_ij = (1/2) g^kl (d_i g_lj + d_j g_li - d_l g_ij).

Index conventions used across the package: christoffel_at(chart, x)[k, i, j]
is Gamma^k_ij, and metric_partials_at(chart, x)[i, j, q] is d g_ij / d x^q
(the derivative axis always comes last).

metric_at validates a point (see its docstring for the checks) once.
Each chart keeps one geometry record:
the last point metric_at validated (keyed by the bytes of the float
coordinates) with its metric g, g^-1 = np.linalg.inv(g) and the
Christoffel symbols. The metric is stored when the point is validated;
g^-1 and Gamma are computed on the first inverse_metric_at and
christoffel_at call at that point and kept. So the queries that one
right-hand side, Newton solve or line search makes at one x skip the
domain test, the symmetrisation, the Cholesky factorisation and the
repeated inverse and Christoffel work. metric_partials_at skips the
domain test at the record's point; at any other x every query validates
and computes as if there were no record, and stores nothing. One point
per chart is kept, errors are never kept, and the returned metric,
inverse and Christoffel array are read-only because the next call at the
same point returns the same arrays. This is exact only because metric_fn, christoffel_fn and
domain_fn are pure functions of x.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import expression
from .errors import (
    ChartDomainError,
    NegativeNormError,
    NonFiniteStateError,
    NumericOverflowError,
    SingularMetricError,
)

__all__ = [
    "ManifoldChart",
    "euclidean",
    "polar2d",
    "sphere2d",
    "hyperbolic_half_plane",
    "conformally_flat",
    "conformal_rescale",
    "builtin_chart",
    "in_domain",
    "check_point",
    "metric_at",
    "inverse_metric_at",
    "metric_partials_at",
    "christoffel_at",
    "lower_index",
    "raise_index",
    "speed",
]


@dataclass(frozen=True)
class ManifoldChart:
    """A single coordinate chart with metric data.

    metric_fn maps a coordinate array of shape (dim,) to the (dim, dim)
    metric matrix. metric_partials_fn, when present, returns the
    (dim, dim, dim) array dg[i, j, q] = d g_ij / d x^q. christoffel_fn,
    when present, returns Gamma[k, i, j] = Gamma^k_ij. domain_fn returns
    True for points inside the open coordinate domain. sample_box is an
    optional (dim, 2) array of per-coordinate bounds used by the random
    state samplers in the verification suites.

    metric_fn, christoffel_fn and domain_fn must be pure functions of x:
    metric_at keeps the last validated point in _last, as [coordinate
    bytes, g, g^-1, Gamma], the last two None until first asked for, and
    returns that matrix again for the same coordinates without calling
    either. _last is not an init argument, so dataclasses.replace copies
    start empty, and it takes no part in equality or repr. The record
    keeps the array christoffel_fn returns, without a copy, and makes it
    read-only: a hook must return a fresh array or one that nothing writes.
    """

    name: str
    dim: int
    metric_fn: Callable[[np.ndarray], np.ndarray]
    metric_partials_fn: Callable[[np.ndarray], np.ndarray] | None = None
    christoffel_fn: Callable[[np.ndarray], np.ndarray] | None = None
    domain_fn: Callable[[np.ndarray], bool] | None = None
    sample_box: np.ndarray | None = None
    _last: list | None = field(
        default=None, init=False, compare=False, repr=False
    )


def _finite(x: np.ndarray) -> bool:
    return all(map(math.isfinite, x.tolist()))


def _inside(chart: ManifoldChart, x: np.ndarray) -> bool:
    """in_domain for coordinates already converted to a float array."""
    if x.shape != (chart.dim,) or not _finite(x):
        return False
    if chart.domain_fn is not None and not chart.domain_fn(x):
        return False
    return True


def _require_inside(chart: ManifoldChart, x: np.ndarray) -> None:
    if not _inside(chart, x):
        if x.shape == (chart.dim,) and not _finite(x):
            raise NonFiniteStateError(
                f"point {x!r} is not finite, so it is outside chart {chart.name!r}"
            )
        raise ChartDomainError(f"point {x!r} is outside chart {chart.name!r}")


def in_domain(chart: ManifoldChart, x) -> bool:
    return _inside(chart, np.asarray(x, dtype=float))


def check_point(chart: ManifoldChart, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    _require_inside(chart, x)
    return x


def _record(chart: ManifoldChart, x: np.ndarray) -> list | None:
    """The chart's geometry record when x is its point, else None."""
    last = chart._last
    if last is not None and x.shape == (chart.dim,) and last[0] == x.tobytes():
        return last
    return None


def _checked(chart: ManifoldChart, x) -> np.ndarray:
    """check_point, skipping the domain test at the record's point, which metric_at validated."""
    x = np.asarray(x, dtype=float)
    if _record(chart, x) is None:
        _require_inside(chart, x)
    return x


def _sup_norm(a: np.ndarray) -> float:
    """float(abs(a).max()) over a.ravel().tolist() in Python floats, without numpy's call overhead."""
    return _max_abs(a.ravel().tolist())


def _max_abs(values: list[float]) -> float:
    """The largest |value| of a non-empty list of Python floats, as _sup_norm gives it for an array.

    NaN when any entry is NaN, wherever it sits, as abs(a).max() gives; max
    alone keeps a NaN only in first place, so the sum decides.
    """
    sizes = [*map(abs, values)]
    total = sum(sizes)
    return max(sizes) if total == total else math.nan


# The one singularity rule, for the metric and the fiber Hessian alike: a
# square matrix M is singular when |det(M / s)| <= _SINGULAR_DET, s = |M|_max.
# det(c M) = c^n det M, so only the determinant of the normalised matrix
# measures how near M is to singular, at any scale of M; and no entry of
# M / s exceeds 1, so the determinant cannot overflow.
_SINGULAR_DET = 1e-12


def _singular(det: float) -> bool:
    """The singularity rule on det(M / |M|_max), from _cholesky_det or dynamics_lagrange's elimination."""
    return abs(det) <= _SINGULAR_DET


def _symmetric_rows(rows: list[list[float]]) -> list[list[float]]:
    """The symmetric part (M + M^T) / 2 of a square matrix given as nested Python floats; M itself when symmetric."""
    if rows == list(map(list, zip(*rows))):
        return rows
    return [[0.5 * (a + b) for a, b in zip(row, col)] for row, col in zip(rows, zip(*rows))]


def _cholesky_det(rows: list[list[float]], scale: float) -> float | None:
    """det(M / scale) of a symmetric M, scale = |M|_max, from a Cholesky factorisation in Python floats.

    The determinant is the product of the squared diagonal entries of the
    factor, each divided by scale. A pivot of M is at most its diagonal
    entry, so each of these factors is at most 1 but for a rounding, and the
    product cannot overflow. None when a pivot is not > 0, NaN included: M
    is not positive definite.
    """
    factor = []
    det = 1.0
    for i, row in enumerate(rows):
        li = []
        for j, lj in enumerate(factor):
            s = row[j]
            for k in range(j):
                s -= li[k] * lj[k]
            li.append(s / lj[j])
        pivot = row[i]
        for value in li:
            pivot -= value * value
        if not pivot > 0.0:
            return None
        d = math.sqrt(pivot)
        li.append(d)
        factor.append(li)
        det *= d * d / scale
    return det


def metric_at(chart: ManifoldChart, x) -> np.ndarray:
    """Metric matrix at x, validated symmetric positive definite.

    The checks, in order: x is in the domain; the metric has shape
    (dim, dim); its symmetric part g has no entry that is infinite or
    overflows in (g + g^T) / 2, has a Cholesky factor, and is not singular
    by the package's one rule: det(g / scale) above 1e-12, scale being its
    largest entry in absolute value, so g and c g get the same decision
    (the det in the message is this one). A failed check raises
    SingularMetricError (ChartDomainError for the domain), and an overflow
    NumericOverflowError. g and its factorisation are formed over
    g.tolist() in Python floats, for any dim, and a symmetric metric is its
    own g: numpy's per-call overhead costs more than the arithmetic on a
    chart's small metrics, and warns on an overflow. The factorisation
    refuses a NaN pivot, which numpy.linalg.cholesky lets through.

    The result is read-only: a repeated call at the same coordinates
    returns the chart's stored matrix without validating again.
    """
    x = np.asarray(x, dtype=float)
    last = _record(chart, x)
    if last is not None:
        return last[1]
    _require_inside(chart, x)
    try:
        g = np.asarray(chart.metric_fn(x), dtype=float)
        if g.shape != (chart.dim, chart.dim):
            raise SingularMetricError(
                f"metric on {chart.name!r} returned shape {g.shape}, "
                f"expected {(chart.dim, chart.dim)}"
            )
        rows = _symmetric_rows(g.tolist())
        sizes = [abs(value) for row in rows for value in row]
        scale = max(sizes)
        if math.inf in sizes or scale >= 2.0**1023:  # a + a overflows from a = 2^1023
            raise OverflowError
    except OverflowError:
        # math.exp in a conformal factor, or an infinite entry.
        raise NumericOverflowError(
            f"metric on {chart.name!r} at {x!r} overflows the float range"
        ) from None
    det = _cholesky_det(rows, scale)
    if det is None:
        raise SingularMetricError(
            f"metric on {chart.name!r} at {x!r} is not positive definite"
        )
    if _singular(det):
        raise SingularMetricError(
            f"metric on {chart.name!r} at {x!r} is singular (det {det:.3e})"
        )
    g = np.array(rows)
    g.flags.writeable = False
    object.__setattr__(chart, "_last", [x.tobytes(), g, None, None])
    return g


def inverse_metric_at(chart: ManifoldChart, x) -> np.ndarray:
    """np.linalg.inv of metric_at(chart, x), read-only and kept in the chart's geometry record.

    A diagonal metric whose reciprocals are finite, as every builtin chart's
    is, is inverted entry by entry over Python floats: np.linalg.inv gives
    it the same bits, 1 / g_ii on the diagonal and +0.0 off it.
    """
    g = metric_at(chart, x)
    last = chart._last  # metric_at has just stored or found x there
    if last[2] is None:
        ginv = _diagonal_inverse(g.tolist())
        ginv = np.linalg.inv(g) if ginv is None else np.array(ginv)
        ginv.flags.writeable = False
        last[2] = ginv
    return last[2]


def _diagonal_inverse(rows: list[list[float]]) -> list[list[float]] | None:
    """The rows of M^-1 for a diagonal M with finite reciprocals, else None."""
    inverse = []
    for i, row in enumerate(rows):
        reciprocal = 1.0 / row[i]
        if any(row[:i]) or any(row[i + 1 :]) or not math.isfinite(reciprocal):
            return None
        inverse.append([0.0] * i + [reciprocal] + [0.0] * (len(row) - i - 1))
    return inverse


def metric_partials_at(chart: ManifoldChart, x) -> np.ndarray:
    """dg[i, j, q] = d g_ij / d x^q, analytic when available, else central FD."""
    x = _checked(chart, x)
    if chart.metric_partials_fn is not None:
        return np.asarray(chart.metric_partials_fn(x), dtype=float)
    return expression._central_differences(
        lambda y: np.asarray(chart.metric_fn(y), dtype=float), x, lambda y: in_domain(chart, y)
    )


def christoffel_at(chart: ManifoldChart, x) -> np.ndarray:
    """Gamma[k, i, j] = Gamma^k_ij of the Levi-Civita connection at x.

    At the geometry record's point the array is computed once and kept
    there read-only; anywhere else x is validated and Gamma computed anew.
    """
    x = np.asarray(x, dtype=float)
    last = _record(chart, x)
    if last is None:
        _require_inside(chart, x)
        return _christoffel(chart, x)
    if last[3] is None:
        gamma = _christoffel(chart, x)
        gamma.flags.writeable = False
        last[3] = gamma
    return last[3]


def _christoffel(chart: ManifoldChart, x: np.ndarray) -> np.ndarray:
    """The Christoffel array at a validated x: the hook's own array, else one from g and dg."""
    if chart.christoffel_fn is not None:
        return np.asarray(chart.christoffel_fn(x), dtype=float)
    dg = metric_partials_at(chart, x)
    ginv = inverse_metric_at(chart, x)
    # T[l, i, j] = d_i g_lj + d_j g_li - d_l g_ij
    t = np.swapaxes(dg, 1, 2) + dg - np.moveaxis(dg, 2, 0)
    return 0.5 * np.einsum("kl,lij->kij", ginv, t)


def lower_index(chart: ManifoldChart, x, vector) -> np.ndarray:
    """v^k -> v_k = g_kj v^j."""
    v = np.asarray(vector, dtype=float)
    return metric_at(chart, x) @ v


def raise_index(chart: ManifoldChart, x, covector) -> np.ndarray:
    """p_k -> p^k = g^kj p_j."""
    p = np.asarray(covector, dtype=float)
    return inverse_metric_at(chart, x) @ p


def speed(chart: ManifoldChart, x, v) -> float:
    """Metric modulus |v| = sqrt(g_ij v^i v^j)."""
    v = np.asarray(v, dtype=float)
    return _modulus(metric_at(chart, x), x, v)


def _modulus(g: np.ndarray, x, v: np.ndarray) -> float:
    """sqrt(v . g v) from the metric g at x, by numpy's v @ g @ v; NegativeNormError below 0."""
    sq = float(v @ g @ v)
    if sq < 0.0:
        raise NegativeNormError(f"squared norm {sq!r} is negative at {x!r}")
    return math.sqrt(sq)


# ---------------------------------------------------------------------------
# Builtin charts


def euclidean(dim: int) -> ManifoldChart:
    """Flat chart on R^dim with the identity metric."""
    if dim < 1:
        raise ValueError("dim must be positive")
    # Every call shares these two arrays, so they are read-only.
    eye = np.eye(dim)
    zeros3 = np.zeros((dim, dim, dim))
    eye.flags.writeable = zeros3.flags.writeable = False
    return ManifoldChart(
        name=f"euclidean{dim}",
        dim=dim,
        metric_fn=lambda x: eye,
        metric_partials_fn=lambda x: zeros3,
        christoffel_fn=lambda x: zeros3,
        sample_box=np.array([[-2.0, 2.0]] * dim),
    )


def polar2d() -> ManifoldChart:
    """Polar coordinates (r, theta) on the punctured plane, g = diag(1, r^2)."""

    def metric(x):
        r = x[0]
        return np.array([[1.0, 0.0], [0.0, r * r]])

    def partials(x):
        dg = np.zeros((2, 2, 2))
        dg[1, 1, 0] = 2.0 * x[0]
        return dg

    def christoffel(x):
        r = x[0]
        gamma = np.zeros((2, 2, 2))
        gamma[0, 1, 1] = -r
        gamma[1, 0, 1] = 1.0 / r
        gamma[1, 1, 0] = 1.0 / r
        return gamma

    return ManifoldChart(
        name="polar2d",
        dim=2,
        metric_fn=metric,
        metric_partials_fn=partials,
        christoffel_fn=christoffel,
        domain_fn=lambda x: x[0] > 0.0,
        sample_box=np.array([[0.5, 3.0], [-math.pi, math.pi]]),
    )


def sphere2d(radius: float = 1.0) -> ManifoldChart:
    """Colatitude/longitude chart (theta, phi) on a sphere of the given radius."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    r2 = radius * radius

    def metric(x):
        s = math.sin(x[0])
        return np.array([[r2, 0.0], [0.0, r2 * s * s]])

    def partials(x):
        dg = np.zeros((2, 2, 2))
        dg[1, 1, 0] = 2.0 * r2 * math.sin(x[0]) * math.cos(x[0])
        return dg

    def christoffel(x):
        theta = x[0]
        s, c = math.sin(theta), math.cos(theta)
        gamma = np.zeros((2, 2, 2))
        gamma[0, 1, 1] = -s * c
        gamma[1, 0, 1] = c / s
        gamma[1, 1, 0] = c / s
        return gamma

    return ManifoldChart(
        name="sphere2d",
        dim=2,
        metric_fn=metric,
        metric_partials_fn=partials,
        christoffel_fn=christoffel,
        domain_fn=lambda x: 0.0 < x[0] < math.pi,
        sample_box=np.array([[0.5, math.pi - 0.5], [-math.pi, math.pi]]),
    )


def hyperbolic_half_plane() -> ManifoldChart:
    """Upper half-plane (x, y), y > 0, with g = diag(1, 1) / y^2."""

    def metric(x):
        y2 = float(x[1]) * float(x[1])
        inv = 1.0 / y2 if y2 > 0.0 else math.inf  # y^2 underflows to 0 below y = 1.5e-162
        return np.array([[inv, 0.0], [0.0, inv]])

    def partials(x):
        y = x[1]
        d = -2.0 / y**3
        dg = np.zeros((2, 2, 2))
        dg[0, 0, 1] = d
        dg[1, 1, 1] = d
        return dg

    def christoffel(x):
        y = x[1]
        gamma = np.zeros((2, 2, 2))
        gamma[0, 0, 1] = -1.0 / y
        gamma[0, 1, 0] = -1.0 / y
        gamma[1, 0, 0] = 1.0 / y
        gamma[1, 1, 1] = -1.0 / y
        return gamma

    return ManifoldChart(
        name="hyperbolic_half_plane",
        dim=2,
        metric_fn=metric,
        metric_partials_fn=partials,
        christoffel_fn=christoffel,
        domain_fn=lambda x: x[1] > 0.0,
        sample_box=np.array([[-2.0, 2.0], [0.5, 3.0]]),
    )


def conformal_rescale(chart: ManifoldChart, f) -> ManifoldChart:
    """Chart with the metric rescaled to e^(-2 f(x)) g(x).

    f may be an expression source string or a parsed ScalarExpr over the
    chart coordinates. When the base chart carries analytic partials and
    Christoffel symbols the rescaled chart does too:

        d g~_ij = e^(-2f) (d g_ij - 2 df g_ij)
        Gamma~^k_ij = Gamma^k_ij - delta^k_i d_j f - delta^k_j d_i f
                      + g_ij g^kl d_l f
    """
    f_expr = expression.coordinate_expr(f, dim=chart.dim)

    def factor(x):
        return math.exp(-2.0 * expression.evaluate(f_expr, x))

    def metric(x):
        return factor(x) * np.asarray(chart.metric_fn(x), dtype=float)

    metric_partials = None
    christoffel = None
    if chart.metric_partials_fn is not None:

        def metric_partials(x):
            g = np.asarray(chart.metric_fn(x), dtype=float)
            dg = np.asarray(chart.metric_partials_fn(x), dtype=float)
            df = np.array(expression.gradient(f_expr, x))
            return factor(x) * (dg - 2.0 * np.einsum("ij,q->ijq", g, df))

    if chart.christoffel_fn is not None:

        def christoffel(x):
            gamma = np.asarray(chart.christoffel_fn(x), dtype=float).copy()
            g = np.asarray(chart.metric_fn(x), dtype=float)
            ginv = np.linalg.inv(g)
            df = np.array(expression.gradient(f_expr, x))
            n = chart.dim
            eye = np.eye(n)
            gamma = gamma - np.einsum("ki,j->kij", eye, df)
            gamma = gamma - np.einsum("kj,i->kij", eye, df)
            gamma = gamma + np.einsum("ij,kl,l->kij", g, ginv, df)
            return gamma

    return ManifoldChart(
        name=f"{chart.name}_conformal",
        dim=chart.dim,
        metric_fn=metric,
        metric_partials_fn=metric_partials,
        christoffel_fn=christoffel,
        domain_fn=chart.domain_fn,
        sample_box=chart.sample_box,
    )


def conformally_flat(dim: int, f) -> ManifoldChart:
    """Chart on R^dim with metric e^(-2 f(x)) times the identity."""
    if f is None:
        raise ValueError("chart 'conformally_flat' needs the parameter 'f'")
    chart = conformal_rescale(euclidean(dim), f)
    return dataclasses.replace(
        chart,
        name=f"conformally_flat{dim}",
        sample_box=np.array([[-1.5, 1.5]] * dim),
    )


_CHART_BUILDERS = {
    "euclidean": lambda params: euclidean(int(params.get("dim", 2))),
    "polar2d": lambda params: polar2d(),
    "sphere2d": lambda params: sphere2d(float(params.get("radius", 1.0))),
    "hyperbolic_half_plane": lambda params: hyperbolic_half_plane(),
    "conformally_flat": lambda params: conformally_flat(
        int(params.get("dim", 2)), params.get("f")
    ),
}


def builtin_chart(name: str, **params) -> ManifoldChart:
    """Build a catalog chart by name.

    Accepts "euclidean" with a dim parameter and the sugar forms
    "euclidean2", "euclidean3", ... An unknown name raises
    ChartDomainError, and "conformally_flat" without "f" ValueError.
    conformal_rescale wraps any chart in a conformal rescale.
    """
    m = re.fullmatch(r"euclidean(\d+)", name)
    if m:
        name, params = "euclidean", dict(params, dim=int(m.group(1)))
    if name not in _CHART_BUILDERS:
        known = ", ".join(sorted(_CHART_BUILDERS))
        raise ChartDomainError(f"unknown chart {name!r} (known: {known})")
    return _CHART_BUILDERS[name](params)
