"""Coordinate charts with Riemannian metric data.

A ManifoldChart bundles a coordinate domain with callables producing the
metric matrix g_ij(x), optionally its coordinate partials, and optionally
the Christoffel symbols of the Levi-Civita connection. Anything not
supplied analytically is reconstructed numerically: metric partials by
central differences and Christoffel symbols from

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
repeated inverse and Christoffel work. metric_partials_at and
inverse_metric_partials_at skip the domain test at the record's point;
at any other x every query validates and computes as if there were no
record, and stores nothing. One point per chart is kept, errors are never
kept, and the returned metric, inverse and Christoffel array are
read-only because the next call at the same point returns the same
arrays. This is exact only because metric_fn, christoffel_fn and
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
from .expression import _FD_STEP_SCALE
from .errors import (
    ChartDomainError,
    FDStepError,
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
    "strip_analytic",
    "in_domain",
    "check_point",
    "metric_at",
    "inverse_metric_at",
    "inverse_metric_partials_at",
    "metric_partials_at",
    "christoffel_at",
    "lower_index",
    "raise_index",
    "speed",
    "FD_TOLERANCE",
]

# Agreement tolerance between exact and finite-difference derivative routes.
FD_TOLERANCE = 1e-6


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
    start empty, and it takes no part in equality or repr.
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
    """float(abs(a).max()) over a.ravel().tolist() in Python floats, without numpy's call overhead.

    NaN when any entry is NaN, wherever it sits, as abs(a).max() gives; max
    alone keeps a NaN only in first place, so the sum decides.
    """
    sizes = [*map(abs, a.ravel().tolist())]
    total = sum(sizes)
    return max(sizes) if total == total else math.nan


def _determinant(rows: list[list[float]]) -> tuple[float, float]:
    """Determinant of a 1 x 1 or 2 x 2 matrix of finite entries given as nested Python floats.

    Returns the closed form a d - b c (a for a 1 x 1), about 15 times faster
    than np.linalg.det on a 2 x 2, and a bound on its distance from
    np.linalg.det's value, 1e-12 (|a d| + |b c|). numpy takes
    sign * exp(log |det|) of its LU factors, so the two differ by a few
    roundings of |a d| + |b c| plus a relative 1e-13 or so from log and exp;
    the bound covers both with room to spare. A test against a tolerance
    that lies within the bound has to ask np.linalg.det.
    """
    if len(rows) == 1:
        (a,), = rows
        return a, 1e-12 * abs(a)
    (a, b), (c, d) = rows
    ad, bc = a * d, b * c
    return ad - bc, 1e-12 * (abs(ad) + abs(bc))


def _cholesky_diagonal_product(rows: list[list[float]]) -> float | None:
    """Product of the Cholesky diagonal of a symmetric matrix given as nested Python floats.

    The determinant is its square. None when a pivot is not > 0, NaN
    included: the matrix is not positive definite.
    """
    factor = []
    product = 1.0
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
        product *= d
    return product


def metric_at(chart: ManifoldChart, x) -> np.ndarray:
    """Metric matrix at x, validated symmetric positive definite.

    The checks, in order: x is in the domain; the metric has shape
    (dim, dim); its symmetric part g has no entry that is infinite or
    overflows in (g + g^T) / 2, has a Cholesky factor, and has a
    determinant above 1e-12 scale^dim, scale being its largest entry in
    absolute value. A failed check raises SingularMetricError
    (ChartDomainError for the domain), and an overflow NumericOverflowError.
    g and its factorisation are formed over g.tolist() in Python floats,
    for any dim, and a symmetric metric is its own g: numpy's per-call
    overhead costs more than the arithmetic on a chart's small metrics, and
    warns on an overflow. The factorisation refuses a NaN pivot, which
    numpy.linalg.cholesky lets through.

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
        rows = g.tolist()
        if rows != list(map(list, zip(*rows))):
            rows = [[0.5 * (a + b) for a, b in zip(row, col)] for row, col in zip(rows, zip(*rows))]
        sizes = [abs(value) for row in rows for value in row]
        if math.inf in sizes or max(sizes) >= 2.0**1023:  # a + a overflows from a = 2^1023
            raise OverflowError
        product = _cholesky_diagonal_product(rows)
        if product is None:
            raise SingularMetricError(
                f"metric on {chart.name!r} at {x!r} is not positive definite"
            )
        tol = 1e-12 * max(sizes) ** chart.dim
        det = product**2
    except OverflowError:
        # math.exp in a conformal factor, an infinite entry, or a power in the determinant test.
        raise NumericOverflowError(
            f"metric on {chart.name!r} at {x!r} overflows the float range"
        ) from None
    if det <= tol:
        raise SingularMetricError(
            f"metric on {chart.name!r} at {x!r} is singular (det {det:.3e})"
        )
    g = np.array(rows)
    g.flags.writeable = False
    object.__setattr__(chart, "_last", [x.tobytes(), g, None, None])
    return g


def inverse_metric_at(chart: ManifoldChart, x) -> np.ndarray:
    """np.linalg.inv of metric_at(chart, x), read-only and kept in the chart's geometry record."""
    g = metric_at(chart, x)
    last = chart._last  # metric_at has just stored or found x there
    if last[2] is None:
        ginv = np.linalg.inv(g)
        ginv.flags.writeable = False
        last[2] = ginv
    return last[2]


def inverse_metric_partials_at(chart: ManifoldChart, x) -> np.ndarray:
    """dginv[i, j, q] = d g^ij / d x^q = -(g^-1 (d g / d x^q) g^-1)^ij."""
    ginv = inverse_metric_at(chart, x)
    dg = metric_partials_at(chart, x)
    return -np.einsum("ia,abq,bj->ijq", ginv, dg, ginv)


def metric_partials_at(chart: ManifoldChart, x) -> np.ndarray:
    """dg[i, j, q] = d g_ij / d x^q, analytic when available, else central FD."""
    x = _checked(chart, x)
    if chart.metric_partials_fn is not None:
        return np.asarray(chart.metric_partials_fn(x), dtype=float)
    n = chart.dim
    steps = _FD_STEP_SCALE * np.maximum(1.0, np.abs(x))
    dg = np.empty((n, n, n))
    for q in range(n):
        hi = x.copy()
        lo = x.copy()
        hi[q] += steps[q]
        lo[q] -= steps[q]
        if not (in_domain(chart, hi) and in_domain(chart, lo)):
            raise FDStepError(
                f"metric FD stencil leaves chart {chart.name!r} at {x!r}, axis {q}"
            )
        g_hi = np.asarray(chart.metric_fn(hi), dtype=float)
        g_lo = np.asarray(chart.metric_fn(lo), dtype=float)
        dg[:, :, q] = (g_hi - g_lo) / (2.0 * steps[q])
    return dg


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
    """A new Christoffel array at a validated x: the chart's hook, else from g and dg."""
    if chart.christoffel_fn is not None:
        return np.array(chart.christoffel_fn(x), dtype=float)
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
    g = metric_at(chart, x)
    sq = float(v @ g @ v)
    if sq < 0.0:
        floor = 1e-10 * max(1.0, float(np.max(np.abs(g))) * float(v @ v))
        if sq < -floor:
            raise NegativeNormError(f"squared norm {sq!r} is negative at {x!r}")
        sq = 0.0
    return math.sqrt(sq)


def strip_analytic(chart: ManifoldChart) -> ManifoldChart:
    """Copy of the chart with analytic derivative hooks removed.

    Forces the finite-difference metric-partials path and the generic
    Christoffel reconstruction, which is useful for cross-checking.
    """
    return dataclasses.replace(chart, metric_partials_fn=None, christoffel_fn=None)


# ---------------------------------------------------------------------------
# Builtin charts


def euclidean(dim: int) -> ManifoldChart:
    """Flat chart on R^dim with the identity metric."""
    if dim < 1:
        raise ValueError("dim must be positive")
    eye = np.eye(dim)
    zeros3 = np.zeros((dim, dim, dim))
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
    f_expr = expression.coordinate_expr(f, dim=chart.dim) if isinstance(f, str) else f

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
        int(params.get("dim", 2)), params["f"]
    ),
}


def builtin_chart(name: str, **params) -> ManifoldChart:
    """Build a catalog chart by name.

    Accepts "euclidean" with a dim parameter and the sugar forms
    "euclidean2", "euclidean3", ... A "rescale_f" parameter wraps any
    base chart in a conformal rescale by that expression.
    """
    rescale_f = params.pop("rescale_f", None)
    m = re.fullmatch(r"euclidean(\d+)", name)
    if m:
        name, params = "euclidean", dict(params, dim=int(m.group(1)))
    if name not in _CHART_BUILDERS:
        known = ", ".join(sorted(_CHART_BUILDERS))
        raise ChartDomainError(f"unknown chart {name!r} (known: {known})")
    chart = _CHART_BUILDERS[name](params)
    if rescale_f is not None:
        chart = conformal_rescale(chart, rescale_f)
    return chart
