"""Functions riemdyn exported but never called itself, kept here for the tests that use them.

check_analytic_partials compares a field's analytic partials with finite
differences; potential_scalar and metric_tensor_field are test fields;
unparse prints an expression back to source; second_partial is the exact
second partial by two coordinates. Each is as the package had it.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from riemdyn import expression, manifold
from riemdyn.expression import ScalarExpr
from riemdyn.extended_fields import ExtendedField, fiber_partials, x_partials
from riemdyn.manifold import FD_TOLERANCE, ManifoldChart

__all__ = [
    "check_analytic_partials",
    "potential_scalar",
    "metric_tensor_field",
    "unparse",
    "second_partial",
]


def check_analytic_partials(
    chart: ManifoldChart,
    field: ExtendedField,
    points: Sequence,
    tol: float = FD_TOLERANCE,
) -> float:
    """Worst disagreement between analytic partials and FD over the points.

    Returns the max absolute difference; raises ValueError if it exceeds
    tol. Fields without analytic hooks trivially pass with 0.0.
    """
    stripped = dataclasses.replace(field, x_partials_fn=None, fiber_partials_fn=None, jet_fn=None)
    worst = 0.0
    for point in points:
        if field.x_partials_fn is not None:
            diff = np.max(np.abs(x_partials(chart, field, point) - x_partials(chart, stripped, point)))
            worst = max(worst, float(diff))
        if field.fiber_partials_fn is not None:
            diff = np.max(np.abs(fiber_partials(chart, field, point) - fiber_partials(chart, stripped, point)))
            worst = max(worst, float(diff))
    if worst > tol:
        raise ValueError(
            f"analytic partials of {field.name!r} disagree with FD by {worst:.3e}"
        )
    return worst


def potential_scalar(u) -> ExtendedField:
    """Scalar U(x) on the tangent bundle, constant along fibers."""
    u_expr = expression.coordinate_expr(u) if isinstance(u, str) else u

    def ev(chart, point):
        return np.array(expression.evaluate(u_expr, point.x))

    def dx(chart, point):
        return np.array(expression.gradient(u_expr, point.x))

    def dfib(chart, point):
        return np.zeros(chart.dim)

    return ExtendedField((0, 0), "v", ev, dx, dfib, name=f"U({u_expr.source})")


def metric_tensor_field() -> ExtendedField:
    """The metric itself as a rank (0, 2) extended field."""

    def ev(chart, point):
        return manifold.metric_at(chart, point.x)

    def dx(chart, point):
        return manifold.metric_partials_at(chart, point.x)

    def dfib(chart, point):
        return np.zeros((chart.dim, chart.dim, chart.dim))

    return ExtendedField((0, 2), "v", ev, dx, dfib, name="metric")


def unparse(expr: ScalarExpr) -> str:
    """Render the tree back to source text that reparses identically."""
    return expression._unparse(expr.root)


def second_partial(expr: ScalarExpr, x, q: int, r: int) -> float:
    """Exact second partial d2/dx^q dx^r at x (0-based indexes)."""
    return expression.evaluate_fiber(expr, x, None, f"x{q + 1}", f"x{r + 1}")
