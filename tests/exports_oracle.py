"""Functions riemdyn exported but never called itself, kept here for the tests that use them.

check_analytic_partials compares a field's analytic partials with finite
differences; potential_scalar and metric_tensor_field are test fields;
unparse prints an expression back to source; second_partial is the exact
second partial by two coordinates; hessian_det is the determinant the
singularity rule reads, and regularity classifies the fiber Hessian of L; strip_analytic and as_extended_field drop the analytic
hooks of a chart and of a profile; elapsed_run times a suite;
partial_env, second_partial_env and partial_and_second_env are exact
partials by named variables; format_float prints a float as the CSV
writer does. Each is as the package had it.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Mapping, Sequence

import numpy as np

from riemdyn import expression, manifold, verification
from riemdyn.dynamics_lagrange import Lagrangian, _eliminate, a_matrix
from riemdyn.expression import ScalarExpr
from riemdyn.extended_fields import ExtendedField, TangentPoint, fiber_partials, x_partials
from riemdyn.manifold import ManifoldChart
from riemdyn.normal_shift import RadialProfile

__all__ = [
    "FD_TOLERANCE",
    "check_analytic_partials",
    "potential_scalar",
    "metric_tensor_field",
    "unparse",
    "second_partial",
    "hessian_det",
    "RegularityReport",
    "regularity",
    "strip_analytic",
    "as_extended_field",
    "elapsed_run",
    "partial_env",
    "second_partial_env",
    "partial_and_second_env",
    "format_float",
]

# Agreement tolerance between exact and finite-difference derivative routes.
FD_TOLERANCE = 1e-6


def check_analytic_partials(
    chart: ManifoldChart,
    field: ExtendedField,
    points: Sequence,
    tol: float = FD_TOLERANCE,
) -> float:
    """Worst disagreement between analytic partials and FD over the points.

    Returns the max absolute difference; raises ValueError if it exceeds
    tol. The analytic x partials are the x hook or the jet's x half. Fields
    without analytic hooks trivially pass with 0.0.
    """
    stripped = dataclasses.replace(field, x_partials_fn=None, fiber_partials_fn=None, jet_fn=None)
    worst = 0.0
    for point in points:
        if field.x_partials_fn is not None or field.jet_fn is not None:
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


def hessian_det(a: np.ndarray) -> float:
    """det(A / |A|_max) of a fiber Hessian from dynamics_lagrange._eliminate's pivots; NumericOverflowError as there."""
    return _eliminate(a.tolist(), [0.0] * len(a))[1]


@dataclasses.dataclass(frozen=True)
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


def regularity(chart: ManifoldChart, lagrangian: Lagrangian, point: TangentPoint) -> RegularityReport:
    """Classify the fiber Hessian at a state as regular / positive definite.

    is_regular is the decision of dynamics_lagrange._solve_regular, and is_positive that of
    metric_at's test on the symmetric part of A: a Cholesky factor, and
    regular by the same rule. Both are decided on A / |A|_max, so A and c A
    get the same decisions; of the report, only min_abs_eig scales with c.
    An A with an infinite or NaN entry raises NumericOverflowError.
    """
    a = a_matrix(chart, lagrangian, point)
    det = hessian_det(a)
    rows = manifold._symmetric_rows(a.tolist())
    definite = manifold._cholesky_det(rows, max(abs(value) for row in rows for value in row))
    return RegularityReport(
        det_a=det,
        min_abs_eig=float(np.min(np.abs(np.linalg.eigvalsh(np.array(rows))))),
        is_regular=not manifold._singular(det),
        is_positive=definite is not None and not manifold._singular(definite),
        tolerance=manifold._SINGULAR_DET,
    )


def strip_analytic(chart: ManifoldChart) -> ManifoldChart:
    """Copy of the chart with analytic derivative hooks removed.

    Forces the finite-difference metric-partials path and the generic
    Christoffel reconstruction, which is useful for cross-checking.
    """
    return dataclasses.replace(chart, metric_partials_fn=None, christoffel_fn=None)


def as_extended_field(profile: RadialProfile) -> ExtendedField:
    """The profile as a plain scalar extended field (no analytic hooks).

    Useful for cross-checking the fixed-modulus reduction against the
    generic finite-difference gradient machinery.
    """

    def ev(chart, point):
        w = manifold.speed(chart, point.x, point.v)
        return np.array(profile.value(point.x, w))

    return ExtendedField((0, 0), "v", ev, name=profile.name)


def elapsed_run(name: str, chart_name: str | None = None, seed: int = 0) -> tuple[dict, float]:
    """run_suite plus wall time, for budgeted acceptance checks."""
    start = time.perf_counter()
    report = verification.run_suite(name, chart_name, seed)
    return report, time.perf_counter() - start


def partial_env(expr: ScalarExpr, env: Mapping[str, float], name: str) -> float:
    """Exact first partial with respect to a named variable."""
    return expression._code(expr, (name,))(*expression._env_args(expr, env))


def second_partial_env(
    expr: ScalarExpr, env: Mapping[str, float], name1: str, name2: str
) -> float:
    """Exact mixed second partial with respect to two named variables."""
    return expression._code(expr, (name1, name2))(*expression._env_args(expr, env))


def partial_and_second_env(
    expr: ScalarExpr, env: Mapping[str, float], name: str
) -> tuple[float, float]:
    """partial_env and second_partial_env by one named variable, from one compiled call.

    Both numbers equal the separate calls' bit for bit, and the call raises
    whenever either of them would, the first partial's error first.
    """
    return expression._code(expr, (name,), (name, name))(*expression._env_args(expr, env))


def format_float(value: float) -> str:
    """17 significant digits, enough to round-trip a double exactly."""
    return f"{value:.17g}"

