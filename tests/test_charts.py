"""Chart catalog: metrics, Christoffel symbols, domains, rescaling."""

import dataclasses
import math

import exports_oracle
import metric_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riemdyn import manifold
from riemdyn.errors import (
    ChartDomainError,
    NegativeNormError,
    NonFiniteStateError,
    NumericOverflowError,
    SingularMetricError,
)
from riemdyn.manifold import builtin_chart

CHART_NAMES = ["euclidean2", "euclidean3", "polar2d", "sphere2d", "hyperbolic_half_plane"]


def sample_points(chart, count, seed):
    rng = np.random.default_rng(seed)
    box = chart.sample_box
    width = box[:, 1] - box[:, 0]
    return [
        rng.uniform(box[:, 0] + 0.1 * width, box[:, 1] - 0.1 * width)
        for _ in range(count)
    ]


@pytest.mark.parametrize("name", CHART_NAMES)
def test_metric_is_spd(name):
    chart = builtin_chart(name)
    for x in sample_points(chart, 10, seed=0):
        g = manifold.metric_at(chart, x)
        assert np.allclose(g, g.T)
        assert np.all(np.linalg.eigvalsh(g) > 0)
        ginv = manifold.inverse_metric_at(chart, x)
        assert np.allclose(g @ ginv, np.eye(chart.dim), atol=1e-12)


@pytest.mark.parametrize("name", CHART_NAMES)
def test_metric_compatibility(name):
    """dg_ij/dx^q must equal Gamma_{i;qj} + Gamma_{j;qi}."""
    chart = builtin_chart(name)
    for x in sample_points(chart, 8, seed=1):
        g = manifold.metric_at(chart, x)
        dg = manifold.metric_partials_at(chart, x)
        gamma = manifold.christoffel_at(chart, x)
        lowered = np.einsum("ak,kqj->aqj", g, gamma)
        reconstructed = np.einsum("iqj->ijq", lowered) + np.einsum("jqi->ijq", lowered)
        assert np.max(np.abs(dg - reconstructed)) < 10.0 * exports_oracle.FD_TOLERANCE


@pytest.mark.parametrize("name", CHART_NAMES)
def test_analytic_hooks_match_finite_differences(name):
    chart = builtin_chart(name)
    stripped = exports_oracle.strip_analytic(chart)
    for x in sample_points(chart, 8, seed=2):
        dg = manifold.metric_partials_at(chart, x)
        dg_fd = manifold.metric_partials_at(stripped, x)
        assert np.max(np.abs(dg - dg_fd)) < exports_oracle.FD_TOLERANCE
        gamma = manifold.christoffel_at(chart, x)
        gamma_fd = manifold.christoffel_at(stripped, x)
        assert np.max(np.abs(gamma - gamma_fd)) < exports_oracle.FD_TOLERANCE


def test_polar_christoffel_frozen_values():
    chart = builtin_chart("polar2d")
    gamma = manifold.christoffel_at(chart, np.array([2.0, 0.5]))
    # order: gamma[k, i, j] with k the upper index
    assert gamma[0, 1, 1] == pytest.approx(-2.0, abs=1e-12)
    assert gamma[1, 0, 1] == pytest.approx(0.5, abs=1e-12)
    assert gamma[1, 1, 0] == pytest.approx(0.5, abs=1e-12)
    assert gamma[0, 0, 0] == pytest.approx(0.0, abs=1e-12)


def test_sphere_christoffel_frozen_values():
    chart = builtin_chart("sphere2d")
    theta = math.pi / 3.0
    gamma = manifold.christoffel_at(chart, np.array([theta, 1.2]))
    assert gamma[0, 1, 1] == pytest.approx(-math.sin(theta) * math.cos(theta), abs=1e-12)
    assert gamma[1, 0, 1] == pytest.approx(1.0 / math.tan(theta), abs=1e-12)


def test_hyperbolic_christoffel_frozen_values():
    chart = builtin_chart("hyperbolic_half_plane")
    gamma = manifold.christoffel_at(chart, np.array([0.3, 2.0]))
    assert gamma[0, 0, 1] == pytest.approx(-0.5, abs=1e-12)
    assert gamma[1, 0, 0] == pytest.approx(0.5, abs=1e-12)
    assert gamma[1, 1, 1] == pytest.approx(-0.5, abs=1e-12)


def test_sphere_radius_parameter():
    chart = builtin_chart("sphere2d", radius=2.0)
    g = manifold.metric_at(chart, np.array([math.pi / 2, 0.0]))
    assert g[0, 0] == pytest.approx(4.0)
    assert g[1, 1] == pytest.approx(4.0)


def test_domain_enforcement():
    sphere = builtin_chart("sphere2d")
    with pytest.raises(ChartDomainError):
        manifold.check_point(sphere, np.array([-0.1, 0.0]))
    with pytest.raises(ChartDomainError):
        manifold.check_point(sphere, np.array([math.pi + 0.1, 0.0]))
    polar = builtin_chart("polar2d")
    with pytest.raises(ChartDomainError):
        manifold.check_point(polar, np.array([0.0, 1.0]))
    assert manifold.in_domain(polar, np.array([0.5, 1.0]))


def test_unknown_chart_name():
    with pytest.raises(ChartDomainError):
        builtin_chart("torus7")


def test_near_degenerate_metric_rejected():
    polar = builtin_chart("polar2d")
    with pytest.raises(SingularMetricError):
        manifold.metric_at(polar, np.array([1e-9, 0.0]))


def test_repeated_metric_query_is_read_only_and_equals_a_fresh_chart():
    chart = builtin_chart("sphere2d")
    x = np.array([1.1, 0.3])
    manifold.metric_at(chart, x)
    again = manifold.metric_at(chart, [1.1, 0.3])
    assert np.array_equal(again, manifold.metric_at(builtin_chart("sphere2d"), x))
    with pytest.raises(ValueError):
        again[0, 0] = 5.0


def test_invalid_points_raise_on_every_call():
    polar = builtin_chart("polar2d")
    valid = np.array([1.0, 0.0])
    for bad, error in [
        (np.array([1e-9, 0.0]), SingularMetricError),
        (np.array([-1.0, 0.0]), ChartDomainError),
        (np.array([np.nan, 0.0]), ChartDomainError),
    ]:
        for _ in range(2):
            with pytest.raises(error):
                manifold.metric_at(polar, bad)
        manifold.metric_at(polar, valid)
        with pytest.raises(error):
            manifold.metric_at(polar, bad)
    with pytest.raises(ChartDomainError):
        manifold.metric_at(polar, valid.reshape(1, 2))


def test_metric_query_sees_in_place_changes_to_the_point():
    chart = builtin_chart("polar2d")
    x = np.array([1.0, 0.0])
    assert manifold.metric_at(chart, x)[1, 1] == 1.0
    x[0] = 2.0
    assert manifold.metric_at(chart, x)[1, 1] == 4.0
    x[0] = 0.0
    with pytest.raises(ChartDomainError):
        manifold.metric_at(chart, x)


def test_derived_charts_do_not_share_the_stored_metric():
    chart = builtin_chart("polar2d")
    x = np.array([1.5, 0.2])
    g = manifold.metric_at(chart, x)
    gamma = manifold.christoffel_at(chart, x)
    stripped = exports_oracle.strip_analytic(chart)
    rescaled = manifold.conformal_rescale(chart, "x1/2")
    assert stripped._last is None and rescaled._last is None
    assert dataclasses.replace(chart) == chart
    assert dataclasses.replace(chart)._last is None
    g_stripped = manifold.metric_at(stripped, x)
    assert np.array_equal(g_stripped, g) and g_stripped is not g
    assert stripped._last[3] is None
    assert manifold.christoffel_at(stripped, x) is not gamma
    g2 = manifold.metric_at(rescaled, x)
    assert np.allclose(g2, math.exp(-1.5) * g, rtol=1e-13)
    assert g2 is not g
    assert rescaled._last[3] is None
    assert manifold.metric_at(chart, x) is g
    assert manifold.christoffel_at(chart, x) is gamma


@pytest.mark.parametrize("name", ["euclidean2", "euclidean3"])
def test_flat_chart_queries_return_read_only_arrays(name):
    """A caller that writes into one query's array cannot change the chart's Gamma."""
    chart = builtin_chart(name)
    x = np.full(chart.dim, 0.4)
    outside_record = [manifold.metric_partials_at(chart, x), manifold.christoffel_at(chart, x)]
    manifold.metric_at(chart, x)
    in_record = [manifold.metric_partials_at(chart, x), manifold.christoffel_at(chart, x)]
    for array in outside_record + in_record:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0, 0] = 1.0
    assert not manifold.christoffel_at(builtin_chart(name), x).any()


def test_raise_lower_round_trip():
    chart = builtin_chart("polar2d")
    x = np.array([2.0, 0.5])
    v = np.array([1.0, 1.0])
    low = manifold.lower_index(chart, x, v)
    assert np.allclose(low, [1.0, 4.0])
    assert np.allclose(manifold.raise_index(chart, x, low), v, atol=1e-14)


def test_speed_values():
    chart = builtin_chart("polar2d")
    w = manifold.speed(chart, np.array([2.0, 0.0]), np.array([3.0, 4.0]))
    assert w == pytest.approx(math.sqrt(9.0 + 4.0 * 16.0))


@pytest.mark.parametrize("base", ["euclidean2", "polar2d", "sphere2d"])
def test_conformal_rescale_metric_and_christoffel(base):
    """e^(-2f) scaling of the metric, with hooks matching FD on the wrap."""
    chart = builtin_chart(base)
    rescaled = manifold.conformal_rescale(chart, "x1/2")
    stripped = exports_oracle.strip_analytic(rescaled)
    for x in sample_points(chart, 6, seed=4):
        factor = math.exp(-float(x[0]))
        g = manifold.metric_at(chart, x)
        g2 = manifold.metric_at(rescaled, x)
        assert np.allclose(g2, factor * g, rtol=1e-13)
        gamma = manifold.christoffel_at(rescaled, x)
        gamma_fd = manifold.christoffel_at(stripped, x)
        assert np.max(np.abs(gamma - gamma_fd)) < exports_oracle.FD_TOLERANCE


def test_conformally_flat_chart():
    chart = builtin_chart("conformally_flat", dim=2, f="x1")
    x = np.array([0.25, -0.5])
    g = manifold.metric_at(chart, x)
    assert np.allclose(g, math.exp(-0.5) * np.eye(2), rtol=1e-13)


def test_inverse_metric_is_read_only_and_kept_with_the_metric():
    chart = builtin_chart("sphere2d")
    x = np.array([0.9, -0.4])
    g = manifold.metric_at(chart, x)
    assert chart._last[2] is None  # computed on first use only
    ginv = manifold.inverse_metric_at(chart, x)
    assert np.array_equal(ginv, np.linalg.inv(g))
    assert manifold.inverse_metric_at(chart, x.copy()) is ginv
    with pytest.raises(ValueError):
        ginv[0, 0] = 5.0
    copy = dataclasses.replace(chart)
    assert copy._last is None
    assert np.array_equal(manifold.inverse_metric_at(copy, x), ginv)
    assert manifold.inverse_metric_at(copy, x) is not ginv
    y = np.array([1.2, 0.1])
    ginv_y = manifold.inverse_metric_at(chart, y)
    assert np.array_equal(ginv_y, np.linalg.inv(manifold.metric_at(chart, y)))


def _diagonal_chart(scale):
    """A 3-dimensional chart whose metric hook gives diag(scale e^x1, scale e^x2, scale e^x3)."""
    return manifold.ManifoldChart(
        "diagonal", 3, lambda x: np.diag(scale * np.exp(x)), sample_box=np.array([[-4.0, 4.0]] * 3)
    )


def test_inverse_metric_has_the_bits_of_np_linalg_inv():
    """A diagonal metric is inverted entry by entry, with the bits np.linalg.inv gives
    it; a dense metric, or a diagonal one whose reciprocals overflow, goes to
    np.linalg.inv itself."""
    charts = [builtin_chart(name) for name in CHART_NAMES]
    charts += [builtin_chart("conformally_flat", dim=2, f="x1 - x2^2/3"), _diagonal_chart(1.0)]
    for chart in charts:
        for x in sample_points(chart, 200, seed=5):
            ginv = manifold.inverse_metric_at(chart, x)
            assert ginv.tobytes() == np.linalg.inv(manifold.metric_at(chart, x)).tobytes()
    x = np.array([0.3, -0.2])
    dense = manifold.ManifoldChart("dense", 2, lambda y: np.array([[2.0, 0.5], [0.5, 1.0]]))
    assert manifold._diagonal_inverse(manifold.metric_at(dense, x).tolist()) is None
    assert manifold.inverse_metric_at(dense, x).tobytes() == np.linalg.inv(manifold.metric_at(dense, x)).tobytes()
    tiny = _diagonal_chart(1e-310)
    x = np.zeros(3)
    assert manifold._diagonal_inverse(manifold.metric_at(tiny, x).tolist()) is None
    with np.errstate(all="ignore"):
        want = np.linalg.inv(manifold.metric_at(tiny, x))
        assert manifold.inverse_metric_at(tiny, x).tobytes() == want.tobytes()


def test_derivative_queries_validate_any_point_but_the_memo():
    polar = builtin_chart("polar2d")
    stripped = exports_oracle.strip_analytic(polar)
    for chart in (polar, stripped):
        valid = np.array([1.3, 0.2])
        manifold.metric_at(chart, valid)
        assert np.array_equal(
            manifold.metric_partials_at(chart, valid),
            manifold.metric_partials_at(dataclasses.replace(chart), valid),
        )
        for bad in (np.array([-1.0, 0.2]), np.array([np.inf, 0.2]), valid.reshape(1, 2)):
            with pytest.raises(ChartDomainError):
                manifold.metric_partials_at(chart, bad)
            with pytest.raises(ChartDomainError):
                manifold.christoffel_at(chart, bad)


@pytest.mark.parametrize(
    "build",
    [
        lambda: builtin_chart("polar2d"),
        lambda: builtin_chart("sphere2d"),
        lambda: exports_oracle.strip_analytic(builtin_chart("sphere2d")),
    ],
    ids=["polar2d", "sphere2d", "strip_analytic"],
)
def test_christoffel_symbols_are_kept_read_only_in_the_geometry_record(build):
    chart = build()
    x = np.array([1.1, 0.4])
    manifold.metric_at(chart, x)
    assert chart._last[3] is None  # computed on first use only
    gamma = manifold.christoffel_at(chart, x)
    assert np.array_equal(gamma, manifold.christoffel_at(build(), x))
    assert manifold.christoffel_at(chart, x.copy()) is gamma
    with pytest.raises(ValueError):
        gamma[0, 0, 0] = 5.0
    # Moving the record to another point computes Gamma there anew.
    y = np.array([1.3, -0.2])
    manifold.metric_at(chart, y)
    gamma_y = manifold.christoffel_at(chart, y)
    assert gamma_y is not gamma
    assert np.array_equal(gamma_y, manifold.christoffel_at(build(), y))
    # A point outside the chart is still refused right after a hit.
    assert manifold.christoffel_at(chart, y) is gamma_y
    for bad in (np.array([-1.0, 0.2]), np.array([np.inf, 0.2]), y.reshape(1, 2)):
        with pytest.raises(ChartDomainError):
            manifold.christoffel_at(chart, bad)
        with pytest.raises(ChartDomainError):
            manifold.metric_at(chart, bad)


def test_a_non_finite_point_is_refused_as_not_finite():
    polar = builtin_chart("polar2d")
    manifold.metric_at(polar, np.array([1.0, 0.0]))
    for bad in (np.array([np.inf, 0.0]), np.array([1.0, np.nan])):
        for query in (manifold.metric_at, manifold.christoffel_at, manifold.check_point):
            with pytest.raises(NonFiniteStateError, match="not finite"):
                query(polar, bad)
    with pytest.raises(ChartDomainError) as excinfo:
        manifold.metric_at(polar, np.array([-1.0, 0.0]))
    assert not isinstance(excinfo.value, NonFiniteStateError)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_metric_that_overflows_is_refused_as_an_overflow():
    chart = builtin_chart("conformally_flat", f="-x1*300")
    # e^600 I at x1 = 1 is as regular as I: the determinant test reads g / |g|_max.
    for x1 in (0.5, 1.0):
        manifold.metric_at(chart, np.array([x1, 0.0]))
    # math.exp of the factor overflows at x1 = 1.5;
    # at x1 = 1.1826 the entry e^709.56 = 1.5e308 is finite and twice it is not.
    for x in (np.array([1.5, 0.0]), np.array([1.1826, 0.0])):
        with pytest.raises(NumericOverflowError, match="overflows the float range"):
            manifold.metric_at(chart, x)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_infinite_metric_entry_is_refused_as_an_overflow():
    for entry in [(0, 0), (0, 1), (1, 1)]:
        g = np.eye(2)
        g[entry] = g[entry[::-1]] = math.inf
        with pytest.raises(NumericOverflowError, match="overflows the float range"):
            _probe(g)
    # Their symmetrisation overflows: a + a from a = 2^1023, and 1.7e308 + 1e308.
    huge = [
        np.diag([2.0**1023, 1.0]),
        np.array([[2.0**1023]]),
        np.array([[1.0, 1.7e308], [1e308, 1.0]]),
    ]
    for g in huge:
        with pytest.raises(NumericOverflowError, match="overflows the float range"):
            _probe(g)
    chart = builtin_chart("hyperbolic_half_plane")
    # y^2 underflows to 0 at y = 1e-200, and 1 / y^2 overflows at y = 1e-160.
    for y in (1e-200, 1e-160):
        with pytest.raises(NumericOverflowError, match="overflows the float range"):
            manifold.metric_at(chart, np.array([0.0, y]))
    for y in (1e-70, 0.37, 2.9):
        y2 = np.float64(y) * np.float64(y)
        want = np.array([[1.0 / y2, 0.0], [0.0, 1.0 / y2]])
        assert manifold.metric_at(chart, np.array([0.1, y])).tobytes() == want.tobytes()


def test_speed_refuses_any_negative_square(monkeypatch):
    """A metric that metric_at accepts gives no negative square by rounding, so
    speed clamps none to zero: even -2e-15 raises NegativeNormError."""
    chart = builtin_chart("euclidean2")
    monkeypatch.setattr(manifold, "metric_at", lambda chart, x: np.diag([1.0, -1.0]))
    with pytest.raises(NegativeNormError, match="is negative"):
        manifold.speed(chart, [0.0, 0.0], [1.0, 1.0 + 1e-15])
    assert manifold.speed(chart, [0.0, 0.0], [1.0, 1.0]) == 0.0


@pytest.mark.parametrize(
    "g", [[[2.0, 1.0], [0.5, 3.0]], [[1.0, 0.1, 1e-300], [0.3, 2.0, 0.0], [5e-324, 0.7, 4.0]]]
)
def test_an_asymmetric_metric_is_replaced_by_its_symmetric_part(g):
    g = np.array(g)
    assert _probe(g).tobytes() == (0.5 * (g + g.T)).tobytes()


def _probe(g: np.ndarray):
    """metric_at of a fresh chart whose metric is g at every point."""
    chart = manifold.ManifoldChart(name="probe", dim=g.shape[0], metric_fn=lambda x: g)
    return manifold.metric_at(chart, np.zeros(g.shape[0]))


def _nudged(value: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


def _near_tolerance(n: int, m: float, position: int, ulps: int) -> np.ndarray:
    """diag(m, .., t, .., m) with t = 1e-12 m nudged by ulps, so det(g / m) is within a few ulps of 1e-12.

    On a diagonal metric both routes factor exactly alike: each pivot is
    the entry itself, and its square root is correctly rounded.
    """
    diagonal = [m] * n
    diagonal[position] = _nudged(1e-12 * m, ulps)
    return np.diag(diagonal)


@st.composite
def symmetric_metrics(draw):
    """Symmetric (n, n) metrics, 1 <= n <= 4: SPD, indefinite, near the det
    tolerance, with a NaN or an infinite entry, and with entries above 1e154.
    Such entries are refused only when twice one overflows, in the
    symmetrisation: the determinant test reads g / |g|_max, which cannot overflow.

    An SPD metric is 10^k L L^T with a diagonal of L in [1, 10] and the
    rest in [-1, 1], so it is well conditioned: the two factorisations
    round differently (numpy's LAPACK scales a column by a reciprocal
    pivot, metric_at divides by it), and an ill-conditioned determinant
    magnifies that past rtol 1e-12.
    """
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["spd", "indefinite", "tolerance", "nan", "inf", "huge"]))
    if kind == "tolerance":
        n = max(n, 2)
        m = draw(st.floats(1e-15, 1e15))
        return _near_tolerance(n, m, draw(st.integers(0, n - 1)), draw(st.integers(-8, 8)))
    unit = st.floats(-1.0, 1.0)
    lower = np.array(draw(st.lists(unit, min_size=n * n, max_size=n * n))).reshape(n, n)
    lower = np.tril(lower)
    if kind == "indefinite":
        a = lower + np.tril(lower, -1).T
        i = draw(st.integers(0, n - 1))
        a[i, i] = -draw(st.floats(0.0, 10.0))
        return a
    np.fill_diagonal(lower, [draw(st.floats(1.0, 10.0)) for _ in range(n)])
    spd = lower @ lower.T
    spd = 0.5 * (spd + spd.T)
    if kind == "spd":
        return 10.0 ** draw(st.integers(-60, 60)) * spd
    if kind == "huge" and draw(st.booleans()):
        return 10.0 ** draw(st.integers(155, 305)) * spd
    entry = {
        "nan": math.nan,
        "inf": draw(st.sampled_from([math.inf, -math.inf])),
        "huge": draw(st.floats(1e154, float(np.finfo(float).max))) * draw(st.sampled_from([1.0, -1.0])),
    }[kind]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    spd[i, j] = spd[j, i] = entry
    return spd


@settings(max_examples=600, deadline=None)
@given(symmetric_metrics())
def test_metric_at_accepts_exactly_what_the_numpy_route_accepts(g):
    assert np.array_equal(g, g.T, equal_nan=True)
    try:
        want = metric_oracle.metric_det(g)
    except (SingularMetricError, NumericOverflowError) as exc:
        with pytest.raises((SingularMetricError, NumericOverflowError)) as info:
            _probe(g)
        assert type(info.value) is type(exc)
        return
    assert _probe(g).tobytes() == g.tobytes()
    det = manifold._cholesky_det(g.tolist(), float(abs(g).max()))
    assert det == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("m", [1.0, 3.7e-5, 2.9e4])
def test_the_det_tolerance_is_where_the_numpy_route_has_it(n, m):
    accepted = []
    for ulps in range(-8, 9):
        g = _near_tolerance(n, m, n - 1, ulps)
        try:
            metric_oracle.metric_det(g)
        except SingularMetricError:
            with pytest.raises(SingularMetricError, match="is singular"):
                _probe(g)
            accepted.append(False)
        else:
            _probe(g)
            accepted.append(True)
    # The nudges straddle the tolerance: refused below, accepted above.
    assert accepted == sorted(accepted) and accepted[0] is False and accepted[-1] is True


@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 1)])
def test_a_metric_with_a_nan_entry_is_refused_as_not_positive_definite(entry):
    g = np.eye(2)
    g[entry] = g[entry[::-1]] = math.nan
    with pytest.raises(SingularMetricError, match="not positive definite"):
        _probe(g)
