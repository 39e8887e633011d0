"""Chart catalog: metrics, Christoffel symbols, domains, rescaling."""

import dataclasses
import math

import numpy as np
import pytest

from riemdyn import manifold
from riemdyn.errors import ChartDomainError, SingularMetricError
from riemdyn.manifold import FD_TOLERANCE, builtin_chart

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
        assert np.max(np.abs(dg - reconstructed)) < 10.0 * FD_TOLERANCE


@pytest.mark.parametrize("name", CHART_NAMES)
def test_analytic_hooks_match_finite_differences(name):
    chart = builtin_chart(name)
    stripped = manifold.strip_analytic(chart)
    for x in sample_points(chart, 8, seed=2):
        dg = manifold.metric_partials_at(chart, x)
        dg_fd = manifold.metric_partials_at(stripped, x)
        assert np.max(np.abs(dg - dg_fd)) < FD_TOLERANCE
        gamma = manifold.christoffel_at(chart, x)
        gamma_fd = manifold.christoffel_at(stripped, x)
        assert np.max(np.abs(gamma - gamma_fd)) < FD_TOLERANCE


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
    stripped = manifold.strip_analytic(chart)
    rescaled = manifold.conformal_rescale(chart, "x1/2")
    assert stripped._last is None and rescaled._last is None
    assert dataclasses.replace(chart) == chart
    g_stripped = manifold.metric_at(stripped, x)
    assert np.array_equal(g_stripped, g) and g_stripped is not g
    g2 = manifold.metric_at(rescaled, x)
    assert np.allclose(g2, math.exp(-1.5) * g, rtol=1e-13)
    assert g2 is not g
    assert manifold.metric_at(chart, x) is g


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
    stripped = manifold.strip_analytic(rescaled)
    for x in sample_points(chart, 6, seed=4):
        factor = math.exp(-float(x[0]))
        g = manifold.metric_at(chart, x)
        g2 = manifold.metric_at(rescaled, x)
        assert np.allclose(g2, factor * g, rtol=1e-13)
        gamma = manifold.christoffel_at(rescaled, x)
        gamma_fd = manifold.christoffel_at(stripped, x)
        assert np.max(np.abs(gamma - gamma_fd)) < FD_TOLERANCE


def test_builtin_chart_rescale_sugar():
    direct = manifold.conformal_rescale(builtin_chart("euclidean2"), "x2")
    sugar = builtin_chart("euclidean2", rescale_f="x2")
    x = np.array([0.3, -0.4])
    assert np.allclose(manifold.metric_at(direct, x), manifold.metric_at(sugar, x))


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


def test_derivative_queries_validate_any_point_but_the_memo():
    polar = builtin_chart("polar2d")
    stripped = manifold.strip_analytic(polar)
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
            with pytest.raises(ChartDomainError):
                manifold.inverse_metric_partials_at(chart, bad)
