"""Projectors, closed-form fiber Hessians, and the shift force family."""

import math

import exports_oracle
import legendre_oracle
import numpy as np
import pytest

from riemdyn import dynamics_lagrange as dl
from riemdyn import extended_fields, manifold, normal_shift as ns, verification
from riemdyn.errors import DegenerateWError, ZeroVelocityError
from riemdyn.extended_fields import TangentPoint

_FAMILIES = list(verification._SYSTEMS.items())


@pytest.mark.parametrize("chart_name", ["euclidean2", "polar2d", "sphere2d"])
def test_projector_algebra(chart_name):
    chart = manifold.builtin_chart(chart_name)
    rng = np.random.default_rng(5)
    eye = np.eye(chart.dim)
    for point in verification.sample_tangent_states(chart, 10, rng, min_speed=0.3):
        q, p = ns.projectors(chart, point)
        assert q.shape == p.shape == (chart.dim, chart.dim)
        assert np.max(np.abs(q + p - eye)) < 1e-12
        assert np.max(np.abs(q @ q - q)) < 1e-12
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert np.max(np.abs(q @ p)) < 1e-12
        assert np.max(np.abs(q @ point.v - point.v)) < 1e-12
        assert np.max(np.abs(p @ point.v)) < 1e-12


@pytest.mark.parametrize("family,params", _FAMILIES)
def test_closed_form_hessian_inverse(family, params):
    """B must invert A exactly for every profile-carrying family."""
    lag = dl.catalog_lagrangian(family, **params)
    rng = np.random.default_rng(13)
    for chart_name in ["polar2d", "sphere2d"]:
        chart = manifold.builtin_chart(chart_name)
        eye = np.eye(chart.dim)
        for point in verification.sample_tangent_states(chart, 6, rng, min_speed=0.3):
            a = legendre_oracle.symmetric_a_matrix(chart, lag.profile, point)
            b = ns.symmetric_b_matrix(chart, lag.profile, point)
            assert np.max(np.abs(a @ b - eye)) < 1e-10


@pytest.mark.parametrize("family,params", _FAMILIES)
@pytest.mark.parametrize("chart_name", ["polar2d", "sphere2d"])
def test_spherical_force_matches_lagrangian_extraction(family, params, chart_name):
    """The radial-profile force formula and the generic A F = ... solve agree."""
    chart = manifold.builtin_chart(chart_name)
    lag = dl.catalog_lagrangian(family, **params)
    rng = np.random.default_rng(29)
    for point in verification.sample_tangent_states(chart, 8, rng, min_speed=0.3):
        lowered = ns.spherical_force_field(lag.profile).eval_fn(chart, point)
        raised = manifold.raise_index(chart, point.x, lowered)
        generic = dl.force_from_lagrangian(chart, lag, point)
        assert np.max(np.abs(raised - generic)) < 1e-10


@pytest.mark.parametrize("chart_name", ["euclidean2", "polar2d"])
def test_conformal_shift_profile_reduces_to_conformal_force(chart_name):
    # W = w exp(-f) makes the shift force collapse to the conformal one.
    chart = manifold.builtin_chart(chart_name)
    f = "x1/3 + x2/5"
    shift = ns.conformal_shift_profile(f)
    rng = np.random.default_rng(17)
    for point in verification.sample_tangent_states(chart, 10, rng, min_speed=0.3):
        via_shift = ns.normal_shift_force_field(shift).eval_fn(chart, point)
        direct = ns.conformal_force_field(f).eval_fn(chart, point)
        assert np.max(np.abs(via_shift - direct)) < 1e-12


def test_zero_h_term_changes_nothing():
    chart = manifold.builtin_chart("polar2d")
    profile = ns.conformal_shift_profile("x1/2")
    point = TangentPoint(np.array([1.5, 0.2]), np.array([0.4, -0.3]))
    a = ns.normal_shift_force_field(profile).eval_fn(chart, point)
    b = ns.normal_shift_force_field(profile, h_fn=lambda w: 0.0).eval_fn(chart, point)
    assert np.array_equal(a, b)


def test_nonzero_h_term_pushes_along_velocity():
    chart = manifold.builtin_chart("euclidean2")
    profile = ns.conformal_shift_profile("0")
    point = TangentPoint(np.zeros(2), np.array([2.0, 0.0]))
    # With f = 0 the profile is W = w, so grad W = 0 and only the h term
    # survives: F_r = h(|v|) v_r / |v|.
    force = ns.normal_shift_force_field(profile, h_fn=lambda w: w * w).eval_fn(chart, point)
    assert np.allclose(force, [4.0, 0.0], atol=1e-14)


def test_zero_velocity_rejected():
    chart = manifold.builtin_chart("euclidean2")
    point = TangentPoint(np.zeros(2), np.zeros(2))
    with pytest.raises(ZeroVelocityError):
        ns.velocity_modulus(chart, point)
    with pytest.raises(ZeroVelocityError):
        ns.projectors(chart, point)


def test_degenerate_shift_profile_rejected():
    chart = manifold.builtin_chart("euclidean2")
    flat_in_w = ns.profile_from_expression("x1 + 0*w")
    point = TangentPoint(np.array([0.5, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(DegenerateWError):
        ns.normal_shift_force_field(flat_in_w).eval_fn(chart, point)


def test_h_function_resolution():
    assert ns.h_function(None) is None
    assert ns.h_function("0") is None
    assert ns.h_function("w^2")(3.0) == 9.0
    assert abs(ns.h_function("sin w")(0.7) - math.sin(0.7)) < 1e-15
    assert abs(ns.h_function("w^3/2")(3.0) - 13.5) < 1e-12
    with pytest.raises(ValueError):
        ns.h_function("x1 + w")


def test_phi_profile_refuses_variables_other_than_w():
    with pytest.raises(ValueError):
        ns.phi_profile("w^2/2 + x1", "1")
    assert ns.phi_profile("w^2/2", "exp(-x1/4)").expr.variables == ("w", "x1")


@pytest.mark.parametrize("family,params", _FAMILIES)
def test_profile_x_partials_are_the_spatial_gradient(family, params):
    """For fiberwise symmetric scalars the fixed-modulus x partials equal
    the covariant gradient computed by the generic field machinery."""
    chart = manifold.builtin_chart("sphere2d")
    lag = dl.catalog_lagrangian(family, **params)
    field = exports_oracle.as_extended_field(lag.profile)
    rng = np.random.default_rng(41)
    for point in verification.sample_tangent_states(chart, 6, rng, min_speed=0.3):
        w = manifold.speed(chart, point.x, point.v)
        expected = lag.profile.x_partials(point.x, w)
        grad = extended_fields.spatial_gradient(chart, field, point)
        assert np.max(np.abs(grad - expected)) < 1e-6
