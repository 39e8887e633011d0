"""Extended fields: gradients, contractions, time derivatives, chains."""

import dataclasses

import exports_oracle
import numpy as np
import pytest

from riemdyn import extended_fields as ef
from riemdyn import dynamics_newton, manifold, normal_shift, verification
from riemdyn.errors import (
    FDStepError,
    InsufficientSamplesError,
    MissingAccelError,
    RankMismatchError,
)
from riemdyn.extended_fields import CotangentPoint, CurveSample, TangentPoint

CHARTS = ["euclidean2", "polar2d", "sphere2d"]


def tangent_states(chart, count, seed):
    rng = np.random.default_rng(seed)
    return verification.sample_tangent_states(chart, count, rng)


@pytest.mark.parametrize("name", CHARTS)
def test_kinetic_energy_has_zero_spatial_gradient(name):
    """Metric compatibility: grad (1/2)|v|^2 = 0."""
    chart = manifold.builtin_chart(name)
    field = ef.kinetic_energy_scalar()
    for q in tangent_states(chart, 12, seed=0):
        grad = ef.spatial_gradient(chart, field, q)
        assert grad.variance == ("l",)
        assert np.max(np.abs(grad.data)) < 1e-12


@pytest.mark.parametrize("name", CHARTS)
def test_velocity_field_is_parallel(name):
    chart = manifold.builtin_chart(name)
    field = ef.velocity_vector_field()
    for q in tangent_states(chart, 12, seed=1):
        grad = ef.spatial_gradient(chart, field, q)
        assert grad.variance == ("u", "l")
        assert np.max(np.abs(grad.data)) < 1e-12


@pytest.mark.parametrize("name", CHARTS)
def test_metric_field_is_parallel(name):
    chart = manifold.builtin_chart(name)
    field = exports_oracle.metric_tensor_field()
    for q in tangent_states(chart, 12, seed=2):
        grad = ef.spatial_gradient(chart, field, q)
        assert grad.variance == ("l", "l", "l")
        assert np.max(np.abs(grad.data)) < 1e-11


@pytest.mark.parametrize("name", CHARTS)
def test_momentum_kinetic_scalar_is_parallel(name):
    """The cotangent twin (1/2) g^ij p_i p_j is covariantly constant too."""
    chart = manifold.builtin_chart(name)
    field = ef.momentum_kinetic_scalar()
    rng = np.random.default_rng(3)
    for state in verification.sample_cotangent_states(chart, 12, rng):
        grad = ef.spatial_gradient(chart, field, state)
        assert np.max(np.abs(grad.data)) < 1e-11


def test_potential_gradient_matches_plain_partials():
    chart = manifold.builtin_chart("polar2d")
    field = exports_oracle.potential_scalar("sin(x1)*x2")
    q = TangentPoint(np.array([1.3, 0.7]), np.array([0.4, -0.2]))
    grad = ef.spatial_gradient(chart, field, q)
    expected = np.array([np.cos(1.3) * 0.7, np.sin(1.3)])
    assert np.allclose(grad.data, expected, atol=1e-13)


def test_velocity_gradient_of_lowered_velocity():
    """d(g_kj v^j)/dv^q = g_kq, tagged with two lower slots."""
    chart = manifold.builtin_chart("polar2d")
    field = ef.lowered_velocity_field()
    q = TangentPoint(np.array([2.0, 0.5]), np.array([1.0, 1.0]))
    out = ef.velocity_gradient(chart, field, q)
    assert out.variance == ("l", "l")
    assert np.allclose(out.data, manifold.metric_at(chart, q.x), atol=1e-12)


def test_rep_mismatch_rejected():
    chart = manifold.builtin_chart("euclidean2")
    v_field = ef.velocity_vector_field()
    state = CotangentPoint(np.zeros(2), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        ef.spatial_gradient(chart, v_field, state)


def test_contract_requires_opposite_variance():
    a = ef.TensorComponents(np.eye(2), ("u", "l"))
    b = ef.TensorComponents(np.ones(2), ("l",))
    out = ef.contract(a, b, 0, 0)
    assert out.variance == ("l",)
    assert np.allclose(out.data, [1.0, 1.0])
    with pytest.raises(RankMismatchError):
        ef.contract(a, b, 1, 0)
    with pytest.raises(RankMismatchError):
        ef.contract(a, a, 0, 5)


@pytest.mark.parametrize("name", CHARTS)
def test_chain_rule_on_synthetic_curves(name):
    chart = manifold.builtin_chart(name)
    rng = np.random.default_rng(11)
    fields = [
        ef.kinetic_energy_scalar(),
        ef.velocity_vector_field(),
        ef.lowered_velocity_field(),
    ]
    for _ in range(5):
        samples = verification.synthetic_curve_samples(chart, rng)
        for field in fields:
            residual = ef.chain_rule_check(chart, field, samples)
            assert np.max(np.abs(residual)) < 1e-5


def test_chain_rule_needs_accel():
    chart = manifold.builtin_chart("euclidean2")
    samples = [
        CurveSample(0.001 * k, TangentPoint(np.array([0.01 * k, 0.0]), np.array([1.0, 0.0])))
        for k in range(9)
    ]
    with pytest.raises(MissingAccelError):
        ef.chain_rule_check(chart, ef.kinetic_energy_scalar(), samples)


def test_covariant_time_derivative_of_momentum_along_geodesic():
    """D_t (g v) = 0 along geodesics, up to the sampling stencil error."""
    chart = manifold.builtin_chart("sphere2d")
    config = dynamics_newton.IntegratorConfig(
        method="rk4", dt=1e-3, t_span=(0.0, 0.2), record_every=1
    )
    trajectory = dynamics_newton.integrate(
        chart,
        dynamics_newton.geodesic_system(),
        TangentPoint(np.array([1.0, 0.3]), np.array([0.3, 0.9])),
        config,
    )
    samples = trajectory.curve_samples()
    values = np.stack(
        [manifold.lower_index(chart, s.point.x, s.point.v) for s in samples]
    )
    dt_p = ef.covariant_time_derivative(chart, samples, values, ("l",))
    assert np.max(np.abs(dt_p)) < 1e-5


def test_time_derivative_needs_uniform_grid():
    chart = manifold.builtin_chart("euclidean2")
    ts = [0.0, 0.1, 0.15, 0.4]
    samples = [
        CurveSample(t, TangentPoint(np.array([t, 0.0]), np.array([1.0, 0.0])))
        for t in ts
    ]
    values = np.zeros((4, 2))
    with pytest.raises(InsufficientSamplesError):
        ef.covariant_time_derivative(chart, samples, values, ("l",))
    with pytest.raises(InsufficientSamplesError):
        ef.covariant_time_derivative(chart, samples[:1], values[:1], ("l",))


_F = "x1/2"
_U = "sin(x1) + x2^2/2"
_QUADRATIC_PARAMS = ({}, {"f": _F}, {"u": _U}, {"f": _F, "u": _U})


@pytest.mark.parametrize("name", CHARTS)
def test_catalog_analytic_partials(name):
    """Every catalog field's hooks agree with finite differences."""
    chart = manifold.builtin_chart(name)
    points = tangent_states(chart, 6, seed=5)
    for field in (
        *(ef.kinetic_energy_scalar(**params) for params in _QUADRATIC_PARAMS),
        ef.velocity_vector_field(),
        ef.lowered_velocity_field(),
        exports_oracle.metric_tensor_field(),
        exports_oracle.potential_scalar(_U),
    ):
        exports_oracle.check_analytic_partials(chart, field, points, tol=1e-6)
    rng = np.random.default_rng(6)
    co_points = verification.sample_cotangent_states(chart, 6, rng)
    for params in _QUADRATIC_PARAMS:
        exports_oracle.check_analytic_partials(chart, ef.momentum_kinetic_scalar(**params), co_points, tol=1e-6)


@pytest.mark.parametrize("name", CHARTS)
@pytest.mark.parametrize("params", _QUADRATIC_PARAMS)
def test_quadratic_scalars_are_legendre_duals(name, params):
    """At p = dL/dv: H = v . p - L, dH/dp = v and dH/dx = -dL/dx."""
    chart = manifold.builtin_chart(name)
    lag = ef.kinetic_energy_scalar(**params)
    ham = ef.momentum_kinetic_scalar(**params)
    for q in tangent_states(chart, 6, seed=7):
        p = ef.fiber_partials(chart, lag, q)
        state = CotangentPoint(q.x, p)
        energy = float(q.v @ p - lag.eval_fn(chart, q))
        assert float(ham.eval_fn(chart, state)) == pytest.approx(energy, rel=1e-12, abs=1e-12)
        assert np.allclose(ef.fiber_partials(chart, ham, state), q.v, rtol=1e-12, atol=1e-12)
        dh_dx = ef.x_partials(chart, ham, state)
        assert np.allclose(dh_dx, -ef.x_partials(chart, lag, q), rtol=1e-12, atol=1e-12)


def test_jet_without_a_hook_equals_the_two_separate_calls():
    chart = manifold.builtin_chart("sphere2d")
    rng = np.random.default_rng(9)
    states = verification.sample_cotangent_states(chart, 5, rng)
    with_jet = ef.momentum_kinetic_scalar(f="x1/3", u="sin(x2)")
    analytic = dataclasses.replace(with_jet, jet_fn=None)
    bare = ef.ExtendedField((0, 0), "p", analytic.eval_fn, name="fd_only")
    for field in (analytic, bare):
        assert field.jet_fn is None
        for state in states:
            dx, dp = ef.jet(chart, field, state)
            assert np.array_equal(dx, ef.x_partials(chart, field, state))
            assert np.array_equal(dp, ef.fiber_partials(chart, field, state))


def _tensordot_index_terms(gamma, data, variance):
    """The tensordot form of the Christoffel index terms, kept as the reference."""
    out = np.zeros(data.shape + (gamma.shape[0],))
    for axis, tag in enumerate(variance):
        if tag == "u":
            term = np.tensordot(data, gamma, axes=([axis], [2]))
            out += np.moveaxis(term, -2, axis)
        else:
            term = np.tensordot(data, np.swapaxes(gamma, 1, 2), axes=([axis], [0]))
            out -= np.moveaxis(term, -2, axis)
    return out


def test_gradient_contractions_match_the_tensordot_reference():
    """Index and fiber terms on a Gamma with no symmetry, for every rank up to 3."""
    rng = np.random.default_rng(5)
    gamma = rng.normal(size=(3, 3, 3))
    fiber = rng.normal(size=3)
    for variance in [(), ("u",), ("l",), ("u", "l"), ("l", "l"), ("u", "u", "l")]:
        data = rng.normal(size=(3,) * len(variance))
        got = ef._index_terms(gamma, data, variance)
        assert np.allclose(got, _tensordot_index_terms(gamma, data, variance), rtol=0, atol=1e-13)
        dfib = rng.normal(size=data.shape + (3,))
        v_term = -np.einsum("...b,bq->...q", dfib, np.einsum("a,bqa->bq", fiber, gamma))
        p_term = np.einsum("...b,bq->...q", dfib, np.einsum("a,aqb->bq", fiber, gamma))
        assert np.allclose(ef._fiber_correction(gamma, fiber, dfib, "v"), v_term, rtol=0, atol=1e-13)
        assert np.allclose(ef._fiber_correction(gamma, fiber, dfib, "p"), p_term, rtol=0, atol=1e-13)


def test_fd_stencils_that_leave_the_chart_raise_on_both_x_routes():
    # At r = 1e-7 the first-difference step along r, eps^(1/3) = 6.1e-6, crosses r = 0.
    polar = manifold.builtin_chart("polar2d")
    x = np.array([1e-7, 0.3])
    with pytest.raises(FDStepError, match="axis 0"):
        manifold.metric_partials_at(manifold.strip_analytic(polar), x)
    field = normal_shift.as_extended_field(normal_shift.kinetic_profile())
    with pytest.raises(FDStepError, match="axis 0"):
        ef.x_partials(polar, field, TangentPoint(x, np.array([0.4, 0.2])))
