"""Extended fields: gradients, time derivatives, chains."""

import dataclasses
import math
from collections import Counter

import dt_oracle
import exports_oracle
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from riemdyn import extended_fields as ef
from riemdyn import dynamics_newton, manifold, normal_shift, verification
from riemdyn.errors import FDStepError, InsufficientSamplesError, MissingAccelError
from riemdyn.extended_fields import CotangentPoint, TangentPoint

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
        assert grad.shape == (chart.dim,)
        assert np.max(np.abs(grad)) < 1e-12


@pytest.mark.parametrize("name", CHARTS)
def test_velocity_field_is_parallel(name):
    chart = manifold.builtin_chart(name)
    field = ef.velocity_vector_field()
    for q in tangent_states(chart, 12, seed=1):
        grad = ef.spatial_gradient(chart, field, q)
        assert grad.shape == (chart.dim, chart.dim)
        assert np.max(np.abs(grad)) < 1e-12


@pytest.mark.parametrize("name", CHARTS)
def test_metric_field_is_parallel(name):
    chart = manifold.builtin_chart(name)
    field = exports_oracle.metric_tensor_field()
    for q in tangent_states(chart, 12, seed=2):
        grad = ef.spatial_gradient(chart, field, q)
        assert grad.shape == (chart.dim,) * 3
        assert np.max(np.abs(grad)) < 1e-11


@pytest.mark.parametrize("name", CHARTS)
def test_momentum_kinetic_scalar_is_parallel(name):
    """The cotangent twin (1/2) g^ij p_i p_j is covariantly constant too."""
    chart = manifold.builtin_chart(name)
    field = ef.momentum_kinetic_scalar()
    rng = np.random.default_rng(3)
    for state in verification.sample_cotangent_states(chart, 12, rng):
        grad = ef.spatial_gradient(chart, field, state)
        assert np.max(np.abs(grad)) < 1e-11


def test_potential_gradient_matches_plain_partials():
    chart = manifold.builtin_chart("polar2d")
    field = exports_oracle.potential_scalar("sin(x1)*x2")
    q = TangentPoint(np.array([1.3, 0.7]), np.array([0.4, -0.2]))
    grad = ef.spatial_gradient(chart, field, q)
    expected = np.array([np.cos(1.3) * 0.7, np.sin(1.3)])
    assert np.allclose(grad, expected, atol=1e-13)


def test_velocity_gradient_of_lowered_velocity():
    """d(g_kj v^j)/dv^q = g_kq, with the field's axis first and the new axis last."""
    chart = manifold.builtin_chart("polar2d")
    field = ef.lowered_velocity_field()
    q = TangentPoint(np.array([2.0, 0.5]), np.array([1.0, 1.0]))
    out = ef.fiber_partials(chart, field, q)
    assert out.shape == (chart.dim, chart.dim)
    assert np.allclose(out, manifold.metric_at(chart, q.x), atol=1e-12)


def test_rep_mismatch_rejected():
    chart = manifold.builtin_chart("euclidean2")
    v_field = ef.velocity_vector_field()
    state = CotangentPoint(np.zeros(2), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        ef.spatial_gradient(chart, v_field, state)


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
        curve = verification.synthetic_curve_samples(chart, rng)
        for field in fields:
            residual = ef.chain_rule_check(chart, field, curve)
            assert np.max(np.abs(residual)) < 1e-5


@pytest.mark.parametrize("name", ["sphere2d", "polar2d"])
def test_chain_rule_on_a_geodesic_leg(name):
    """chain_rule_check reads a leg's own Trajectory: D_t v = 0 on a geodesic, so "accel" is zero."""
    chart = manifold.builtin_chart(name)
    config = dynamics_newton.IntegratorConfig(
        method="rk4", dt=1e-3, t_span=(0.0, 0.25), record_every=1
    )
    leg = dynamics_newton.integrate(
        chart,
        dynamics_newton.geodesic_system(),
        TangentPoint(*verification._STARTS[name]),
        config,
    )
    assert leg.status == "completed"
    curve = dataclasses.replace(leg, columns={**leg.columns, "accel": np.zeros_like(leg.vs)})
    for field in (
        ef.kinetic_energy_scalar(),
        ef.velocity_vector_field(),
        ef.lowered_velocity_field(),
    ):
        residual = ef.chain_rule_check(chart, field, curve)
        assert residual.shape[0] == len(leg.ts) == 251
        assert np.max(np.abs(residual)) <= verification.CHAIN_RULE_TOL


def _counted(calls, name, hook):
    """hook, counting its calls in calls[name]."""

    def counted(chart, point):
        calls[name] += 1
        return hook(chart, point)

    return counted


@pytest.mark.parametrize("name", CHARTS)
def test_chain_rule_check_reads_each_sample_once(name):
    """One value, one x read and one fiber read per sample of a 61-sample curve."""
    chart = manifold.builtin_chart(name)
    curve = verification.synthetic_curve_samples(chart, np.random.default_rng(13))
    assert len(curve.ts) == 61
    plain = ef.velocity_vector_field()
    calls = Counter()
    field = dataclasses.replace(
        plain,
        eval_fn=_counted(calls, "eval", plain.eval_fn),
        x_partials_fn=_counted(calls, "x", plain.x_partials_fn),
        fiber_partials_fn=_counted(calls, "fiber", plain.fiber_partials_fn),
    )
    residual = ef.chain_rule_check(chart, field, curve)
    assert calls == {"eval": 61, "x": 61, "fiber": 61}
    assert residual.tobytes() == ef.chain_rule_check(chart, plain, curve).tobytes()


def test_chain_rule_needs_accel():
    chart = manifold.builtin_chart("euclidean2")
    ts = 0.001 * np.arange(9)
    xs = np.stack([10.0 * ts, np.zeros(9)], axis=1)
    line = dynamics_newton.Trajectory(ts, xs, {"v": np.tile([1.0, 0.0], (9, 1))}, "completed")
    with pytest.raises(MissingAccelError):
        ef.chain_rule_check(chart, ef.kinetic_energy_scalar(), line)


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
    values = np.stack(
        [manifold.lower_index(chart, x, v) for x, v in zip(trajectory.xs, trajectory.vs)]
    )
    dt_p = ef.covariant_time_derivative(chart, trajectory, values, ("l",))
    assert np.max(np.abs(dt_p)) < 1e-5


@pytest.mark.parametrize("variance", [("u",), ("l",), ("u", "l"), ("l", "l")])
@pytest.mark.parametrize("name", ["polar2d", "sphere2d"])
def test_covariant_time_derivative_equals_the_per_index_loop_it_replaced(name, variance):
    """D_t of components linear in t, whose dX/dt is about as large as the index terms, to 1e-14 relative."""
    chart = manifold.builtin_chart(name)
    rng = np.random.default_rng(7)
    curve = verification.synthetic_curve_samples(chart, rng)
    shape = (chart.dim,) * len(variance)
    start, rate = rng.uniform(-1.0, 1.0, shape), rng.uniform(-1.0, 1.0, shape)
    values = np.stack([start + rate * t for t in curve.ts])
    got = ef.covariant_time_derivative(chart, curve, values, variance)
    want = dt_oracle.covariant_time_derivative(chart, curve, values, variance)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_time_derivative_needs_uniform_grid():
    chart = manifold.builtin_chart("euclidean2")
    ts = np.array([0.0, 0.1, 0.15, 0.4])
    xs = np.stack([ts, np.zeros(4)], axis=1)
    vs = np.tile([1.0, 0.0], (4, 1))
    values = np.zeros((4, 2))
    uneven = dynamics_newton.Trajectory(ts, xs, {"v": vs}, "completed")
    one = dynamics_newton.Trajectory(ts[:1], xs[:1], {"v": vs[:1]}, "completed")
    with pytest.raises(InsufficientSamplesError):
        ef.covariant_time_derivative(chart, uneven, values, ("l",))
    with pytest.raises(InsufficientSamplesError):
        ef.covariant_time_derivative(chart, one, values[:1], ("l",))


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
        manifold.metric_partials_at(exports_oracle.strip_analytic(polar), x)
    field = exports_oracle.as_extended_field(normal_shift.kinetic_profile())
    with pytest.raises(FDStepError, match="axis 0"):
        ef.x_partials(polar, field, TangentPoint(x, np.array([0.4, 0.2])))


_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, -1.7e308]
_ANY_FLOAT = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(_SPECIAL), st.floats())
# Finite entries of an inverse metric, zeros often, so that the skipped terms show.
_INVERSE_ENTRY = st.one_of(st.just(0.0), st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False))


def _same_floats(got, want):
    """Equal bit for bit, except that any NaN matches any NaN."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes()


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.lists(_INVERSE_ENTRY, min_size=n * n, max_size=n * n),
            st.lists(_ANY_FLOAT, min_size=n**3, max_size=n**3),
            st.lists(_ANY_FLOAT, min_size=n, max_size=n),
            st.booleans(),
        )
    )
)
def test_the_metric_contractions_have_einsums_bits_and_carry_non_finite_entries(drawn):
    """For any dg and y, s sums in einsum's order. Contracted with a raised
    momentum u = g^-1 p, any finite g^-1 without a zero row or column (every
    inverse metric), diagonal or not: an infinite or NaN entry of p makes every
    dH/dx^q = 0.0 - s_q non-finite, and one of dg[:, :, q] makes dH/dx^q so."""
    entries, dg, y, diagonal = drawn
    n = len(y)
    ginv = np.array(entries).reshape(n, n)
    if diagonal:
        ginv = np.diag(np.diag(ginv))
    assume(ginv.any(axis=0).all() and ginv.any(axis=1).all())
    dg = np.array(dg).reshape(n, n, n)
    p = np.array(y)
    with np.errstate(all="ignore"):
        want = np.einsum("ijq,i,j->q", dg, p, p)
        u = ginv @ p
    assert _same_floats(ef._metric_contractions(dg.tolist(), p.tolist())[0], want)
    dh_dx = [0.0 - t for t in ef._metric_contractions(dg.tolist(), u.tolist())[0]]
    for q in range(n):
        if not (np.isfinite(p).all() and np.isfinite(dg[:, :, q]).all()):
            assert not math.isfinite(dh_dx[q])
