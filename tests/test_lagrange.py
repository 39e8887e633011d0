"""Euler-Lagrange force extraction, residuals, and the catalog families."""

import dataclasses
from collections import Counter

import force_oracle
import numpy as np
import pytest

from riemdyn import dynamics_lagrange as dl
from riemdyn import dynamics_newton as dn
from riemdyn import extended_fields, manifold, verification
from riemdyn.errors import (
    InsufficientSamplesError,
    NumericOverflowError,
    SingularAError,
    ZeroVelocityError,
)
from riemdyn.extended_fields import CurveSample, TangentPoint


def test_conformal_force_flat_oracle():
    # For L = exp(-2 f) |v|^2 / 2 on flat space the equations of motion
    # reduce by hand to vdot_k = 2 (df . v) v_k - |v|^2 (df)_k.  With
    # f = x1 at the origin and v = (1, 1) that gives (0, 2).
    chart = manifold.builtin_chart("euclidean2")
    lag = dl.conformal_kinetic_lagrangian("x1")
    point = TangentPoint(np.zeros(2), np.array([1.0, 1.0]))
    force = dl.force_from_lagrangian(chart, lag, point)
    assert np.allclose(force, [0.0, 2.0], atol=1e-12)


@pytest.mark.parametrize("chart_name", ["polar2d", "sphere2d", "hyperbolic_half_plane"])
def test_kinetic_force_vanishes(chart_name):
    """The free Lagrangian must extract a zero force on any chart."""
    chart = manifold.builtin_chart(chart_name)
    lag = dl.kinetic_lagrangian()
    rng = np.random.default_rng(7)
    for point in verification.sample_tangent_states(chart, 10, rng):
        force = dl.force_from_lagrangian(chart, lag, point)
        assert np.max(np.abs(force)) < 1e-10


def test_regularity_classification():
    chart = manifold.builtin_chart("polar2d")
    point = TangentPoint(np.array([2.0, 0.5]), np.array([0.3, -0.4]))
    report = dl.regularity(chart, dl.kinetic_lagrangian(), point)
    assert report.is_regular
    assert report.is_positive

    # L = |v| has a fiber Hessian that annihilates v itself.
    degenerate = dl.fiberwise_phi_lagrangian("w")
    report = dl.regularity(chart, degenerate, point)
    assert not report.is_regular


@pytest.mark.parametrize(
    "family,params",
    [
        ("kinetic", {}),
        ("kinetic-potential", {"U": "sin(x1) + x2^2/2"}),
        ("conformal-kinetic", {"f": "x1/2"}),
        ("fiberwise-phi", {"phi": "w^2/2 + w^4/10", "C": "exp(-x1/4)"}),
    ],
)
def test_finite_difference_fiber_hessian_matches_closed_form(family, params):
    """Both FD routes of a_matrix: central differences of dL/dv, and
    second differences of L once that hook is stripped too."""
    chart = manifold.builtin_chart("polar2d")
    lag = dl.catalog_lagrangian(family, **params)
    no_second = dataclasses.replace(lag, second_fiber_fn=None)
    no_hooks = dataclasses.replace(
        no_second, field=dataclasses.replace(lag.field, fiber_partials_fn=None)
    )
    rng = np.random.default_rng(43)
    for point in verification.sample_tangent_states(chart, 6, rng, min_speed=0.3):
        exact = dl.a_matrix(chart, lag, point)
        for stripped in (no_second, no_hooks):
            assert np.max(np.abs(dl.a_matrix(chart, stripped, point) - exact)) < 1e-5


def test_singular_fiber_hessian_raises():
    chart = manifold.builtin_chart("euclidean2")
    lag = dl.fiberwise_phi_lagrangian("w")
    point = TangentPoint(np.zeros(2), np.array([1.0, 0.0]))
    with pytest.raises(SingularAError):
        dl.force_from_lagrangian(chart, lag, point)


def test_zero_velocity_rejected_by_fiberwise_family():
    chart = manifold.builtin_chart("euclidean2")
    lag = dl.fiberwise_phi_lagrangian("w^2/2 + w^4/10")
    point = TangentPoint(np.zeros(2), np.zeros(2))
    with pytest.raises(ZeroVelocityError):
        lag.dv(chart, point)


def test_el_residual_small_on_true_trajectory():
    """Integrated motion should annihilate the covariant residual."""
    chart = manifold.builtin_chart("polar2d")
    lag = dl.kinetic_minus_potential("sin(x1) + x2^2/2")
    q0 = TangentPoint(np.array([1.5, 0.2]), np.array([0.2, 0.5]))
    config = dn.IntegratorConfig(method="rk4", dt=1e-3, t_span=(0.0, 0.3), record_every=1)
    trajectory = dl.integrate_lagrangian(chart, lag, q0, config)
    assert trajectory.status == "completed"
    residual = dl.el_residual(chart, lag, trajectory)
    assert np.max(np.abs(residual)) < 1e-5


def test_el_residual_flags_a_wrong_curve():
    # Uniform circular motion is not free motion, so the free Lagrangian
    # must leave a residual of order one (the centripetal acceleration).
    chart = manifold.builtin_chart("euclidean2")
    lag = dl.kinetic_lagrangian()
    ts = np.linspace(0.0, 0.5, 51)
    samples = [
        CurveSample(
            float(t),
            TangentPoint(
                np.array([np.cos(t), np.sin(t)]),
                np.array([-np.sin(t), np.cos(t)]),
            ),
        )
        for t in ts
    ]
    residual = dl.el_residual(chart, lag, samples)
    assert np.max(np.abs(residual)) > 0.5


def test_classical_and_covariant_residuals_agree():
    chart = manifold.builtin_chart("polar2d")
    lag = dl.conformal_kinetic_lagrangian("x1/2")
    q0 = TangentPoint(np.array([1.5, 0.2]), np.array([0.2, 0.5]))
    config = dn.IntegratorConfig(method="rk4", dt=1e-3, t_span=(0.0, 0.2), record_every=1)
    trajectory = dl.integrate_lagrangian(chart, lag, q0, config)
    covariant = dl.el_residual(chart, lag, trajectory)
    classical = dl.classical_el_residual(chart, lag, trajectory)
    # Interior samples only; the one-sided time differences at the ends
    # are an order less accurate.
    assert np.max(np.abs(covariant[2:-2])) < 1e-5
    assert np.max(np.abs(classical[2:-2])) < 1e-4


@pytest.mark.parametrize("residual", [dl.el_residual, dl.classical_el_residual])
def test_residuals_refuse_a_non_uniform_time_grid(residual):
    chart = manifold.builtin_chart("euclidean2")
    lag = dl.kinetic_lagrangian()
    samples = [
        CurveSample(t, TangentPoint(np.array([t, 0.0]), np.array([1.0, 0.0])))
        for t in (0.0, 0.1, 0.15, 0.4)
    ]
    with pytest.raises(InsufficientSamplesError, match="uniformly"):
        residual(chart, lag, samples)


@pytest.mark.parametrize(
    "family,params,chart_name",
    [
        ("kinetic", {}, "sphere2d"),
        ("kinetic-potential", {"U": "sin(x1) + x2^2/2"}, "polar2d"),
        ("conformal-kinetic", {"f": "x1/2"}, "polar2d"),
        ("fiberwise-phi", {"phi": "w^2/2 + w^4/10", "C": "exp(-x1/4)"}, "euclidean2"),
    ],
)
def test_second_order_and_newtonian_routes_agree(family, params, chart_name):
    """Plain-coordinate integration must match the covariant force route."""
    chart = manifold.builtin_chart(chart_name)
    lag = dl.catalog_lagrangian(family, **params)
    rng = np.random.default_rng(11)
    q0 = verification.sample_tangent_states(chart, 1, rng, min_speed=0.3)[0]
    config = dn.IntegratorConfig(method="rk4", dt=1e-3, t_span=(0.0, 0.5), record_every=5)
    direct = dl.integrate_lagrangian(chart, lag, q0, config)
    reduced = dn.integrate(chart, dl.lagrangian_force_field(lag), q0, config)
    assert direct.status == "completed"
    assert reduced.status == "completed"
    assert dn.max_coordinate_distance(direct, reduced) < 1e-9


def test_momentum_field_analytic_hooks():
    """Hand-coded momentum partials must match finite differences."""
    rng = np.random.default_rng(3)
    for chart_name in ["polar2d", "sphere2d"]:
        chart = manifold.builtin_chart(chart_name)
        points = verification.sample_tangent_states(chart, 8, rng, min_speed=0.3)
        for family, params in [
            ("kinetic", {}),
            ("kinetic-potential", {"U": "sin(x1) + x2^2/2"}),
            ("conformal-kinetic", {"f": "x1/2"}),
            ("fiberwise-phi", {"phi": "w^2/2 + w^4/10", "C": "exp(-x1/4)"}),
        ]:
            lag = dl.catalog_lagrangian(family, **params)
            worst = extended_fields.check_analytic_partials(
                chart, dl.momentum_field(lag), points, tol=1e-6
            )
            assert worst < 1e-6


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown Lagrangian family"):
        dl.catalog_lagrangian("parabolic")


def test_an_overflowing_conformal_lagrangian_raises_numeric_overflow():
    chart = manifold.builtin_chart("euclidean2")
    lag = dl.conformal_kinetic_lagrangian("-x1*300")
    v = np.array([1.0, 0.0])
    # e^(600 x1) overflows at x1 = 1.5; at x1 = 1 it is finite and its square is not.
    with pytest.raises(NumericOverflowError, match="conformal factor"):
        lag.value(chart, TangentPoint(np.array([1.5, 0.0]), v))
    a = dl.a_matrix(chart, lag, TangentPoint(np.array([1.0, 0.0]), v))
    with pytest.raises(NumericOverflowError, match="fiber Hessian"):
        dl._require_regular(a, "det {det} within {tol}")


_QUADRATIC = [
    ("kinetic", {}),
    ("kinetic-potential", {"U": "sin(x1) + x2^2/2"}),
    ("conformal-kinetic", {"f": "x1/2"}),
]
_FIBERWISE = ("fiberwise-phi", {"phi": "w^2/2 + w^4/10", "C": "exp(-x1/4)"})


@pytest.mark.parametrize("family,params", _QUADRATIC)
@pytest.mark.parametrize(
    "chart_name,chart_params",
    [
        ("euclidean2", {}),
        ("euclidean3", {}),
        ("polar2d", {}),
        ("sphere2d", {}),
        ("hyperbolic_half_plane", {}),
        ("conformally_flat", {"f": "x2/3"}),
    ],
)
def test_the_quadratic_pass_equals_the_separate_hooks_bit_for_bit(
    family, params, chart_name, chart_params
):
    chart = manifold.builtin_chart(chart_name, **chart_params)
    lag = dl.catalog_lagrangian(family, **params)
    rng = np.random.default_rng(17)
    for point in verification.sample_tangent_states(chart, 6, rng):
        separate = [
            extended_fields.x_partials(chart, lag.field, point),
            lag.dv(chart, point),
            extended_fields.x_partials(chart, dl.momentum_field(lag), point),
            dl.a_matrix(chart, lag, point),
        ]
        got = lag.el_terms_fn(chart, point)
        assert [term.tobytes() for term in got] == [term.tobytes() for term in separate]
        # The mixed-partials hook reads M from the pass, so M is held to its closed form too.
        mixed = force_oracle.quadratic_mixed(chart, lag.params.get("f"), point)
        assert got[2].tobytes() == mixed.tobytes()


@pytest.mark.parametrize("family,params", _QUADRATIC + [_FIBERWISE])
@pytest.mark.parametrize(
    "chart_name", ["euclidean2", "polar2d", "sphere2d", "hyperbolic_half_plane"]
)
def test_the_force_equals_the_composition_it_replaced_bit_for_bit(family, params, chart_name):
    """The catalog Lagrangian, and the same field with none of the Lagrangian's
    own hooks, so that A and M come from finite differences of its partials."""
    chart = manifold.builtin_chart(chart_name)
    lag = dl.catalog_lagrangian(family, **params)
    hookless = dl.Lagrangian(field=lag.field, family="custom", name="hookless")
    rng = np.random.default_rng(19)
    for point in verification.sample_tangent_states(chart, 6, rng, min_speed=0.3):
        for each in (lag, hookless):
            want = force_oracle.force(chart, each, point)
            assert dl.force_from_lagrangian(chart, each, point).tobytes() == want.tobytes()


@pytest.mark.parametrize("chart_name", ["polar2d", "sphere2d"])
def test_a_lagrangian_with_only_a_value_solves_with_one_finite_difference_a(chart_name):
    """With no derivative hook at all, A comes from second differences of L,
    for the solve and for grad P alike. The replaced composition took grad P's
    A from central differences of the finite-difference momentum, so the two
    forces differ at that finite-difference level, not bit for bit."""
    chart = manifold.builtin_chart(chart_name)
    lag = dl.kinetic_minus_potential("sin(x1) + x2^2/2")
    bare = dl.Lagrangian(
        field=extended_fields.ExtendedField((0, 0), "v", lag.field.eval_fn), family="custom"
    )
    rng = np.random.default_rng(23)
    for point in verification.sample_tangent_states(chart, 6, rng, min_speed=0.3):
        exact = dl.force_from_lagrangian(chart, lag, point)
        assert np.max(np.abs(dl.force_from_lagrangian(chart, bare, point) - exact)) < 1e-5
        assert np.max(np.abs(force_oracle.force(chart, bare, point) - exact)) < 1e-5


@pytest.mark.parametrize("family,params", _QUADRATIC)
def test_each_tangent_leg_reads_the_metric_partials_once_per_right_hand_side(family, params):
    calls = Counter()

    def counted(hook, key):
        def wrapped(x):
            calls[key] += 1
            return hook(x)

        return wrapped

    sphere = manifold.builtin_chart("sphere2d")
    chart = dataclasses.replace(
        sphere,
        metric_partials_fn=counted(sphere.metric_partials_fn, "metric_partials"),
        christoffel_fn=counted(sphere.christoffel_fn, "christoffel"),
    )
    lag = dl.catalog_lagrangian(family, **params)
    point = TangentPoint(np.array([1.1, 0.3]), np.array([0.4, -0.7]))
    dn.newtonian_rhs(chart, dl.lagrangian_force_field(lag), point)
    assert calls["metric_partials"] == 1
    calls.clear()
    config = dn.IntegratorConfig(method="rk4", dt=1e-3, t_span=(0.0, 3e-3))
    trajectory = dl.integrate_lagrangian(chart, lag, point, config)
    assert len(trajectory.ts) == 4
    # Four right-hand sides per rk4 step, and the classical leg never reads Gamma.
    assert calls == {"metric_partials": 12}
