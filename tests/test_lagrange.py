"""Euler-Lagrange force extraction, residuals, and the catalog families."""

import dataclasses
import math
import warnings
from collections import Counter

import exports_oracle
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
    SingularMetricError,
    ZeroVelocityError,
)
from riemdyn.extended_fields import CurveSample, TangentPoint

_FAMILIES = list(verification._SYSTEMS.items())


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


# What c M gets for every c, by kind of M: (metric_at accepts it as a metric,
# _require_regular accepts it as a fiber Hessian, regularity's is_regular, is_positive).
_DECISIONS = {
    "singular": (False, False, False, False),
    "nearly singular": (False, False, False, False),
    "regular": (True, True, True, True),
    "indefinite": (False, True, True, False),
}
_E15 = math.exp(-15.0)  # A / I of conformal-kinetic, f = 5 x1, at x1 = 1.5 (see the three-leg test)
_KINDS_OF_M = {
    1: [
        ("singular", [[0.0]]),
        ("regular", [[_E15]]),
        ("regular", [[2.0]]),
        ("indefinite", [[-1.5]]),
    ],
    2: [
        ("singular", [[1.0, 2.0], [2.0, 4.0]]),
        ("nearly singular", [[1.0, 1.0], [1.0, 1.0 + 1e-14]]),
        ("regular", [[_E15, 0.0], [0.0, _E15]]),
        ("regular", [[2.0, 0.5], [0.5, 1.0]]),
        ("regular", [[1.0, 1.0], [1.0, 1.0 + 1e-10]]),
        ("indefinite", [[1.0, 2.0], [2.0, 1.0]]),
    ],
    3: [
        ("singular", [[1.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 1.0]]),
        ("nearly singular", [[2.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0 + 1e-14]]),
        ("regular", [[_E15, 0.0, 0.0], [0.0, _E15, 0.0], [0.0, 0.0, _E15]]),
        ("regular", [[3.0, 0.5, 0.2], [0.5, 2.0, 0.1], [0.2, 0.1, 1.0]]),
        ("indefinite", [[1.0, 0.3, 0.0], [0.3, -2.0, 0.1], [0.0, 0.1, 0.5]]),
    ],
}


def _decisions(m):
    """(metric_at, _require_regular, is_regular, is_positive) for the matrix m."""
    n = m.shape[0]
    chart = manifold.ManifoldChart(name="scaled", dim=n, metric_fn=lambda x: m)
    try:
        manifold.metric_at(chart, np.zeros(n))
    except SingularMetricError:
        metric = False
    else:
        metric = True
    try:
        dl._require_regular(m, "det {det}")
    except SingularAError:
        regular = False
    else:
        regular = True
    lag = dl.Lagrangian(
        field=dl.kinetic_lagrangian().field, family="custom", second_fiber_fn=lambda c, p: m
    )
    report = dl.regularity(manifold.euclidean(n), lag, TangentPoint(np.zeros(n), np.ones(n)))
    return metric, regular, report.is_regular, report.is_positive


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_matrix_and_its_multiples_get_one_decision(n):
    """det(c M) = c^n det M, so the rule reads M / |M|_max: every route decides
    c M as it decides M, for c from 1e-8 to 1e8."""
    scales = [10.0**k for k in range(-8, 9)] + [3.3e-7, 7.1e5]
    for kind, m in _KINDS_OF_M[n]:
        m = np.array(m)
        for c in scales:
            assert _decisions(c * m) == _DECISIONS[kind], (kind, m.tolist(), c)


def test_the_three_legs_agree_where_the_fiber_hessian_is_small():
    """conformal-kinetic with f = 5 x1 from x1 = 1.5 on euclidean2: A = e^(-15) I is
    small and perfectly conditioned, and all three legs run it to the end."""
    chart = manifold.builtin_chart("euclidean2")
    lag = dl.conformal_kinetic_lagrangian("x1*5")
    q0 = TangentPoint(np.array([1.5, 0.0]), np.array([0.3, 0.2]))
    config = dn.IntegratorConfig(method="rk4", dt=1e-3, t_span=(0.0, 1.0), record_every=10)
    legs = verification.three_legs(chart, lag, q0, config)
    assert [leg.trajectory.status for leg in legs.values()] == ["completed"] * 3
    for pair, gap in verification.leg_gaps(legs).items():
        assert gap <= verification.THREEWAY_TOL, (pair, gap)


@pytest.mark.parametrize("family,params", _FAMILIES)
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
    """Plain-coordinate integration must match the family's own force and the canonical route."""
    chart = manifold.builtin_chart(chart_name)
    lag = dl.catalog_lagrangian(family, **params)
    rng = np.random.default_rng(11)
    q0 = verification.sample_tangent_states(chart, 1, rng, min_speed=0.3)[0]
    config = dn.IntegratorConfig(method="rk4", dt=1e-3, t_span=(0.0, 0.5), record_every=5)
    legs = verification.three_legs(chart, lag, q0, config)
    assert [leg.trajectory.status for leg in legs.values()] == ["completed"] * 3
    assert max(verification.leg_gaps(legs).values()) < 1e-9


def test_momentum_field_analytic_hooks():
    """Hand-coded momentum partials must match finite differences."""
    rng = np.random.default_rng(3)
    for chart_name in ["polar2d", "sphere2d"]:
        chart = manifold.builtin_chart(chart_name)
        points = verification.sample_tangent_states(chart, 8, rng, min_speed=0.3)
        for family, params in _FAMILIES:
            lag = dl.catalog_lagrangian(family, **params)
            worst = exports_oracle.check_analytic_partials(
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
    # e^(600 x1) overflows at x1 = 1.5. At x1 = 1, A = e^600 I is as regular as I.
    with pytest.raises(NumericOverflowError, match="conformal factor"):
        lag.value(chart, TangentPoint(np.array([1.5, 0.0]), v))
    a = dl.a_matrix(chart, lag, TangentPoint(np.array([1.0, 0.0]), v))
    assert a[0, 0] == pytest.approx(math.exp(600.0))
    dl._require_regular(a, "det {det}")
    assert dl.regularity(chart, lag, TangentPoint(np.array([1.0, 0.0]), v)).det_a == 1.0


def _near_the_tolerance(n, m, sign, ulps):
    """A with det(A / |A|_max) = sign * 1e-12, A's last entry nudged by ulps ulps.

    A[0, 0] = 2 m is the largest entry, so the normalisation is known before
    the last entry is solved for; the nudges move det(A / 2 m) by about eps each.
    """
    rng = np.random.default_rng(80 + n)
    a = m * rng.uniform(-1.0, 1.0, size=(n, n))
    a[0, 0] = 2.0 * m
    a[-1, -1] = 0.0
    rest = float(np.linalg.det(a))
    cofactor = float(np.linalg.det(a[:-1, :-1]))
    a[-1, -1] = (sign * 1e-12 * (2.0 * m) ** n - rest) / cofactor
    toward = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        a[-1, -1] = math.nextafter(a[-1, -1], toward)
    return a


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m", [1.0, 3.7e-5, 2.9e4])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_require_regular_crosses_its_tolerance_once(n, m, sign):
    refused = []
    for ulps in range(-40, 41):
        a = _near_the_tolerance(n, m, sign, ulps)
        try:
            dl._require_regular(a, "det {det}")
        except SingularAError:
            refused.append(True)
        else:
            refused.append(False)
    # The nudges straddle the tolerance: det(A / |A|_max) crosses it once.
    assert True in refused and False in refused
    assert refused == sorted(refused) or refused == sorted(refused, reverse=True)


@pytest.mark.parametrize("m", [1.0, 3.7e-5, 2.9e4])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_a_one_by_one_fiber_hessian_is_singular_only_at_zero(m, sign):
    """det(A / |A|_max) of a 1 x 1 A is +-1 or 0, so the halvings of sign * m are
    regular down to the least subnormal, and only the 0 they underflow to is refused."""
    a = sign * m
    while a != 0.0:
        dl._require_regular(np.array([[a]]), "det {det}")
        a *= 0.5
    with pytest.raises(SingularAError, match="det 0.0"):
        dl._require_regular(np.array([[a]]), "det {det}")


def _numpy_route_det(a):
    """det(A / |A|_max) as np.linalg.det and numpy's max give it; 0.0 for a zero A."""
    scale = float(np.max(np.abs(a)))
    return 0.0 if scale == 0.0 else float(np.linalg.det(a / scale))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_require_regular_refuses_what_the_numpy_route_refuses(n):
    """Singular matrices and zero entries anywhere; NaN and infinite entries raise NumericOverflowError.

    For n <= 2 the rule reads the closed form, which rounds differently from
    numpy's LU factors and sign * exp(log |det|); within 1e-15 of the
    tolerance (the entries of A / |A|_max are at most 1) either decision
    stands. For n = 3 the rule is np.linalg.det(A / |A|_max) itself.
    """
    rng = np.random.default_rng(70 + n)
    specials = [math.nan, math.inf, -math.inf, 0.0, 1.0, 1e-6]
    outcomes = Counter()
    for _ in range(1000):
        a = rng.normal(size=(n, n))
        if rng.random() < 0.3:
            a[rng.integers(n)] = 2.0 * a[rng.integers(n)]
        for index in rng.choice(n * n, rng.integers(0, n * n + 1), replace=False):
            a.flat[index] = specials[rng.integers(len(specials))]
        if not np.all(np.isfinite(a)):
            with pytest.raises(NumericOverflowError, match="non-finite entry"):
                dl._require_regular(a, "det {det}")
            outcomes["non-finite"] += 1
            continue
        try:
            dl._require_regular(a, "det {det}")
        except SingularAError:
            refuses = True
        else:
            refuses = False
        det = _numpy_route_det(a)
        if n <= 2 and abs(abs(det) - 1e-12) <= 1e-15:
            outcomes["tie"] += 1
            continue
        assert refuses == (abs(det) <= 1e-12), a.tolist()
        outcomes["singular" if refuses else "regular"] += 1
    assert min(outcomes[k] for k in ("non-finite", "singular", "regular")) >= 15, outcomes


@pytest.mark.parametrize(
    "a",
    [
        [[math.nan, 1.0], [1.0, 1.0]],
        [[math.nan, 0.0], [0.0, 1.0]],
        [[math.inf, 0.0], [0.0, 1.0]],
        [[1.0, 0.0, 0.0], [0.0, -math.inf, 0.0], [0.0, 0.0, math.nan]],
    ],
)
def test_a_non_finite_fiber_hessian_raises_numeric_overflow(a):
    """One refusal for every layout, before np.linalg.det could warn or decide."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericOverflowError, match="non-finite entry"):
            dl._require_regular(np.array(a), "det {det}")


_QUADRATIC = _FAMILIES[:3]


@pytest.mark.parametrize("family,params", _FAMILIES)
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
        # M has no hook besides the pass, so it is held to the oracle's closed form.
        mixed = force_oracle.mixed(chart, lag, point)
        separate = [
            extended_fields.x_partials(chart, lag.field, point),
            lag.dv(chart, point),
            mixed,
            dl.a_matrix(chart, lag, point),
        ]
        got = lag.el_terms_fn(chart, point)
        assert [term.tobytes() for term in got] == [term.tobytes() for term in separate]
        momentum_dx = extended_fields.x_partials(chart, dl.momentum_field(lag), point)
        assert momentum_dx.tobytes() == mixed.tobytes()


@pytest.mark.parametrize("family,params", _FAMILIES)
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
