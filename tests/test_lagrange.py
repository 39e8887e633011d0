"""Euler-Lagrange force extraction, residuals, and the catalog families."""

import dataclasses
import math
import warnings
from collections import Counter

import exports_oracle
import force_oracle
import numpy as np
import pytest
import rhs_oracle
from expression_strategies import TREES
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_fields import _counted

from riemdyn import dynamics_hamilton as dh
from riemdyn import dynamics_lagrange as dl
from riemdyn import dynamics_newton as dn
from riemdyn import expression, extended_fields, manifold, normal_shift, verification
from riemdyn.errors import (
    EvalDomainError,
    ForceSingularError,
    InsufficientSamplesError,
    NonConvergenceError,
    NumericOverflowError,
    SingularAError,
    SingularMetricError,
    ZeroVelocityError,
)
from riemdyn.extended_fields import CotangentPoint, TangentPoint

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
    report = exports_oracle.regularity(chart, dl.kinetic_lagrangian(), point)
    assert report.is_regular
    assert report.is_positive

    # L = |v| has a fiber Hessian that annihilates v itself.
    degenerate = dl.fiberwise_phi_lagrangian("w")
    report = exports_oracle.regularity(chart, degenerate, point)
    assert not report.is_regular


def _require_regular(a, message):
    """The singularity rule alone: _solve_regular with a zero right-hand side, whose refusals are the rule's."""
    dl._solve_regular(a.tolist(), [0.0] * len(a), message)


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
        _require_regular(m, "det {det}")
    except SingularAError:
        regular = False
    else:
        regular = True
    lag = dl.Lagrangian(
        field=dl.kinetic_lagrangian().field, family="custom", second_fiber_fn=lambda c, p: m
    )
    report = exports_oracle.regularity(manifold.euclidean(n), lag, TangentPoint(np.zeros(n), np.ones(n)))
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
    assert [leg.status for leg in legs.values()] == ["completed"] * 3
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
    xs = np.stack([np.cos(ts), np.sin(ts)], axis=1)
    vs = np.stack([-np.sin(ts), np.cos(ts)], axis=1)
    circle = dn.Trajectory(ts, xs, {"v": vs}, "completed")
    residual = dl.el_residual(chart, lag, circle)
    assert np.max(np.abs(residual)) > 0.5


@pytest.mark.parametrize("family", list(verification._SYSTEMS))
def test_el_residual_reads_each_sample_jet_once(family):
    """One jet of L per sample, whose fiber half is P, and no separate fiber-partials call."""
    chart = manifold.builtin_chart("polar2d")
    curve = verification.synthetic_curve_samples(chart, np.random.default_rng(17))
    plain = verification._system(family)
    calls = Counter()
    field = dataclasses.replace(
        plain.field,
        jet_fn=_counted(calls, "jet", plain.field.jet_fn),
        fiber_partials_fn=_counted(calls, "fiber", plain.field.fiber_partials_fn),
    )
    residual = dl.el_residual(chart, dataclasses.replace(plain, field=field), curve)
    assert calls == {"jet": len(curve.ts)} and len(curve.ts) == 61
    assert residual.tobytes() == dl.el_residual(chart, plain, curve).tobytes()


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
    ts = np.array([0.0, 0.1, 0.15, 0.4])
    xs = np.stack([ts, np.zeros(4)], axis=1)
    line = dn.Trajectory(ts, xs, {"v": np.tile([1.0, 0.0], (4, 1))}, "completed")
    with pytest.raises(InsufficientSamplesError, match="uniformly"):
        residual(chart, lag, line)


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
    assert [leg.status for leg in legs.values()] == ["completed"] * 3
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
    _require_regular(a, "det {det}")
    assert exports_oracle.regularity(chart, lag, TangentPoint(np.array([1.0, 0.0]), v)).det_a == 1.0


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
            _require_regular(a, "det {det}")
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
        _require_regular(np.array([[a]]), "det {det}")
        a *= 0.5
    with pytest.raises(SingularAError, match="det 0.0"):
        _require_regular(np.array([[a]]), "det {det}")


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
                _require_regular(a, "det {det}")
            outcomes["non-finite"] += 1
            continue
        try:
            _require_regular(a, "det {det}")
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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_float_solve_has_numpys_bits_on_diagonal_matrices(n):
    """A = e^(-2f) g of every quadratic family is diagonal on every builtin chart.

    20,000 diagonal A, entries of either sign within a factor e^3 of a scale
    from 1e-8 to 1e8, and right-hand sides with +0.0 and -0.0 among their
    entries: _solve_regular gives np.linalg.solve's bits, signed zeros included.
    """
    rng = np.random.default_rng(90 + n)
    count = 20_000
    scales = 10.0 ** rng.uniform(-8.0, 8.0, size=(count, 1))
    signs = rng.choice([-1.0, 1.0], size=(count, n))
    a = np.zeros((count, n, n))
    a[:, range(n), range(n)] = scales * signs * np.exp(rng.uniform(-3.0, 3.0, size=(count, n)))
    b = rng.normal(size=(count, n))
    b[rng.random(size=b.shape) < 0.1] = 0.0
    b[rng.random(size=b.shape) < 0.1] = -0.0
    want = np.linalg.solve(a, b[..., None])[..., 0]
    got = [dl._solve_regular(rows, column, "det {det}") for rows, column in zip(a.tolist(), b.tolist())]
    assert np.array(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2, 3])
def test_the_metric_contractions_have_einsums_bits(n):
    """On dense dg, as a metric that is not diagonal has, with zero and signed-zero
    entries: s has np.einsum("kjq,k,j->q")'s bits and dgy np.einsum("kjq,j->kq")'s,
    and with a non-finite y no term is skipped."""
    rng = np.random.default_rng(60 + n)
    for trial in range(2000):
        dg = rng.normal(size=(n, n, n))
        dg[rng.random(size=dg.shape) < 0.3] = 0.0
        dg[rng.random(size=dg.shape) < 0.1] = -0.0
        y = rng.normal(size=n)
        y[rng.random(size=n) < 0.2] = -0.0
        if trial % 10 == 0:
            y[rng.integers(n)] = math.inf
        s, dgy = extended_fields._metric_contractions(dg.tolist(), y.tolist())
        with np.errstate(invalid="ignore"):
            want_s = np.einsum("kjq,k,j->q", dg, y, y)
            want_dgy = np.einsum("kjq,j->kq", dg, y)
        assert np.array(s).tobytes() == want_s.tobytes()
        assert np.array(dgy).tobytes() == want_dgy.tobytes()


# The fiberwise A = T'' Q + (T'/|v|) P against np.linalg.solve: over the
# 20,000 draws of the test below, the worst gap relative to the largest
# entry of the solution was 2.2e-15 at n = 2 and 3.0e-15 at n = 3 (about
# a third and about three fifths of the draws moved), where numpy's kernel
# fuses multiplies and adds that the LU rounds apart. The bound is about
# 5 times the larger.
_FIBERWISE_SOLVE_GAP = 1.5e-14


@pytest.mark.parametrize("n", [2, 3])
def test_the_float_solve_agrees_with_numpy_on_fiberwise_hessians(n):
    """A from normal_shift._a_from on a diagonal g, v normal, T' within e of 1
    and T''/(T'/|v|) within e^2 of 1, so that A is symmetric positive definite."""
    rng = np.random.default_rng(95 + n)
    rows, columns = [], []
    for _ in range(20_000):
        g = np.exp(rng.uniform(-1.0, 1.0, size=n))
        v = rng.normal(size=n)
        v_low = (g * v).tolist()
        w = math.sqrt(float(v @ (g * v)))
        d1 = math.exp(rng.uniform(-1.0, 1.0))
        d2 = d1 / w * math.exp(rng.uniform(-2.0, 2.0))
        rows.append(normal_shift._a_from(np.diag(g).tolist(), v_low, w, d2, d1))
        columns.append(rng.normal(size=n).tolist())
    want = np.linalg.solve(np.array(rows), np.array(columns)[..., None])[..., 0]
    got = np.array([dl._solve_regular(a, b, "det {det}") for a, b in zip(rows, columns)])
    gap = np.max(np.abs(got - want), axis=1) / np.max(np.abs(want), axis=1)
    assert np.max(gap) <= _FIBERWISE_SOLVE_GAP


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_elimination_det_is_numpys_det_of_the_normalised_matrix(n):
    """The pivots' det(A / |A|_max), sign included, for general A, rows swapped or not."""
    rng = np.random.default_rng(85 + n)
    swapped = 0
    for _ in range(2000):
        a = rng.normal(size=(n, n))
        scale = float(np.max(np.abs(a)))
        want = float(np.linalg.det(a / scale))
        assert exports_oracle.hessian_det(a) == pytest.approx(want, rel=1e-12, abs=1e-15), a.tolist()
        swapped += n > 1 and abs(a[0, 0]) < np.max(np.abs(a[:, 0]))
    assert n == 1 or swapped > 500


def _refusal(call):
    """None, or the type and message of what call raises."""
    try:
        call()
    except (SingularAError, NumericOverflowError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_float_solve_refuses_as_require_regular_does(n):
    """The same refusals, error classes and det in the message, whatever the
    right-hand side: every kind of M at every scale, and the drawn matrices of
    the refusal test above, NaN and infinite entries among them."""
    scales = [10.0**k for k in range(-8, 9)] + [3.3e-7, 7.1e5]
    matrices = [c * np.array(m) for _, m in _KINDS_OF_M[n] for c in scales]
    rng = np.random.default_rng(70 + n)
    specials = [math.nan, math.inf, -math.inf, 0.0, 1.0, 1e-6]
    for _ in range(1000):
        a = rng.normal(size=(n, n))
        if rng.random() < 0.3:
            a[rng.integers(n)] = 2.0 * a[rng.integers(n)]
        for index in rng.choice(n * n, rng.integers(0, n * n + 1), replace=False):
            a.flat[index] = specials[rng.integers(len(specials))]
        matrices.append(a)
    outcomes = Counter()
    message = "fiber Hessian is singular (det {det:.3e})"
    for a in matrices:
        want = _refusal(lambda: _require_regular(a, message))
        assert _refusal(lambda: dl._solve_regular(a.tolist(), [1.0] * n, message)) == want, a.tolist()
        outcomes[want[0].__name__ if want else "solved"] += 1
    assert min(outcomes[k] for k in ("NumericOverflowError", "SingularAError", "solved")) >= 15, outcomes


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
            _require_regular(np.array(a), "det {det}")


def test_a_fiber_hessian_whose_elimination_overflows_raises_numeric_overflow():
    """Finite entries near the float maximum: 1.7e308 + 1.7e308 overflows in the
    elimination, so its det is not finite, and the rule and the solve both refuse."""
    a = np.array([[1.7e308, 1.7e308], [-1.7e308, 1.7e308]])
    with pytest.raises(NumericOverflowError, match="elimination overflows"):
        _require_regular(a, "det {det}")
    with pytest.raises(NumericOverflowError, match="elimination overflows"):
        dl._solve_regular(a.tolist(), [1.0, 1.0], "det {det}")


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
        ("conformally_flat", {"dim": 3, "f": "x2/3"}),
    ],
)
def test_the_quadratic_pass_equals_the_separate_hooks_bit_for_bit(
    family, params, chart_name, chart_params
):
    """The float pass's lists equal, bit for bit, the separate hooks and the
    numpy pass it replaced (tests/rhs_oracle.py), entry by entry."""
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
        got = [np.array(term).tobytes() for term in lag.el_terms_fn(chart, point)]
        assert got == [term.tobytes() for term in separate]
        assert got == [term.tobytes() for term in rhs_oracle.el_terms(chart, lag, point)]
        momentum_dx = extended_fields.x_partials(chart, dl.momentum_field(lag), point)
        assert momentum_dx.tobytes() == mixed.tobytes()


# The fiberwise force against numpy's solve: relative to the largest entry,
# the worst gap over 2,048 states (seeds 1 to 5 and 19) on these four charts
# was 3.2e-16, for the catalog Lagrangian and the hookless one alike. The
# bound is about 6 times that.
_FIBERWISE_FORCE_GAP = 2e-15


@pytest.mark.parametrize("family,params", _FAMILIES)
@pytest.mark.parametrize(
    "chart_name", ["euclidean2", "polar2d", "sphere2d", "hyperbolic_half_plane"]
)
def test_the_force_equals_the_composition_it_replaced_bit_for_bit(family, params, chart_name):
    """The catalog Lagrangian, and the same field with none of the Lagrangian's
    own hooks, so that A and M come from finite differences of its partials.
    The fiberwise A is a general symmetric matrix, where _solve_regular's LU
    may round otherwise than numpy's solve: those rows are held to
    _FIBERWISE_FORCE_GAP relative to the largest entry, every other row to its bits."""
    chart = manifold.builtin_chart(chart_name)
    lag = dl.catalog_lagrangian(family, **params)
    hookless = dl.Lagrangian(field=lag.field, family="custom", name="hookless")
    rng = np.random.default_rng(19)
    for point in verification.sample_tangent_states(chart, 6, rng, min_speed=0.3):
        for each in (lag, hookless):
            want = force_oracle.force(chart, each, point)
            got = dl.force_from_lagrangian(chart, each, point)
            if family == "fiberwise-phi":
                assert np.max(np.abs(got - want)) <= _FIBERWISE_FORCE_GAP * np.max(np.abs(want))
            else:
                assert got.tobytes() == want.tobytes()


# Every builtin chart, conformally_flat in dimensions 2 and 3, and a rescale by f of polar2d.
_ORACLE_CHARTS = {
    "euclidean2": lambda: manifold.builtin_chart("euclidean2"),
    "euclidean3": lambda: manifold.builtin_chart("euclidean3"),
    "polar2d": lambda: manifold.builtin_chart("polar2d"),
    "sphere2d": lambda: manifold.builtin_chart("sphere2d"),
    "hyperbolic_half_plane": lambda: manifold.builtin_chart("hyperbolic_half_plane"),
    "conformally_flat2": lambda: manifold.builtin_chart("conformally_flat", f="x2/3"),
    "conformally_flat3": lambda: manifold.builtin_chart("conformally_flat", dim=3, f="x2/3"),
    "polar2d_rescaled": lambda: manifold.conformal_rescale(manifold.builtin_chart("polar2d"), "x1/4"),
}


# The classical right-hand side against its numpy composition, where they
# may round apart: relative to the largest entry of the oracle's vdot, the
# worst gap over 200 states (seeds 0 to 4) of each family on each chart of
# _ORACLE_CHARTS was 7.4e-16. The bound is about 5 times that.
_CLASSICAL_RHS_GAP = 4e-15


@pytest.mark.parametrize("family,params", _FAMILIES)
@pytest.mark.parametrize("chart_name", list(_ORACLE_CHARTS))
def test_the_classical_rhs_equals_the_numpy_composition(family, params, chart_name):
    """Bit for bit where A is diagonal and no row of M v sums two non-zero
    products, as for the kinetic and kinetic-potential families on every chart
    here; elsewhere numpy's M @ v and solve fuse a multiply and an add that the
    float pass rounds apart, and the gap is held to _CLASSICAL_RHS_GAP: the
    fiberwise family, and conformal-kinetic where f and the metric vary along
    different coordinates."""
    chart = _ORACLE_CHARTS[chart_name]()
    lag = dl.catalog_lagrangian(family, **params)
    got_rhs, want_rhs = dl._classical_rhs(chart, lag), rhs_oracle.classical_rhs(chart, lag)
    rng = np.random.default_rng(31)
    for point in verification.sample_tangent_states(chart, 6, rng, min_speed=0.3):
        y = np.concatenate([point.x, point.v])
        got, want = got_rhs(0.0, y), want_rhs(0.0, y)
        mixed = rhs_oracle.el_terms(chart, lag, point)[2]
        fused = family == "fiberwise-phi" or np.count_nonzero(mixed * point.v, axis=1).max() > 1
        assert not (fused and family in ("kinetic", "kinetic-potential"))
        if fused:
            vdot = want[chart.dim :]
            assert np.max(np.abs(got - want)) <= _CLASSICAL_RHS_GAP * np.max(np.abs(vdot))
        else:
            assert got.tobytes() == want.tobytes()


def test_no_route_calls_numpys_solve(monkeypatch):
    """The classical leg, the force of the Newtonian leg and the Legendre
    inverse's Newton steps all solve with _solve_regular."""

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.solve was called")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    chart = manifold.builtin_chart("polar2d")
    config = dn.IntegratorConfig(method="rk4", dt=1e-3, t_span=(0.0, 0.02))
    q0 = TangentPoint(*verification._STARTS["polar2d"])
    for family, lag in verification._systems():
        assert dl.integrate_lagrangian(chart, lag, q0, config).status == "completed"
        assert dn.integrate(chart, dl.lagrangian_force_field(lag), q0, config).status == "completed"
        ctx = dh.LegendreContext(lag)
        state = dh.legendre_forward(ctx, chart, q0)
        v = dh.legendre_inverse(ctx, chart, CotangentPoint(state.x, 1.5 * state.p)).v
        assert ctx.last_iterations > 0 or family in ("kinetic", "kinetic-potential"), family
        assert np.max(np.abs(lag.dv(chart, TangentPoint(q0.x, v)) - 1.5 * state.p)) <= 1e-12


# The three right-hand sides at random states of random Lagrangians: over
# 3,000 draws of the test below the worst relative gap was 6.5e-14, in dH/dp
# against v; the classical and Newtonian accelerations differed by at most
# 1.1e-14. The tolerance is about 15 times the worst.
_THREE_RHS_TOL = 1e-12

# Where the drawn expressions refuse a state: a domain error or an overflow
# in an expression, C(x) <= 0, a singular A, or a phi' inversion that fails.
_REFUSALS = (EvalDomainError, NumericOverflowError, SingularAError, ForceSingularError, NonConvergenceError)


def _gap(got, want, *scales):
    """|got - want|_inf relative to the largest |want|_inf and |scale|_inf; 0.0 where got equals want."""
    gap = float(np.max(np.abs(got - want)))
    return gap and gap / max(float(np.max(np.abs(s))) for s in (want, *scales))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.sampled_from(["kinetic-potential", "conformal-kinetic", "fiberwise-phi"]),
    TREES,
    st.sampled_from(["euclidean2", "polar2d", "sphere2d", "hyperbolic_half_plane", "conformally_flat2"]),
    st.integers(0, 2**32 - 1),
)
def test_the_three_right_hand_sides_agree_on_random_lagrangians(family, root, chart_name, seed):
    """A drawn expression e is U, f = e/4 or C = exp(e/5) of its family, at a state drawn
    in the chart's sample box. The classical acceleration equals that of the family's
    own Newtonian force in FAMILIES, which reads Gamma, where lagrangian_force_field
    would cancel it; and at p = lambda(x, v) hamilton_rhs's dx/dt is v and its dp/dt,
    -dH/dx, is M v + A vdot. A state is assumed away only where the package refuses it,
    where a result is not finite, or where |p|_inf is outside (1e-150, 1e150): there
    p . dg^-1 . p underflows or overflows before the closed-form H's factor e^(2f) scales it."""
    source = expression._unparse(root)
    params = {"U": source} if family == "kinetic-potential" else {"f": f"({source})/4"}
    if family == "fiberwise-phi":
        params = {"phi": "w^2/2 + w^4/10", "C": f"exp(({source})/5)"}
    chart = _ORACLE_CHARTS[chart_name]()
    point = verification.sample_tangent_states(chart, 1, np.random.default_rng(seed), min_speed=0.3)[0]
    y = np.concatenate([point.x, point.v])
    try:
        lag = dl.catalog_lagrangian(family, **params)
        classical = dl._classical_rhs(chart, lag)(0.0, y)[2:]
        newtonian = dn._flat_rhs(chart, dl.FAMILIES[family][2](lag))(0.0, y)[2:]
        p = lag.dv(chart, point)
        ham = dh.hamiltonian_from_lagrangian(dh.LegendreContext(lag))
        dx, dp = dh.hamilton_rhs(chart, ham, CotangentPoint(point.x, p))
        dldx, _, mixed, a = dl._el_terms(chart, lag, point)
    except _REFUSALS:
        assume(False)
    assume(1e-150 < np.max(np.abs(p)) < 1e150)
    assume(all(np.all(np.isfinite(t)) for t in (classical, newtonian, dx, dp, mixed, a)))
    assert _gap(classical, newtonian) <= _THREE_RHS_TOL
    assert _gap(dx, point.v) <= _THREE_RHS_TOL
    assert _gap(dp, mixed @ point.v + a @ classical, mixed @ point.v, dldx) <= _THREE_RHS_TOL


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


def test_the_fiberwise_pass_forms_its_modulus_and_profile_derivatives_once(monkeypatch):
    """One |v| and one T'' and T' per right-hand side, A included, and one |v| per sample."""
    calls = Counter()
    for module, name in ((expression, "evaluate_fiber"), (manifold, "speed")):

        def counted(*args, _name=name, _hook=getattr(module, name)):
            calls[_name] += 1
            return _hook(*args)

        monkeypatch.setattr(module, name, counted)
    chart = manifold.builtin_chart("polar2d")
    q0 = TangentPoint(np.array([1.5, 0.2]), np.array([0.2, 0.5]))
    config = dn.IntegratorConfig(method="rk4", dt=1e-3, t_span=(0.0, 1.0), record_every=10)
    trajectory = dl.integrate_lagrangian(chart, verification._system("fiberwise-phi"), q0, config)
    assert trajectory.status == "completed" and len(trajectory.ts) == 101
    # 1,000 rk4 steps of four right-hand sides each.
    assert calls == {"evaluate_fiber": 8000, "speed": 4101}


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
    dn._flat_rhs(chart, dl.lagrangian_force_field(lag))(0.0, np.concatenate([point.x, point.v]))
    assert calls["metric_partials"] == 1
    calls.clear()
    config = dn.IntegratorConfig(method="rk4", dt=1e-3, t_span=(0.0, 3e-3))
    trajectory = dl.integrate_lagrangian(chart, lag, point, config)
    assert len(trajectory.ts) == 4
    # Four right-hand sides per rk4 step, and the classical leg never reads Gamma.
    assert calls == {"metric_partials": 12}
