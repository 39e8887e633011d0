"""Legendre maps, closed-form Hamiltonians, and the canonical equations."""

import dataclasses
import math
import pathlib
import re
from collections import Counter

import exports_oracle
import force_oracle
import guess_oracle
import h_jet_oracle
import legendre_oracle
import numpy as np
import phi_inverse_oracle
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from expression_strategies import W_TREES
from test_lagrange import _ORACLE_CHARTS

from riemdyn import dynamics_hamilton as dh
from riemdyn import dynamics_lagrange as dl
from riemdyn import dynamics_newton as dn
from riemdyn import expression, manifold, normal_shift, verification
from riemdyn import extended_fields as ef
from riemdyn.errors import EvalDomainError, NonConvergenceError, NumericOverflowError
from riemdyn.extended_fields import CotangentPoint, TangentPoint

_FAMILIES = list(verification._SYSTEMS.items())


@pytest.mark.parametrize("family,params", _FAMILIES)
@pytest.mark.parametrize("chart_name", ["polar2d", "sphere2d"])
def test_identity_suite_per_family(family, params, chart_name):
    chart = manifold.builtin_chart(chart_name)
    ctx = dh.LegendreContext(dl.catalog_lagrangian(family, **params))
    rng = np.random.default_rng(23)
    points = verification.sample_tangent_states(chart, 10, rng, min_speed=0.3)
    report = dh.identity_suite(ctx, chart, points)
    assert report.points_checked == 10
    assert set(report.residuals) == {
        "duality_gradient_commutation",
        "fiber_chain_rule",
        "spatial_chain_rule",
        "velocity_from_momentum_gradient",
        "dual_energy",
        "opposite_spatial_gradients",
    }
    assert max(report.residuals.values()) < 1e-6


def test_legendre_inverse_conformal_oracle():
    # L = (1/2) exp(-2 x1) |v|^2 on the flat chart gives p = exp(-2 x1) v,
    # so the inverse map is v = exp(2 x1) p exactly.
    chart = manifold.builtin_chart("euclidean2")
    ctx = dh.LegendreContext(dl.fiberwise_phi_lagrangian("w^2/2", "exp(-x1)"))
    x = np.array([0.7, -0.2])
    p = np.array([0.4, 0.1])
    q = dh.legendre_inverse(ctx, chart, CotangentPoint(x, p))
    assert np.max(np.abs(q.v - np.exp(1.4) * p)) < 1e-12


@pytest.mark.parametrize("family,params", _FAMILIES)
def test_legendre_roundtrip(family, params):
    chart = manifold.builtin_chart("polar2d")
    ctx = dh.LegendreContext(dl.catalog_lagrangian(family, **params))
    rng = np.random.default_rng(31)
    for q in verification.sample_tangent_states(chart, 10, rng, min_speed=0.3):
        state = dh.legendre_forward(ctx, chart, q)
        back = dh.legendre_inverse(ctx, chart, state)
        assert np.max(np.abs(back.v - q.v)) < 1e-9


def _legendre_tol(p):
    """The tolerance legendre_inverse hands the cold-start walk."""
    return dh._NEWTON_TOLERANCE * max(1.0, float(np.max(np.abs(p))))


def _recording(lag, seen):
    """lag with its fiber hooks wrapped to append (hook, the bytes of the velocity) to seen at each call."""

    def wrap(kind, hook):
        def recorded(chart, point):
            seen.append((kind, point.v.tobytes()))
            return hook(chart, point)

        return recorded

    field = dataclasses.replace(lag.field, fiber_partials_fn=wrap("dv", lag.field.fiber_partials_fn))
    return dataclasses.replace(lag, field=field, second_fiber_fn=wrap("A", lag.second_fiber_fn))


def _walk(lag, chart, x, p, tol):
    """(velocity, residual, velocities tried) of the cold-start walk from g^-1 p, each
    residual dL/dv - p read through Lagrangian.dv, which is legendre_inverse's residual."""
    tried = []

    def residual(v):
        tried.append(np.array(v).tobytes())
        return (lag.dv(chart, TangentPoint(x, v)) - p).tolist()

    walk, r = dh._default_velocity_guess(manifold.raise_index(chart, x, p).tolist(), residual, tol)
    return walk, r, tried


def _guess_both_ways(ctx, chart, x, p, tol):
    """(walk, scan, velocities the walk tried) for one cold start with tolerance tol.

    The walk's residual must be dL/dv - p at its velocity, bit for bit, or
    None with the raw g^-1 p.
    """
    walk, r, tried = _walk(ctx.lagrangian, chart, x, p, tol)
    if r is None:
        assert np.array_equal(walk, manifold.raise_index(chart, x, p))
    else:
        assert np.array_equal(r, ctx.lagrangian.dv(chart, TangentPoint(x, walk)) - p)
    return walk, guess_oracle.default_velocity_guess(ctx, chart, x, p), tried


# -1 never stops early; None stands for the tolerance legendre_inverse passes.
_WALK_TOLS = pytest.mark.parametrize("tol", [-1.0, None], ids=["full-walk", "early-stop"])


@_WALK_TOLS
@pytest.mark.parametrize("seed", [0, 1])
def test_cold_start_walk_picks_the_scan_scale_on_the_legendre_suite_states(seed, tol):
    """Every state the legendre suite draws, in its order, for each family and chart."""
    rng = np.random.default_rng(seed)
    total_tried = 0
    for name in verification._IDENTITY_CHARTS:
        chart = manifold.builtin_chart(name)
        for family, lag in verification._systems():
            ctx = dh.LegendreContext(lag)
            for q in verification.sample_tangent_states(chart, 100, rng, min_speed=0.3):
                image = dh.legendre_forward(ctx, chart, q)
                walk_tol = _legendre_tol(image.p) if tol is None else tol
                walk, scan, tried = _guess_both_ways(ctx, chart, image.x, image.p, walk_tol)
                assert np.array_equal(walk, scan), (family, name, q.x, q.v)
                assert len(set(tried)) == len(tried)
                if tol is None and family in ("kinetic", "kinetic-potential"):
                    assert len(tried) == 1  # scale 1 already solves
                total_tried += len(tried)
    assert total_tried < (3 if tol is None else 5) * 1200  # 21 * 1200 for the scan


_QUARTIC = dl.fiberwise_phi_lagrangian("w^2/2 + w^4/10")


@_WALK_TOLS
@pytest.mark.parametrize(
    "lag,p,index",
    [
        # phi'(s |p|) / |p| = s + 0.4 s^3 |p|^2 reaches 1 at s = 4.6e-3, below the grid:
        # the walk steps on past its end, 1e-2, to 10^-2.4 (index -2), where the scan stops.
        (_QUARTIC, [3e3, -4e3], -2),
        # s e^(-2f) reaches 1 at s = e^6 = 403, above the grid: 10^2.6 (index 23).
        (dl.conformal_kinetic_lagrangian("3"), [0.3, 0.4], 23),
        # |v| = 5e-9 s is at or below the zero-velocity floor 1e-8 up to s = 2: a refused start.
        (_QUARTIC, [5e-9, 0.0], 12),
        # |v| is below the floor at every scale of the grid, and the walk stops at the first
        # refused scale past either end: the raw g^-1 p.
        (_QUARTIC, [1e-12, 0.0], None),
        (_QUARTIC, [0.0, 0.0], None),
        # dL/dv(g^-1 p) = p: scale 1 solves.
        (dl.kinetic_lagrangian(), [0.3, 0.4], 10),
    ],
)
def test_cold_start_walk_edge_cases(lag, p, index, tol):
    """On the grid the walk picks the scan's scale; past it, a scale of smaller residual."""
    chart = manifold.builtin_chart("euclidean2")
    ctx = dh.LegendreContext(lag)
    x, p = np.array([0.3, -0.2]), np.array(p)
    tol = _legendre_tol(p) if tol is None else tol
    walk, scan, tried = _guess_both_ways(ctx, chart, x, p, tol)
    assert len(set(tried)) == len(tried)
    want = p if index is None else dh._guess_scale(index) * p
    assert np.array_equal(walk, want)
    if index is None or 0 <= index < len(dh._GUESS_SCALES):
        assert np.array_equal(walk, scan)
    else:
        residual = ctx.lagrangian.dv(chart, TangentPoint(x, walk)) - p
        assert np.max(np.abs(residual)) < np.max(np.abs(ctx.lagrangian.dv(chart, TangentPoint(x, scan)) - p))


def test_the_walk_past_the_grid_keeps_the_grids_ratio_and_stops_at_the_float_range():
    """Scales past the grid are 10^((i - 10)/5); where the power overflows or rounds to 0
    there is no scale, and a residual that falls at every scale stops the walk there."""
    grid = dh._GUESS_SCALES
    assert len(grid) == 21 and grid[dh._GUESS_START] == 1.0
    assert [dh._guess_scale(i) for i in range(21)] == grid
    assert dh._guess_scale(21) == 10.0**2.2 and dh._guess_scale(-1) == 10.0**-2.2
    assert dh._guess_scale(10 + 5 * 309) is None and dh._guess_scale(10 - 5 * 330) is None
    seen = []

    def residual(v):  # falls as the scale grows, never refused
        seen.append(v[0])
        return [1.0 / (1.0 + abs(v[0]))]

    v, r = dh._default_velocity_guess([1.0], residual, -1.0)
    assert seen == sorted(seen) and len(seen) == len(set(seen))
    assert v == [dh._guess_scale(10 + 1541)] == [max(seen)] and dh._guess_scale(10 + 1542) is None
    assert r == [1.0 / (1.0 + v[0])]


@pytest.mark.parametrize(
    "family,params,scales,iterations",
    [
        # The walk stops at scale 1, and Newton returns it with 0 iterations.
        ("kinetic", {}, 1, 0),
        ("kinetic-potential", {"U": "sin(x1) + x2^2/2"}, 1, 0),
        # s e^(-1.1) is nearest 1 at s = 10^0.4; the walk tries 1, 10^0.2,
        # 10^0.4 and 10^0.6, where the residual rises.
        ("conformal-kinetic", {"f": "x1/2"}, 4, 1),
        ("fiberwise-phi", {"phi": "w^2/2 + w^4/10", "C": "exp(-x1/4)"}, 3, 4),
    ],
)
def test_a_cold_inversion_evaluates_each_residual_once(family, params, scales, iterations):
    """The fiber hook runs at the walk's scales and once per undamped Newton
    iteration, as Newton starts from the residual the walk hands over; the
    Hessian hook runs once per iteration."""
    chart = manifold.builtin_chart("euclidean2")
    seen = []
    ctx = dh.LegendreContext(_recording(dl.catalog_lagrangian(family, **params), seen))
    state = CotangentPoint(np.array([1.1, 0.4]), np.array([0.7, -0.4]))
    back = dh.legendre_inverse(ctx, chart, state)
    assert ctx.last_iterations == iterations
    residuals = [v for kind, v in seen if kind == "dv"]
    assert len(residuals) == len(set(residuals)) == scales + iterations
    assert [kind for kind, _ in seen].count("A") == iterations
    assert np.max(np.abs(dh.legendre_forward(ctx, chart, back).p - state.p)) < 1e-12


@pytest.mark.parametrize("family,params", _FAMILIES)
def test_legendre_inverse_does_not_depend_on_call_history(family, params):
    """A context that inverted other states gives the same bits and iteration
    count at a state as a fresh one."""
    chart = manifold.builtin_chart("polar2d")
    lag = dl.catalog_lagrangian(family, **params)
    state = CotangentPoint(np.array([1.2, 0.3]), np.array([0.7, -0.4]))
    fresh = dh.LegendreContext(lag)
    want = dh.legendre_inverse(fresh, chart, state)
    used = dh.LegendreContext(lag)
    for x, p in [([0.8, -0.5], [-1.1, 0.2]), ([1.5, 1.0], [0.05, 0.9]), ([1.2, 0.3], [0.69, -0.41])]:
        dh.legendre_inverse(used, chart, CotangentPoint(np.array(x), np.array(p)))
        got = dh.legendre_inverse(used, chart, state)
        assert got.v.tobytes() == want.v.tobytes(), (family, x, p)
        assert used.last_iterations == fresh.last_iterations


def _states(chart, lag, count, seed):
    """The cotangent states lambda(q) at drawn tangent states q, as the legendre suite draws them."""
    ctx = dh.LegendreContext(lag)
    rng = np.random.default_rng(seed)
    return [dh.legendre_forward(ctx, chart, q) for q in verification.sample_tangent_states(chart, count, rng, min_speed=0.3)]


@pytest.mark.parametrize("family,params", _FAMILIES)
@pytest.mark.parametrize("chart_name", list(_ORACLE_CHARTS))
def test_the_float_inverse_equals_the_numpy_loop_bit_for_bit(family, params, chart_name):
    """On the diagonal metric of every builtin chart, conformally_flat in dimensions
    2 and 3 and a rescaled polar2d, v and the iteration count are those of the
    numpy loop in tests/legendre_oracle.py. Newton runs for conformal-kinetic and
    fiberwise-phi; for kinetic and kinetic-potential scale 1 of g^-1 p solves."""
    chart = _ORACLE_CHARTS[chart_name]()
    lag = dl.catalog_lagrangian(family, **params)
    iterations = 0
    for state in _states(chart, lag, 30, 43):
        got_ctx, want_ctx = dh.LegendreContext(lag), dh.LegendreContext(lag)
        got = dh.legendre_inverse(got_ctx, chart, state)
        want = legendre_oracle.legendre_inverse(want_ctx, chart, state)
        assert got.v.tobytes() == want.v.tobytes(), (state.x, state.p)
        assert got_ctx.last_iterations == want_ctx.last_iterations
        iterations += got_ctx.last_iterations
    assert (iterations > 0) == (family in ("conformal-kinetic", "fiberwise-phi"))


def _dense_chart():
    """A chart whose metric hook gives a dense positive definite metric, as no builtin chart's is."""

    def metric(x):
        off = 0.4 + 0.1 * math.sin(x[0] * x[1])
        return np.array([[2.0 + 0.3 * math.sin(x[0]), off], [off, 1.5 + 0.2 * math.cos(x[1])]])

    return manifold.ManifoldChart("dense", 2, metric, sample_box=np.array([[-1.0, 1.0], [-1.0, 1.0]]))


# On a dense metric, g^-1 p and g v as float sums round otherwise than numpy's @,
# which fuses a multiply and an add. Over 400 states of each family (seeds 0 to 9)
# on _dense_chart, v moved in 86 to 179 of them; the worst gap between the float
# and the numpy inverse, relative to |v|_inf, was 4.3e-16, and every iteration
# count was equal. The bound is about 10 times the worst.
_DENSE_INVERSE_GAP = 5e-15


@pytest.mark.parametrize("family,params", _FAMILIES)
def test_the_float_inverse_stays_near_the_numpy_loop_on_a_dense_metric(family, params):
    chart = _dense_chart()
    lag = dl.catalog_lagrangian(family, **params)
    for state in _states(chart, lag, 40, 47):
        got_ctx, want_ctx = dh.LegendreContext(lag), dh.LegendreContext(lag)
        got = dh.legendre_inverse(got_ctx, chart, state).v
        want = legendre_oracle.legendre_inverse(want_ctx, chart, state).v
        assert np.max(np.abs(got - want)) <= _DENSE_INVERSE_GAP * np.max(np.abs(want))
        assert got_ctx.last_iterations == want_ctx.last_iterations


def _outcome(inverse, lag, chart, state):
    """(v's bytes, iterations) of one inversion, or (the error's class, residual, iterations)."""
    ctx = dh.LegendreContext(lag)
    try:
        v = inverse(ctx, chart, state).v
    except NonConvergenceError as exc:
        return type(exc), exc.residual, exc.iterations
    return v.tobytes(), ctx.last_iterations


@pytest.mark.parametrize("family,params", _FAMILIES)
def test_the_generic_fallback_inverts_as_the_numpy_loop_did(family, params):
    """family "bespoke": without the A hook, A comes from finite differences of dL/dv
    (fiber_hessian), made a list; without any hook dL/dv is a finite difference too,
    made a list, and Newton cannot reach the tolerance. Both loops agree in either case."""
    chart = manifold.builtin_chart("polar2d")
    lag = dl.catalog_lagrangian(family, **params)
    no_a = dl.Lagrangian(field=lag.field, family="bespoke")
    bare = dl.Lagrangian(field=ef.ExtendedField((0, 0), "v", lag.field.eval_fn), family="bespoke")
    dv, hessian = dh._fiber_passes(bare)
    for state in _states(chart, lag, 5, 29):
        q = TangentPoint(state.x, state.p)
        assert dv(chart, q) == ef.fiber_partials(chart, bare.field, q).tolist()
        assert hessian(chart, q) == ef.fiber_hessian(chart, bare.field, q).tolist()
        got = _outcome(dh.legendre_inverse, no_a, chart, state)
        assert got == _outcome(legendre_oracle.legendre_inverse, no_a, chart, state)
        v = np.frombuffer(got[0])
        assert np.max(np.abs(lag.dv(chart, TangentPoint(state.x, v)) - state.p)) <= 1e-12 * max(1.0, np.max(np.abs(state.p)))
        got = _outcome(dh.legendre_inverse, bare, chart, state)
        assert got == _outcome(legendre_oracle.legendre_inverse, bare, chart, state)


@pytest.mark.parametrize("family,params", _FAMILIES)
@pytest.mark.parametrize("chart_name", list(_ORACLE_CHARTS))
def test_the_fiber_hooks_return_lists_with_the_bits_of_their_numpy_forms(family, params, chart_name):
    """dL/dv and A of each catalog Lagrangian, and dH/dp of its closed-form H, are
    lists; on these charts' diagonal metrics they equal the numpy forms they
    replaced bit for bit, and fiber_partials and a_matrix make them arrays."""
    chart = _ORACLE_CHARTS[chart_name]()
    lag = dl.catalog_lagrangian(family, **params)
    ham = dh.hamiltonian_from_lagrangian(dh.LegendreContext(lag))
    rng = np.random.default_rng(53)
    for q in verification.sample_tangent_states(chart, 8, rng, min_speed=0.3):
        dv, a = lag.field.fiber_partials_fn(chart, q), lag.second_fiber_fn(chart, q)
        state = CotangentPoint(q.x, dv)
        dp = ham.field.fiber_partials_fn(chart, state)
        assert type(dv) is list and type(a) is list and type(dp) is list
        assert all(type(row) is list for row in a)
        want_dv, want_a, want_dp = legendre_oracle.fiber_hooks(chart, lag, q)
        assert np.array(dv).tobytes() == want_dv.tobytes()
        assert np.array(a).tobytes() == want_a.tobytes()
        if want_dp is not None:
            assert np.array(dp).tobytes() == want_dp.tobytes()
        for array, want in ((lag.dv(chart, q), want_dv), (dl.a_matrix(chart, lag, q), want_a)):
            assert type(array) is np.ndarray and array.tobytes() == want.tobytes()
        assert type(ham.dp(chart, state)) is np.ndarray


def test_legendre_context_and_hamiltonian_hold_no_solver_settings():
    """The inverse's Newton settings are module constants, not per-context state."""
    assert [f.name for f in dataclasses.fields(dh.LegendreContext)] == [
        "lagrangian",
        "last_iterations",
    ]
    assert [f.name for f in dataclasses.fields(dh.Hamiltonian)] == ["field"]
    assert (dh._NEWTON_MAX_ITER, dh._NEWTON_TOLERANCE, dh._NEWTON_MAX_DAMPING) == (50, 1e-12, 20)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_start_residual_raises_numeric_overflow(bad):
    chart = manifold.builtin_chart("euclidean2")
    ctx = dh.LegendreContext(_QUARTIC)
    state = CotangentPoint(np.array([0.1, -0.2]), np.array([bad, 0.4]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericOverflowError, match="start velocity"):
            dh.legendre_inverse(ctx, chart, state)


def test_sup_norm_matches_numpy():
    rng = np.random.default_rng(5)
    specials = [math.inf, -math.inf, -0.0, 0.0, 1e308, -1e-320]
    for size in (1, 2, 3, 4, 9):
        for _ in range(50):
            a = rng.normal(size=size) * 10.0 ** rng.integers(-300, 300, size=size)
            for k in rng.choice(size, rng.integers(0, size + 1), replace=False):
                a[k] = specials[rng.integers(len(specials))]
            for shaped in (a, a.reshape(1, size), a.reshape(size, 1)):
                got = manifold._sup_norm(shaped)
                assert type(got) is float
                assert got == float(np.max(np.abs(shaped)))
            for k in range(size):
                b = a.copy()
                b[k] = math.nan
                assert math.isnan(manifold._sup_norm(b))
                assert math.isnan(float(np.max(np.abs(b))))


def _in_sample_box(chart, u):
    """The point of chart's sample box, less a 5% margin, at unit-cube coordinates u."""
    lo, hi = chart.sample_box[:, 0], chart.sample_box[:, 1]
    margin = 0.05 * (hi - lo)
    return lo + margin + np.array(u) * (hi - lo - 2.0 * margin)


_UNIT = st.floats(0.0, 1.0)
_COMPONENT = st.floats(-1.5, 1.5)


@settings(max_examples=50, deadline=None)
@given(
    family=st.sampled_from(_FAMILIES),
    chart_name=st.sampled_from(verification._IDENTITY_CHARTS),
    u=st.tuples(_UNIT, _UNIT),
    fiber=st.tuples(_COMPONENT, _COMPONENT),
)
def test_legendre_roundtrips_hold_in_the_sample_box(family, chart_name, u, fiber):
    """v -> p -> v and p -> v -> p from cold starts, on the legendre suite's charts."""
    chart = manifold.builtin_chart(chart_name)
    lag = dl.catalog_lagrangian(family[0], **family[1])
    x, f = _in_sample_box(chart, u), np.array(fiber)
    assume(manifold.speed(chart, x, f) >= 0.3)
    assume(manifold.speed(chart, x, manifold.raise_index(chart, x, f)) >= 0.3)
    ctx = dh.LegendreContext(lag)

    image = dh.legendre_forward(ctx, chart, TangentPoint(x, f))
    back = dh.legendre_inverse(ctx, chart, image)
    assert np.max(np.abs(back.v - f)) <= verification.LEGENDRE_ROUNDTRIP_TOL

    v = dh.legendre_inverse(ctx, chart, CotangentPoint(x, f))
    again = dh.legendre_forward(ctx, chart, v)
    assert np.max(np.abs(again.p - f)) <= verification.LEGENDRE_ROUNDTRIP_TOL


def test_modulus_lagrangian_has_zero_energy():
    # L homogeneous of degree one in v makes p.v - L vanish identically.
    chart = manifold.builtin_chart("polar2d")
    lag = dl.fiberwise_phi_lagrangian("w")
    rng = np.random.default_rng(37)
    for q in verification.sample_tangent_states(chart, 10, rng, min_speed=0.3):
        assert abs(dh.energy_h(chart, lag, q)) < 1e-14


def _closed_form_b(chart, lag, ham, state):
    """B = d2H/dp dp in closed form: e^(2f) g^-1 for the quadratic families,
    and symmetric_b_matrix at (x, dH/dp) for fiberwise-phi."""
    if lag.family == "fiberwise-phi":
        v = ham.field.fiber_partials_fn(chart, state)
        return normal_shift.symmetric_b_matrix(chart, lag.profile, TangentPoint(state.x, v))
    ginv = manifold.inverse_metric_at(chart, state.x)
    f_expr = lag.params.get("f")
    return ginv if f_expr is None else ef._conformal_factor(f_expr, state.x, 2.0) * ginv


@pytest.mark.parametrize("family,params", _FAMILIES)
def test_b_matrix_inverts_fiber_hessian(family, params):
    """Closed-form B, and the generic fallback's second differences of the
    Newton-inverted H, both invert A."""
    chart = manifold.builtin_chart("polar2d")
    lag = dl.catalog_lagrangian(family, **params)
    ctx = dh.LegendreContext(lag)
    ham = dh.hamiltonian_from_lagrangian(ctx)
    generic = dh.hamiltonian_from_lagrangian(
        dh.LegendreContext(dataclasses.replace(lag, family="bespoke"))
    )
    assert generic.field.fiber_partials_fn is None
    rng = np.random.default_rng(43)
    eye = np.eye(chart.dim)
    for q in verification.sample_tangent_states(chart, 6, rng, min_speed=0.3):
        state = dh.legendre_forward(ctx, chart, q)
        a = dl.a_matrix(chart, lag, q)
        b = _closed_form_b(chart, lag, ham, state)
        assert np.max(np.abs(a @ b - eye)) < 1e-10
        assert np.max(np.abs(a @ ef.fiber_hessian(chart, generic.field, state) - eye)) < 1e-5


def test_generic_fallback_hamiltonian_matches_closed_form():
    """An uncataloged family must still produce correct values by inversion."""
    chart = manifold.builtin_chart("polar2d")
    kinetic = dl.kinetic_lagrangian()
    disguised = dataclasses.replace(kinetic, family="bespoke")
    closed = dh.hamiltonian_from_lagrangian(dh.LegendreContext(kinetic))
    generic = dh.hamiltonian_from_lagrangian(dh.LegendreContext(disguised))
    rng = np.random.default_rng(47)
    for state in verification.sample_cotangent_states(chart, 6, rng, min_modulus=0.3):
        assert abs(generic.value(chart, state) - closed.value(chart, state)) < 1e-9


def test_generic_fallback_hamiltonian_does_not_depend_on_call_history():
    """H, dH/dp and dH/dx at a state have the same bits whatever was evaluated before."""
    chart = manifold.builtin_chart("polar2d")
    lag = dataclasses.replace(dl.conformal_kinetic_lagrangian("x1/2"), family="bespoke")
    state = CotangentPoint(np.array([1.2, 0.3]), np.array([0.7, -0.4]))
    others = [
        state,
        CotangentPoint(np.array([0.8, -0.5]), np.array([-1.1, 0.2])),
        CotangentPoint(np.array([1.5, 1.0]), np.array([0.05, 0.9])),
    ]
    parts = {
        "value": lambda ham, at: ham.value(chart, at),
        "dp": lambda ham, at: ham.dp(chart, at),
        "dx": lambda ham, at: ef.x_partials(chart, ham.field, at),
    }
    for part, read in parts.items():

        def at_state(*before):
            ham = dh.hamiltonian_from_lagrangian(dh.LegendreContext(lag))
            for other in before:
                read(ham, other)
            return np.asarray(read(ham, state)).tobytes()

        first = at_state()
        for other in others:
            assert at_state(other) == first, (part, other.x)


def test_hamilton_rhs_polar_oracle():
    # H = (p_r^2 + p_theta^2 / r^2) / 2 on the polar chart.  At r = 2:
    # dx/dt = (p_r, p_theta / r^2) = (0.3, 0.2) and the only nonzero
    # force term is -dH/dr = p_theta^2 / r^3 = 0.08.
    chart = manifold.builtin_chart("polar2d")
    ham = dh.hamiltonian_from_lagrangian(dh.LegendreContext(dl.kinetic_lagrangian()))
    state = CotangentPoint(np.array([2.0, 0.5]), np.array([0.3, 0.8]))
    dx, dp = dh.hamilton_rhs(chart, ham, state)
    assert np.allclose(dx, [0.3, 0.2], atol=1e-14)
    assert np.allclose(dp, [0.08, 0.0], atol=1e-14)


@pytest.mark.parametrize("chart_name", ["polar2d", "sphere2d"])
def test_momentum_residual_cancels_exactly(chart_name):
    """The symmetric Christoffel contractions must cancel in floating point,
    not merely to rounding."""
    chart = manifold.builtin_chart(chart_name)
    ham = dh.hamiltonian_from_lagrangian(dh.LegendreContext(dl.kinetic_lagrangian()))
    rng = np.random.default_rng(53)
    for state in verification.sample_cotangent_states(chart, 10, rng, min_modulus=0.3):
        residual = dh.covariant_momentum_residual(chart, ham, state)
        assert np.max(np.abs(residual)) == 0.0


def test_nonconvergence_carries_iteration_count(monkeypatch):
    chart = manifold.builtin_chart("euclidean2")
    ctx = dh.LegendreContext(_QUARTIC)
    state = CotangentPoint(np.zeros(2), np.array([0.9, 0.4]))
    monkeypatch.setattr(dh, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(NonConvergenceError) as excinfo:
        dh.legendre_inverse(ctx, chart, state)
    assert excinfo.value.iterations == 1
    assert excinfo.value.residual > 0.0


def test_cotangent_csv_layout(tmp_path):
    chart = manifold.builtin_chart("polar2d")
    ctx = dh.LegendreContext(dl.kinetic_lagrangian())
    ham = dh.hamiltonian_from_lagrangian(ctx)
    state = CotangentPoint(np.array([1.5, 0.2]), np.array([0.2, 0.9]))
    config = dn.IntegratorConfig(method="rk4", dt=1e-3, t_span=(0.0, 0.1), record_every=10)
    trajectory = dh.integrate_hamiltonian(chart, ham, state, config)
    assert trajectory.status == "completed"
    out = tmp_path / "run.csv"
    dn.write_trajectory_csv(trajectory, out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,x1,x2,p1,p2,H"
    assert len(lines) == len(trajectory.ts) + 1
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[0] == 0.0
    h_column = [float(line.split(",")[-1]) for line in lines[1:]]
    assert max(h_column) - min(h_column) < 1e-10


# The charts of the float-pass oracle tests; every one has a diagonal metric.
_JET_CHARTS = {
    "euclidean2": lambda: manifold.builtin_chart("euclidean2"),
    "polar2d": lambda: manifold.builtin_chart("polar2d"),
    "sphere2d": lambda: manifold.builtin_chart("sphere2d"),
    "hyperbolic_half_plane": lambda: manifold.builtin_chart("hyperbolic_half_plane"),
    "euclidean3": lambda: manifold.builtin_chart("euclidean3"),
    "conformally_flat3": lambda: manifold.builtin_chart("conformally_flat", dim=3, f="x1/3 + x2*x3/5"),
    "sphere2d_rescaled": lambda: manifold.conformal_rescale(manifold.builtin_chart("sphere2d"), "x1/4 - x2/7"),
}
# Where a jet moved from the numpy form, each entry is within this many ulps
# of the scale the oracle gives it: the sum of the absolute values of its terms.
_JET_ULPS = 4


def _jet_points(chart, rep, seed):
    """Sampled cotangent states, or the tangent states with the same numbers for rep "v"."""
    states = verification.sample_cotangent_states(chart, 25, np.random.default_rng(seed))
    return states if rep == "p" else [TangentPoint(s.x, s.p) for s in states]


def _quadratic_field(rep, f, u):
    return ef.kinetic_energy_scalar(f, u) if rep == "v" else ef.momentum_kinetic_scalar(f, u)


def _within_ulps(got, want, scale):
    return bool(np.all(np.abs(got - want) <= _JET_ULPS * np.finfo(float).eps * scale))


@pytest.mark.parametrize("u", [None, "sin(x1)*x2"])
@pytest.mark.parametrize("rep", ["p", "v"])
@pytest.mark.parametrize("chart_name", list(_JET_CHARTS))
def test_the_quadratic_float_pass_without_f_has_the_bits_of_the_numpy_jet(chart_name, rep, u):
    """Bit for bit, but for H's x partials: the pass sums -u . dg . u / 2 where the
    numpy form summed p . d(g^-1)/dx . p / 2, so they are held within a few ulps
    of a scale that covers the terms of both."""
    chart = _JET_CHARTS[chart_name]()
    field = _quadratic_field(rep, None, u)
    for point in _jet_points(chart, rep, 61):
        want_dx, want_dfib, scale = h_jet_oracle.quadratic_jet(chart, rep, None, u, point)
        dx, dfib = ef.jet(chart, field, point)
        assert dfib.tobytes() == want_dfib.tobytes()
        if rep == "v":
            assert dx.tobytes() == want_dx.tobytes()
        else:
            raised = h_jet_oracle.raised_form_scale(chart, point.x, point.p)
            assert _within_ulps(dx, want_dx, np.maximum(scale, raised))


@pytest.mark.parametrize("u", [None, "sin(x1)*x2"])
@pytest.mark.parametrize("rep", ["p", "v"])
@pytest.mark.parametrize("chart_name", list(_JET_CHARTS))
def test_the_quadratic_float_pass_with_f_is_within_a_few_ulps_of_the_numpy_jet(chart_name, rep, u):
    chart = _JET_CHARTS[chart_name]()
    f = "x1/3 - x2/5"
    field = _quadratic_field(rep, f, u)
    for point in _jet_points(chart, rep, 67):
        want_dx, want_dfib, scale = h_jet_oracle.quadratic_jet(chart, rep, f, u, point)
        dx, dfib = ef.jet(chart, field, point)
        assert _within_ulps(dx, want_dx, scale) and _within_ulps(dfib, want_dfib, np.abs(want_dfib))


@pytest.mark.parametrize("chart_name", list(_JET_CHARTS))
def test_the_fiberwise_float_pass_is_within_a_few_ulps_of_the_numpy_jet(chart_name):
    chart = _JET_CHARTS[chart_name]()
    phi, c = "w^2/2 + w^4/10", "exp(-x1/4)"
    field = dh.hamiltonian_from_lagrangian(
        dh.LegendreContext(dl.catalog_lagrangian("fiberwise-phi", phi=phi, C=c))
    ).field
    for state in _jet_points(chart, "p", 71):
        want_dx, want_dp, scale = h_jet_oracle.fiberwise_jet(chart, phi, c, state)
        dx, dp = ef.jet(chart, field, state)
        assert _within_ulps(dx, want_dx, scale) and _within_ulps(dp, want_dp, np.abs(want_dp))


def test_a_fiberwise_field_looks_its_compiled_code_up_on_first_use_only(monkeypatch):
    """Building the field compiles nothing; a run looks up phi' and (phi', phi'')
    and C's value and partials once each, and phi's value once per sample."""
    lookups = Counter()
    code = expression._code

    def counted(expr, *pairs):
        lookups[expr.source, pairs] += 1
        return code(expr, *pairs)

    monkeypatch.setattr(expression, "_code", counted)
    ctx = dh.LegendreContext(dl.catalog_lagrangian("fiberwise-phi", phi="w^2/2 + w^4/10", C="exp(-x1/4)"))
    ham = dh.hamiltonian_from_lagrangian(ctx)
    assert not lookups
    state0 = CotangentPoint(np.array([0.1, -0.2]), np.array([0.7, 0.4]))
    config = dn.IntegratorConfig(method="rk4", dt=1e-3, t_span=(0.0, 0.1), record_every=10)
    trajectory = dh.integrate_hamiltonian(manifold.builtin_chart("euclidean2"), ham, state0, config)
    assert trajectory.status == "completed" and len(trajectory.ts) == 11
    assert lookups == {
        ("w^2/2 + w^4/10", (("w",),)): 1,
        ("w^2/2 + w^4/10", (("w",), ("w", "w"))): 1,
        ("exp(-x1/4)", ((),)): 1,
        ("exp(-x1/4)", (("x1",),)): 1,
        ("exp(-x1/4)", (("x2",),)): 1,
        ("w^2/2 + w^4/10", ((),)): 11,
    }


@pytest.mark.parametrize("chart_name", ["euclidean2", "polar2d", "sphere2d"])
def test_fiberwise_jet_equals_the_separate_hooks_bit_for_bit(chart_name):
    chart = manifold.builtin_chart(chart_name)
    lag = dl.catalog_lagrangian("fiberwise-phi", phi="w^2/2 + w^4/10", C="exp(-x1/4)")
    ham = dh.hamiltonian_from_lagrangian(dh.LegendreContext(lag))
    field = ham.field
    assert field.jet_fn is not None and field.x_partials_fn is None
    rng = np.random.default_rng(31)
    for state in verification.sample_cotangent_states(chart, 8, rng):
        dx, dp = ef.jet(chart, field, state)
        assert np.array_equal(dx, ef.x_partials(chart, field, state))
        assert np.array_equal(dp, field.fiber_partials_fn(chart, state))
        x_dot, p_dot = dh.hamilton_rhs(chart, ham, state)
        assert np.array_equal(x_dot, dp) and np.array_equal(p_dot, -dx)


@pytest.mark.parametrize("f,u", [(None, None), ("x1/3", None), (None, "sin(x2)"), ("x1/3", "sin(x2)")])
@pytest.mark.parametrize("chart_name", ["euclidean2", "polar2d", "sphere2d"])
def test_quadratic_jets_equal_the_separate_hooks_bit_for_bit(chart_name, f, u, monkeypatch):
    chart = manifold.builtin_chart(chart_name)
    rng = np.random.default_rng(37)
    tangent = verification.sample_tangent_states(chart, 6, rng)
    cotangent = verification.sample_cotangent_states(chart, 6, rng)
    lag_field = ef.kinetic_energy_scalar(f, u)
    ham = dh.Hamiltonian(ef.momentum_kinetic_scalar(f, u))
    if f is None and u is None:

        def refuse(*args, **kwargs):
            raise AssertionError("expression code ran without f and U")

        for name in ("evaluate", "evaluate_env", "gradient"):
            monkeypatch.setattr(expression, name, refuse)
    for field, states in ((lag_field, tangent), (ham.field, cotangent)):
        assert field.jet_fn is not None and field.x_partials_fn is None
        for state in states:
            dx, dfib = ef.jet(chart, field, state)
            assert np.array_equal(dx, ef.x_partials(chart, field, state))
            assert np.array_equal(dfib, field.fiber_partials_fn(chart, state))
    for state in cotangent:
        dx, dp = ef.jet(chart, ham.field, state)
        x_dot, p_dot = dh.hamilton_rhs(chart, ham, state)
        assert np.array_equal(x_dot, dp) and np.array_equal(p_dot, -dx)


@pytest.mark.parametrize("family,params", _FAMILIES)
@pytest.mark.parametrize("chart_name", ["polar2d", "sphere2d"])
def test_x_partials_of_a_jet_only_field_are_the_x_half_of_its_jet(chart_name, family, params):
    """The four closed-form scalars have no x hook: x_partials, and the _el_terms
    fallback of a Lagrangian without el_terms_fn, read the x half of the jet."""
    chart = manifold.builtin_chart(chart_name)
    lag = dl.catalog_lagrangian(family, **params)
    ham = dh.hamiltonian_from_lagrangian(dh.LegendreContext(lag))
    bespoke = dataclasses.replace(lag, family="bespoke", el_terms_fn=None)
    rng = np.random.default_rng(43)
    tangent = verification.sample_tangent_states(chart, 6, rng)
    cotangent = verification.sample_cotangent_states(chart, 6, rng)
    for field, states in ((lag.field, tangent), (ham.field, cotangent)):
        assert field.x_partials_fn is None and field.jet_fn is not None
        for state in states:
            want = ef.jet(chart, field, state)[0]
            assert ef.x_partials(chart, field, state).tobytes() == want.tobytes()
    for q in tangent:
        want = ef.jet(chart, lag.field, q)[0]
        assert dl._el_terms(chart, bespoke, q)[0].tobytes() == want.tobytes()


def _counting(monkeypatch, *names):
    """A Counter of calls to the named expression entry points, wrapped for this test."""
    calls = Counter()
    for name in names:

        def counted(*args, _call=getattr(expression, name), _name=name, **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(expression, name, counted)
    return calls


def test_a_quadratic_hamilton_rhs_takes_the_gradient_of_u_and_never_u(monkeypatch):
    """The jet is the two partials: dH/dx reads grad U, and nothing reads U itself."""
    lag = dl.catalog_lagrangian("kinetic-potential", **verification._SYSTEMS["kinetic-potential"])
    ham = dh.hamiltonian_from_lagrangian(dh.LegendreContext(lag))
    state = CotangentPoint(np.array([1.0, 0.3]), np.array([0.3, 0.9]))
    calls = _counting(monkeypatch, "evaluate", "evaluate_env", "gradient")
    dh.hamilton_rhs(manifold.builtin_chart("sphere2d"), ham, state)
    assert calls == {"gradient": 1}


def test_a_fiberwise_canonical_run_evaluates_phi_only_for_its_sampled_h(monkeypatch):
    """Each right-hand side inverts phi' for dH/dx and dH/dp; phi itself is read
    only by the H value that each recorded sample carries."""
    chart = manifold.builtin_chart("euclidean2")
    ctx = dh.LegendreContext(verification._system("fiberwise-phi"))
    ham = dh.hamiltonian_from_lagrangian(ctx)
    state0 = dh.legendre_forward(ctx, chart, TangentPoint(*verification._STARTS["euclidean2"]))
    config = dn.IntegratorConfig(method="rk4", dt=1e-3, t_span=(0.0, 1.0), record_every=10)
    calls = _counting(monkeypatch, "evaluate_env")
    trajectory = dh.integrate_hamiltonian(chart, ham, state0, config)
    assert trajectory.status == "completed" and len(trajectory.ts) == 101
    assert calls == {"evaluate_env": 101}


@pytest.mark.parametrize("family,params", _FAMILIES)
def test_energy_x_partials_take_one_pass_with_the_bits_of_the_separate_hooks(family, params):
    """dh/dx = v . M - dL/dx from one el_terms_fn pass: one metric_partials_fn call, not two."""
    sphere = manifold.builtin_chart("sphere2d")
    calls = []

    def metric_partials(x):
        calls.append(x)
        return sphere.metric_partials_fn(x)

    chart = dataclasses.replace(sphere, metric_partials_fn=metric_partials)
    lag = dl.catalog_lagrangian(family, **params)
    h = dh.energy_field(lag)
    rng = np.random.default_rng(41)
    for point in verification.sample_tangent_states(chart, 8, rng):
        calls.clear()
        got = ef.x_partials(chart, h, point)
        assert len(calls) == 1
        want = point.v @ force_oracle.mixed(chart, lag, point) - ef.x_partials(chart, lag.field, point)
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# The phi' inversion against its env-route oracle

_PHI_TARGETS = tuple(float(t) for t in np.logspace(-8.0, 6.0, 29)) + (0.77, 0.5, 3.0)


def _invert_phi_prime(phi, target):
    """The package's phi' inversion, by a solver built for phi."""
    return dh._phi_prime_inverse(phi)(target)


def _inversion(invert, phi, target):
    """The inverse as its bytes, or the error's type and message."""
    try:
        return ("value", np.float64(invert(phi, target)).tobytes())
    except Exception as exc:  # noqa: BLE001 - every error must be reproduced
        return ("raised", type(exc), str(exc))


@pytest.mark.parametrize(
    "source",
    ["w^2/2 + w^4/10", "w^3/3", "w^1.5", "w^10/10", "w^400", "cosh(w)", "exp(w)", "sin(w)", "1",
     "sqrt(-w)", "w^-1"],
)
def test_phi_inversion_matches_the_env_route_bit_for_bit(source):
    phi = expression.parse(source)
    for target in _PHI_TARGETS:
        want = _inversion(phi_inverse_oracle.invert_phi_prime, phi, target)
        assert _inversion(_invert_phi_prime, phi, target) == want, (source, target)


def test_phi_inversion_refuses_as_the_env_route_does():
    # Each case's error, as the oracle raises it: no bracket, a stall, a domain error.
    cases = [
        ("sin(w)", 3.0, NonConvergenceError, "could not bracket phi'(z) = 3.0"),
        ("1", 0.5, NonConvergenceError, "could not bracket phi'(z) = 0.5"),
        ("exp(w)", 1e-8, NonConvergenceError, "phi' inversion stalled at z="),
        ("sqrt(-w)", 1.0, EvalDomainError, "sqrt of negative value"),
    ]
    for source, target, error, message in cases:
        phi = expression.parse(source)
        with pytest.raises(error, match=re.escape(message)) as raised:
            phi_inverse_oracle.invert_phi_prime(phi, target)
        with pytest.raises(error, match=f"^{re.escape(str(raised.value))}$"):
            _invert_phi_prime(phi, target)


def test_phi_inversion_names_an_overflow_short_of_the_target():
    """phi' = w + 2 w^3/5 of w^2/2 + w^4/10 turns inf in its compiled code below the
    root of phi'(z) = 1.7e308; the bisection closes there, and both routes name the
    overflow, so such a state ends a run non_finite, not singular."""
    phi = expression.parse("w^2/2 + w^4/10")
    message = "phi'(z) overflows the float range at z=3.5553731598732904e+102, short of phi'(z) = 1.7e+308"
    for invert in (phi_inverse_oracle.invert_phi_prime, _invert_phi_prime):
        with pytest.raises(NumericOverflowError, match=f"^{re.escape(message)}$"):
            invert(phi, 1.7e308)


@pytest.mark.parametrize("target", [1e6, 1e30, 1e300])
@pytest.mark.parametrize("source", ["w^2/2 + w^4/10", "w^2/2 + w^10/10"])
def test_phi_inversion_converges_where_the_newton_steps_run_out(monkeypatch, source, target):
    """From z = target Newton shrinks z by about 1 - 1/k per step where phi grows like
    w^(k+1), so 100 steps fall short of every one of these roots but w^2/2 + w^4/10's
    at 1e6; bisection of the bracket then finishes the inversion."""
    phi = expression.parse(source)
    z = _invert_phi_prime(phi, target)
    assert abs(exports_oracle.partial_env(phi, {"w": z}, "w") - target) <= 1e-14 * target
    monkeypatch.setattr(dh, "_PHI_BISECTION_STEPS", 0)
    if (source, target) == ("w^2/2 + w^4/10", 1e6):
        assert _invert_phi_prime(phi, target) == z
    else:
        with pytest.raises(NonConvergenceError, match="phi' inversion stalled"):
            _invert_phi_prime(phi, target)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(W_TREES)
def test_phi_inversion_matches_the_env_route_on_random_profiles(root):
    phi = expression._expr(root, expression._unparse(root))
    for target in _PHI_TARGETS[::4]:
        want = _inversion(phi_inverse_oracle.invert_phi_prime, phi, target)
        assert _inversion(_invert_phi_prime, phi, target) == want, (phi.source, target)


def test_phi_inversion_builds_no_variable_map(monkeypatch):
    phi = expression.parse("w^2/2 + w^4/10")
    want = phi_inverse_oracle.invert_phi_prime(phi, 0.77)

    def refuse(*args):
        raise AssertionError("expression._env_args was called")

    monkeypatch.setattr(expression, "_env_args", refuse)
    assert _invert_phi_prime(phi, 0.77) == want


def test_the_readme_library_example_runs(capsys):
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
    exec(compile(example, "README.md", "exec"), {})
    status, spread = capsys.readouterr().out.split()
    assert status == "completed"
    assert float(spread) <= verification.ENERGY_DRIFT_TOL
