"""Legendre maps, closed-form Hamiltonians, and the canonical equations."""

import dataclasses
import math
from collections import Counter

import force_oracle
import guess_oracle
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from riemdyn import dynamics_hamilton as dh
from riemdyn import dynamics_lagrange as dl
from riemdyn import dynamics_newton as dn
from riemdyn import expression, manifold, verification
from riemdyn import extended_fields as ef
from riemdyn.errors import NonConvergenceError, NumericOverflowError
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
    assert report.max_residual() < 1e-6


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


def _record_dv(patch, seen):
    """Patch Lagrangian.dv to append the bytes of each velocity it is called at to seen."""
    dv = dl.Lagrangian.dv

    def recording_dv(self, chart, point):
        seen.append(point.v.tobytes())
        return dv(self, chart, point)

    patch.setattr(dl.Lagrangian, "dv", recording_dv)


def _guess_both_ways(ctx, chart, x, p, tol, monkeypatch):
    """(walk, scan, velocities the walk tried) for one cold start with tolerance tol.

    The walk's residual must be dL/dv - p at its velocity, bit for bit, or
    None with the raw g^-1 p.
    """
    tried = []
    with monkeypatch.context() as patch:
        _record_dv(patch, tried)
        walk, r = dh._default_velocity_guess(ctx, chart, x, p, tol)
    if r is None:
        assert np.array_equal(walk, manifold.raise_index(chart, x, p))
    else:
        assert np.array_equal(r, ctx.lagrangian.dv(chart, TangentPoint(x, walk)) - p)
    return walk, guess_oracle.default_velocity_guess(ctx, chart, x, p), tried


# -1 never stops early; None stands for the tolerance legendre_inverse passes.
_WALK_TOLS = pytest.mark.parametrize("tol", [-1.0, None], ids=["full-walk", "early-stop"])


@_WALK_TOLS
@pytest.mark.parametrize("seed", [0, 1])
def test_cold_start_walk_picks_the_scan_scale_on_the_legendre_suite_states(seed, tol, monkeypatch):
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
                walk, scan, tried = _guess_both_ways(
                    ctx, chart, image.x, image.p, walk_tol, monkeypatch
                )
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
        # phi'(s |p|) / |p| = s + 0.4 s^3 |p|^2 reaches 1 below s = 1e-2.
        (_QUARTIC, [3e3, -4e3], 0),
        # s e^(-2f) reaches 1 above s = 1e2.
        (dl.conformal_kinetic_lagrangian("3"), [0.3, 0.4], 20),
        # |v| = 5e-9 s is at or below the zero-velocity floor 1e-8 up to s = 2: a refused start.
        (_QUARTIC, [5e-9, 0.0], 12),
        # |v| is below the floor at every scale: the raw g^-1 p.
        (_QUARTIC, [1e-12, 0.0], None),
        (_QUARTIC, [0.0, 0.0], None),
        # dL/dv(g^-1 p) = p: scale 1 solves.
        (dl.kinetic_lagrangian(), [0.3, 0.4], 10),
    ],
)
def test_cold_start_walk_edge_cases_match_the_scan(lag, p, index, tol, monkeypatch):
    chart = manifold.builtin_chart("euclidean2")
    ctx = dh.LegendreContext(lag)
    x, p = np.array([0.3, -0.2]), np.array(p)
    tol = _legendre_tol(p) if tol is None else tol
    walk, scan, tried = _guess_both_ways(ctx, chart, x, p, tol, monkeypatch)
    assert np.array_equal(walk, scan)
    assert len(set(tried)) == len(tried) <= len(dh._GUESS_SCALES)
    want = p if index is None else dh._GUESS_SCALES[index] * p
    assert np.array_equal(walk, want)


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
def test_a_cold_inversion_evaluates_each_residual_once(
    family, params, scales, iterations, monkeypatch
):
    """dL/dv runs at the walk's scales and once per undamped Newton iteration:
    Newton starts from the residual the walk hands over."""
    chart = manifold.builtin_chart("euclidean2")
    ctx = dh.LegendreContext(dl.catalog_lagrangian(family, **params))
    state = CotangentPoint(np.array([1.1, 0.4]), np.array([0.7, -0.4]))
    seen = []
    with monkeypatch.context() as patch:
        _record_dv(patch, seen)
        back = dh.legendre_inverse(ctx, chart, state)
    assert ctx.last_iterations == iterations
    assert len(seen) == len(set(seen)) == scales + iterations
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


def test_legendre_context_and_hamiltonian_hold_no_solver_settings():
    """The inverse's Newton settings are module constants, not per-context state."""
    assert [f.name for f in dataclasses.fields(dh.LegendreContext)] == [
        "lagrangian",
        "last_iterations",
    ]
    assert [f.name for f in dataclasses.fields(dh.Hamiltonian)] == ["field", "second_fiber_fn"]
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
    assert generic.second_fiber_fn is None and generic.field.fiber_partials_fn is None
    rng = np.random.default_rng(43)
    eye = np.eye(chart.dim)
    for q in verification.sample_tangent_states(chart, 6, rng, min_speed=0.3):
        state = dh.legendre_forward(ctx, chart, q)
        a = dl.a_matrix(chart, lag, q)
        b = dh.b_matrix(chart, ham, state)
        assert np.max(np.abs(a @ b - eye)) < 1e-10
        assert np.max(np.abs(a @ dh.b_matrix(chart, generic, state) - eye)) < 1e-5


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
    for part in ("value", "dp", "dx"):

        def at_state(*before):
            ham = dh.hamiltonian_from_lagrangian(dh.LegendreContext(lag))
            for other in before:
                getattr(ham, part)(chart, other)
            return np.asarray(getattr(ham, part)(chart, state)).tobytes()

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
    dh.write_cotangent_csv(trajectory, out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,x1,x2,p1,p2,H"
    assert len(lines) == len(trajectory.ts) + 1
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[0] == 0.0
    h_column = [float(line.split(",")[-1]) for line in lines[1:]]
    assert max(h_column) - min(h_column) < 1e-10


@pytest.mark.parametrize("chart_name", ["euclidean2", "polar2d", "sphere2d"])
def test_fiberwise_jet_equals_the_separate_hooks_bit_for_bit(chart_name):
    chart = manifold.builtin_chart(chart_name)
    lag = dl.catalog_lagrangian("fiberwise-phi", phi="w^2/2 + w^4/10", C="exp(-x1/4)")
    ham = dh.hamiltonian_from_lagrangian(dh.LegendreContext(lag))
    field = ham.field
    assert field.jet_fn is not None
    rng = np.random.default_rng(31)
    for state in verification.sample_cotangent_states(chart, 8, rng):
        dx, dp = field.jet_fn(chart, state)
        assert np.array_equal(dx, field.x_partials_fn(chart, state))
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
        assert field.jet_fn is not None
        for state in states:
            dx, dfib = field.jet_fn(chart, state)
            assert np.array_equal(dx, field.x_partials_fn(chart, state))
            assert np.array_equal(dfib, field.fiber_partials_fn(chart, state))
    for state in cotangent:
        dx, dp = ham.field.jet_fn(chart, state)
        x_dot, p_dot = dh.hamilton_rhs(chart, ham, state)
        assert np.array_equal(x_dot, dp) and np.array_equal(p_dot, -dx)


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
        want = point.v @ force_oracle.mixed(chart, lag, point) - lag.dx(chart, point)
        assert got.tobytes() == want.tobytes()
