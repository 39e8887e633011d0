"""Newtonian flows: right-hand sides, integrators, trajectory output."""

import dataclasses
import math
import os
import subprocess
import sys
import warnings
from collections import Counter

import dp_oracle
import exports_oracle
import numpy as np
import pytest
import rhs_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from riemdyn import dynamics_lagrange as dl
from riemdyn import dynamics_newton as dn
from riemdyn import manifold, normal_shift, verification
from riemdyn.errors import (
    ChartDomainError,
    DegenerateWError,
    EvalDomainError,
    NonConvergenceError,
    NonFiniteStateError,
    NumericOverflowError,
    ZeroVelocityError,
)
from riemdyn.extended_fields import TangentPoint


def test_polar_geodesic_rhs_frozen():
    """Acceleration -Gamma(v, v) at a hand-checked polar state."""
    chart = manifold.builtin_chart("polar2d")
    q = TangentPoint(np.array([2.0, 0.5]), np.array([1.0, 1.0]))
    dx, dv = np.split(dn._flat_rhs(chart, dn.geodesic_system())(0.0, np.concatenate([q.x, q.v])), 2)
    assert np.allclose(dx, [1.0, 1.0])
    # vdot^r = r vtheta^2 = 2, vdot^theta = -2 vr vtheta / r = -1
    assert np.allclose(dv, [2.0, -1.0], atol=1e-14)


def test_covariant_force_is_raised():
    chart = manifold.builtin_chart("polar2d")
    force = dn.ForceField(lambda c, q: np.array([0.0, 1.0]), covariant=True)
    q = TangentPoint(np.array([2.0, 0.0]), np.array([0.0, 0.0]))
    vec = dn.force_vector(chart, force, q)
    # g^theta,theta = 1/r^2 = 0.25
    assert np.allclose(vec, [0.0, 0.25])


def test_potential_force_direction():
    chart = manifold.builtin_chart("euclidean2")
    force = dn.force_from_potential("x1^2/2 + x2")
    q = TangentPoint(np.array([3.0, 0.0]), np.zeros(2))
    assert np.allclose(dn.force_vector(chart, force, q), [-3.0, -1.0])


def test_sphere_geodesic_matches_great_circle():
    chart = manifold.builtin_chart("sphere2d")
    x0, v0 = np.array([1.0, 0.3]), np.array([0.4, 1.1])
    config = dn.IntegratorConfig(method="rk4", dt=1e-3, t_span=(0.0, 1.2), record_every=50)
    trajectory = dn.integrate(chart, dn.geodesic_system(), TangentPoint(x0, v0), config)
    assert trajectory.status == "completed"
    for t, x in zip(trajectory.ts, trajectory.xs):
        exact = verification.sphere_geodesic_oracle(1.0, x0, v0, t)
        d_theta = abs(x[0] - exact[0])
        d_phi = abs((x[1] - exact[1] + math.pi) % (2 * math.pi) - math.pi)
        assert max(d_theta, d_phi) < 1e-9


def test_polar_geodesic_is_straight_in_cartesian():
    chart = manifold.builtin_chart("polar2d")
    r0, th0 = 1.5, 0.4
    vr, vth = 0.3, 0.25
    x0 = np.array([r0, th0])
    config = dn.IntegratorConfig(method="rk4", dt=1e-3, t_span=(0.0, 1.0), record_every=20)
    trajectory = dn.integrate(chart, dn.geodesic_system(), TangentPoint(x0, np.array([vr, vth])), config)
    # push the start state to cartesian and ride the straight line
    c0 = np.array([r0 * math.cos(th0), r0 * math.sin(th0)])
    u = np.array(
        [
            vr * math.cos(th0) - r0 * vth * math.sin(th0),
            vr * math.sin(th0) + r0 * vth * math.cos(th0),
        ]
    )
    for t, x in zip(trajectory.ts, trajectory.xs):
        expected = c0 + t * u
        got = np.array([x[0] * math.cos(x[1]), x[0] * math.sin(x[1])])
        assert np.max(np.abs(got - expected)) < 1e-8


def test_rk45_matches_rk4_on_geodesic():
    chart = manifold.builtin_chart("sphere2d")
    q0 = TangentPoint(np.array([1.0, 0.3]), np.array([0.4, 1.1]))
    fine = dn.IntegratorConfig(method="rk4", dt=1e-4, t_span=(0.0, 1.0), record_every=10 ** 9)
    adaptive = dn.IntegratorConfig(
        method="rk45", t_span=(0.0, 1.0), rtol=1e-10, atol=1e-12, record_every=10 ** 9
    )
    ref = dn.integrate(chart, dn.geodesic_system(), q0, fine)
    got = dn.integrate(chart, dn.geodesic_system(), q0, adaptive)
    assert got.status == "completed"
    assert got.ts[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(got.xs[-1] - ref.xs[-1])) < 1e-8


def test_rk45_alias_accepted():
    config = dn.IntegratorConfig(method="rk45-adaptive")
    assert config.method == "rk45"


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_leaving_the_chart_is_reported(method):
    """A polar run aimed at the origin must stop on every leg, never raise.

    The geodesic ends left_chart. The three legs of a Lagrangian share one
    stop rule: under rk4 all end left_chart at the same sample. Under rk45
    each leg picks its own steps, and the Newtonian leg integrates the
    family's own force. Kinetic: the geodesic leg ends left_chart when the
    stop rule refuses a state, with no error class, a little before the
    classical and canonical legs, which end left_chart on a singular metric
    (t 0.599997 against 0.599999). Fiberwise: the classical leg meets a
    singular fiber Hessian first and ends "singular" (t 0.6473356), a little
    before the Newtonian and canonical legs end left_chart on a singular
    metric (t 0.6473358). The two legs that end together share their
    samples and agree; legs that end at different times are an infinite
    gap apart, not an error.
    """
    chart = manifold.builtin_chart("polar2d")
    q0 = TangentPoint(np.array([0.6, 0.0]), np.array([-1.0, 0.0]))
    config = dn.IntegratorConfig(method=method, dt=1e-3, t_span=(0.0, 2.0), record_every=1)
    trajectory = dn.integrate(chart, dn.geodesic_system(), q0, config)
    assert trajectory.status == "left_chart"
    assert trajectory.ts[-1] < 0.7
    assert np.all(trajectory.xs[:, 0] > 0.0)

    singular_metric = ("left_chart", "SingularMetricError")
    rk45_ends = {
        "kinetic": ([("left_chart", ""), singular_metric, singular_metric], "newton"),
        "fiberwise-phi": (
            [singular_metric, ("singular", "SingularAError"), singular_metric],
            "lagrange",
        ),
    }
    for lag in (
        dl.kinetic_lagrangian(),
        dl.fiberwise_phi_lagrangian("w^2/2 + w^4/10", "exp(-x1/4)"),
    ):
        three = verification.three_legs(chart, lag, q0, config)
        legs = list(three.values())
        gaps = verification.leg_gaps(three)
        if method == "rk4":
            assert [leg.status for leg in legs] == ["left_chart"] * 3
            for leg in legs[1:]:
                assert np.array_equal(leg.ts, legs[0].ts)
            assert max(gaps.values()) <= verification.THREEWAY_TOL
        else:
            statuses, first = rk45_ends[lag.family]
            assert [(leg.status, leg.status.error_class) for leg in legs] == statuses
            ends = {name: leg.ts[-1] for name, leg in three.items()}
            assert min(ends, key=ends.get) == first
            assert max(ends.values()) - min(ends.values()) < 1e-4
            twins = "_vs_".join(name for name in three if name != first)
            assert gaps.pop(twins) <= verification.THREEWAY_TOL
            assert list(gaps.values()) == [math.inf, math.inf]


def test_step_size_underflow():
    """dy/dt = 1/(1 - y) blows up at t = 0.5; the controller gives up with a status."""
    config = dn.IntegratorConfig(method="rk45", t_span=(0.0, 1.0), dt_min=1e-9)

    def rhs(t, y):
        return 1.0 / (1.0 - y)

    ts, ys, status = dn.integrate_ode(rhs, np.array([0.0]), config, lambda y: True)
    assert status == "step_underflow"
    assert status.error == status.error_class == "" and status.stop_time == ts[-1]
    # Every step accepted on the way to the blow-up is kept.
    ts = np.array(ts)
    assert np.all(np.diff(ts) > 0)
    assert abs(ts[-1] - 0.5) < 1e-6
    before = ts < 0.45
    assert np.count_nonzero(before) > 10
    exact = 1.0 - np.sqrt(1.0 - 2.0 * ts[before])
    assert np.max(np.abs(np.concatenate(ys)[before] - exact)) < 1e-6


@pytest.mark.parametrize(
    "error, status",
    [
        (EvalDomainError("log of non-positive value -0.1"), "non_finite"),
        (ZeroVelocityError("velocity modulus 0 is below the zero-velocity floor"), "singular"),
        (DegenerateWError("W' vanishes"), "singular"),
        (NonConvergenceError("phi' inversion stalled at z=0.5"), "singular"),
    ],
)
@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_system_errors_end_the_run_with_a_status(error, status, method):
    """dy/dt = 1 until y passes 0.42, where rhs raises; rk45 halves its step first."""
    config = dn.IntegratorConfig(method=method, dt=0.1, t_span=(0.0, 1.0), dt_min=1e-6)

    def rhs(t, y):
        if y[0] > 0.42:
            raise error
        return np.ones(1)

    ts, ys, run_status = dn.integrate_ode(rhs, np.array([0.0]), config, lambda y: True)
    assert run_status == status and run_status.error == str(error)
    assert run_status.error_class == type(error).__name__
    assert run_status.stop_time == ts[-1]  # every accepted state is recorded
    assert ts[-1] == pytest.approx(ys[-1][0])
    if method == "rk4":
        assert ts[-1] == pytest.approx(0.4)  # the step from 0.4 samples y = 0.45
    else:
        assert 0.42 - 1e-5 < ts[-1] <= 0.42  # halved down to dt_min before stopping


def _overflowing_energy(chart, point):
    """Kinetic energy that raises NumericOverflowError past x1 = 0.42."""
    if point.x[0] > 0.42:
        raise NumericOverflowError(f"energy at x1 = {point.x[0]:.3f} overflows")
    return 0.5 * manifold.speed(chart, point.x, point.v) ** 2


@pytest.mark.parametrize("method", ["rk4", "rk45"])
@pytest.mark.parametrize("record_every", [1, 3])
def test_a_stop_error_from_the_diagnostics_ends_the_run_and_keeps_the_earlier_samples(
    method, record_every
):
    chart = manifold.builtin_chart("euclidean2")
    q0 = TangentPoint(np.zeros(2), np.array([1.0, 0.0]))
    config = dn.IntegratorConfig(
        method=method, dt=0.01, dt_max=0.01, t_span=(0.0, 1.0), record_every=record_every
    )
    trajectory = dn.integrate(chart, dn.geodesic_system(), q0, config, _overflowing_energy)
    assert trajectory.status == "non_finite"
    assert trajectory.status.error.startswith("energy at x1 = 0.4")
    assert trajectory.status.error.endswith(" overflows")
    assert trajectory.status.error_class == "NumericOverflowError"
    # The state whose energy overflowed was accepted, so the stop is there, past x1 = 0.42.
    assert 0.42 < trajectory.status.stop_time <= 0.43
    assert trajectory.status.stop_time > trajectory.ts[-1]
    assert len(trajectory.columns["h"]) == len(trajectory.columns["speed"]) == len(trajectory.ts)
    assert np.all(trajectory.xs[:, 0] <= 0.42)
    assert 0.42 - 0.01 * record_every <= trajectory.ts[-1] <= 0.42
    assert np.allclose(trajectory.columns["h"], 0.5)
    assert np.allclose(trajectory.xs[:, 0], trajectory.ts, rtol=0.0, atol=1e-12)


def test_a_stop_error_from_the_initial_diagnostics_propagates():
    chart = manifold.builtin_chart("euclidean2")
    q0 = TangentPoint(np.array([0.5, 0.0]), np.array([1.0, 0.0]))
    config = dn.IntegratorConfig(method="rk4", dt=0.01, t_span=(0.0, 1.0))
    with pytest.raises(NumericOverflowError, match="energy at x1 = 0.500 overflows"):
        dn.integrate(chart, dn.geodesic_system(), q0, config, _overflowing_energy)


def test_integrate_ode_takes_the_diagnostics_of_the_recorded_states_only():
    config = dn.IntegratorConfig(method="rk4", dt=0.1, t_span=(0.0, 1.0), record_every=3)
    judged, sampled = [], []

    def in_domain(y):
        judged.append(y.copy())
        return lambda: sampled.append(y.copy())

    ts, ys, status = dn.integrate_ode(lambda t, y: np.ones(1), np.zeros(1), config, in_domain)
    assert status == "completed"
    assert len(judged) == 10  # once per accepted step, never on y0
    assert ts == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0])
    assert np.array_equal(np.concatenate(sampled), np.concatenate(ys[1:]))


def test_each_recorded_state_is_validated_once():
    """Speed and energy read the metric the stop rule validated; rhs reads only Gamma."""
    base = manifold.builtin_chart("sphere2d")
    calls = []

    def metric(x):
        calls.append(x.copy())
        return base.metric_fn(x)

    chart = dataclasses.replace(base, metric_fn=metric)
    q0 = TangentPoint(np.array([1.0, 0.3]), np.array([0.3, 0.9]))
    config = dn.IntegratorConfig(method="rk45", t_span=(0.0, 3.0), rtol=1e-9, atol=1e-11)
    trajectory = dn.integrate(
        chart, dn.geodesic_system(), q0, config,
        energy_fn=lambda c, q: 0.5 * manifold.speed(c, q.x, q.v) ** 2,
    )
    assert trajectory.status == "completed"
    assert len(trajectory.ts) > 20
    assert np.array_equal(np.array(calls), trajectory.xs)


def test_a_force_that_overflows_ends_the_run_non_finite(recwarn):
    """An infinite force past x1 = 0.42 makes a stage or a state non-finite."""
    chart = manifold.builtin_chart("euclidean2")

    def ev(chart, point):
        return np.array([math.inf if point.x[0] > 0.42 else 1.0, 0.0])

    q0 = TangentPoint(np.zeros(2), np.array([1.0, 0.0]))
    config = dn.IntegratorConfig(method="rk4", dt=0.01, t_span=(0.0, 1.0))
    trajectory = dn.integrate(chart, dn.ForceField(ev), q0, config)
    assert trajectory.status == "non_finite"
    assert "not finite" in trajectory.status.error
    assert trajectory.status.error_class == "NonFiniteStateError"
    assert trajectory.status.stop_time == trajectory.ts[-1]
    assert np.isfinite(trajectory.xs).all()
    assert 0.3 < trajectory.ts[-1] < 0.42
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_record_every_and_forced_final_sample():
    chart = manifold.builtin_chart("euclidean2")
    q0 = TangentPoint(np.zeros(2), np.array([1.0, 0.0]))
    config = dn.IntegratorConfig(method="rk4", dt=0.1, t_span=(0.0, 0.55), record_every=3)
    trajectory = dn.integrate(chart, dn.geodesic_system(), q0, config)
    # 6 steps of 0.0916..; records at steps 0, 3, 6 plus nothing extra
    assert trajectory.ts[0] == 0.0
    assert trajectory.ts[-1] == pytest.approx(0.55, abs=1e-12)
    assert np.all(np.diff(trajectory.ts) > 0)


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        dn.IntegratorConfig(method="euler")
    with pytest.raises(ValueError):
        dn.IntegratorConfig(dt=0.0)
    with pytest.raises(ValueError):
        dn.IntegratorConfig(t_span=(1.0, 0.0))
    with pytest.raises(ValueError):
        dn.IntegratorConfig(record_every=0)
    with pytest.raises(ValueError):
        dn.IntegratorConfig(dt_min=1.0, dt_max=0.1)


@pytest.mark.parametrize(
    "settings",
    [
        {"dt": math.nan},
        {"dt": math.inf},
        {"t_span": (0.0, math.inf)},
        {"t_span": (math.nan, 1.0)},
        {"rtol": math.nan},
        {"atol": math.inf},
        {"dt_min": math.nan},
        {"dt_max": math.inf},
        {"record_every": math.nan},
    ],
)
def test_integrator_config_refuses_non_finite_settings(settings):
    # A NaN dt used to pass: rk45 then looped forever on a NaN error
    # estimate, and rk4 stopped at once as "left_chart".
    with pytest.raises(ValueError):
        dn.IntegratorConfig(method="rk45", **settings)


@pytest.mark.parametrize("record_every", [2.5, 3.0, True, False, "2", None])
def test_integrator_config_refuses_a_non_integer_record_every(record_every):
    # 2.5 used to pass and record only every fifth step; True passed as 1.
    with pytest.raises(ValueError, match="record_every must be an integer"):
        dn.IntegratorConfig(record_every=record_every)


@pytest.mark.parametrize("record_every", [1, 10**9, np.int64(3), np.uint8(2)])
def test_integrator_config_accepts_integer_record_every(record_every):
    assert dn.IntegratorConfig(record_every=record_every).record_every == record_every


def test_energy_column_and_speed():
    chart = manifold.builtin_chart("polar2d")
    q0 = TangentPoint(np.array([1.5, 0.2]), np.array([0.2, 0.5]))
    config = dn.IntegratorConfig(method="rk4", dt=1e-3, t_span=(0.0, 0.3), record_every=10)
    trajectory = dn.integrate(
        chart,
        dn.geodesic_system(),
        q0,
        config,
        energy_fn=lambda c, q: 0.5 * manifold.speed(c, q.x, q.v) ** 2,
    )
    assert list(trajectory.columns) == ["v", "speed", "h"]
    speeds = trajectory.columns["speed"]
    assert np.allclose(trajectory.columns["h"], 0.5 * speeds ** 2)
    assert np.max(np.abs(speeds - speeds[0])) < 1e-10


def test_trajectory_csv_format(tmp_path):
    chart = manifold.builtin_chart("euclidean2")
    q0 = TangentPoint(np.array([0.1, 0.2]), np.array([1.0, -0.5]))
    config = dn.IntegratorConfig(method="rk4", dt=0.05, t_span=(0.0, 0.2), record_every=1)
    trajectory = dn.integrate(
        chart, dn.geodesic_system(), q0, config,
        energy_fn=lambda c, q: 0.5 * manifold.speed(c, q.x, q.v) ** 2,
    )
    path = tmp_path / "run.csv"
    dn.write_trajectory_csv(trajectory, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,x1,x2,v1,v2,speed,h"
    assert len(lines) == len(trajectory.ts) + 1
    row = lines[1].split(",")
    # 17 significant digits must round-trip exactly
    assert float(row[1]) == trajectory.xs[0][0]
    assert float(row[5]) == trajectory.columns["speed"][0]

    no_energy = dn.integrate(chart, dn.geodesic_system(), q0, config)
    path2 = tmp_path / "run2.csv"
    dn.write_trajectory_csv(no_energy, path2)
    assert path2.read_text().splitlines()[0] == "t,x1,x2,v1,v2,speed"


def test_leg_gaps_are_infinite_between_different_time_grids():
    chart = manifold.builtin_chart("euclidean2")
    q0 = TangentPoint(np.zeros(2), np.array([1.0, 0.0]))

    def leg(t1):
        config = dn.IntegratorConfig(method="rk4", dt=0.1, t_span=(0.0, t1), record_every=1)
        return dn.integrate(chart, dn.geodesic_system(), q0, config)

    gaps = verification.leg_gaps({"a": leg(0.5), "b": leg(0.5), "shorter": leg(0.3)})
    assert gaps == {"a_vs_b": 0.0, "a_vs_shorter": math.inf, "b_vs_shorter": math.inf}


def _bits(*arrays):
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


def _same_floats(got, want):
    """Equal bit for bit, except that any NaN matches any NaN."""
    for a, b in zip(got, want, strict=True):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
            return False
        if a[~np.isnan(a)].tobytes() != b[~np.isnan(b)].tobytes():
            return False
    return True


def _kernel_step(f, t, y, dt, atol, rtol):
    """The package's generated Dormand-Prince step for y's length."""
    return dn._dp_kernel(y.size)(f, t, y, dt, atol, rtol)


def _dp_outcome(step, rhs, t, y, dt, atol=1e-10, rtol=1e-8):
    """(step's (y5, error norm) or the class of the error it raised, the bits of each stage's t and y)."""
    stages = []

    def recorded(t, y):
        stages.append(_bits([t], y))
        return rhs(t, y)

    try:
        return step(recorded, t, y, dt, atol, rtol), stages
    except Exception as exc:  # the class is what the comparison needs
        return type(exc), stages


def test_dp_step_matches_the_generator_sum_oracle_on_the_sphere():
    chart = manifold.builtin_chart("sphere2d")
    rhs = dn._flat_rhs(chart, dn.geodesic_system())
    rng = np.random.default_rng(20260)
    tolerances = np.random.default_rng(5)  # apart, so the states drawn stay those of rng
    lo, hi = chart.sample_box[:, 0], chart.sample_box[:, 1]
    compared = 0
    for _ in range(1200):
        y = np.concatenate([rng.uniform(lo, hi), rng.normal(scale=2.0, size=2)])
        t = float(rng.uniform(0.0, 50.0))
        dt = float(10.0 ** rng.uniform(-5.0, -0.3))
        atol, rtol = (10.0 ** tolerances.uniform(-12.0, -3.0, size=2)).tolist()
        try:
            want = dp_oracle.dp_step_and_norm(rhs, t, y, dt, atol, rtol)
        except ChartDomainError:
            # A stage left the chart; the generated step must fail there too.
            with pytest.raises(ChartDomainError):
                _kernel_step(rhs, t, y, dt, atol, rtol)
            continue
        assert _bits(*_kernel_step(rhs, t, y, dt, atol, rtol)) == _bits(*want)
        compared += 1
    assert compared >= 1000


def test_dp_step_matches_the_oracle_on_the_blow_up_system():
    """The scalar dy/dt = 1/(1 - y) of test_step_size_underflow."""

    def rhs(t, y):
        return 1.0 / (1.0 - y)

    rng = np.random.default_rng(7)
    for _ in range(1000):
        y = np.array([rng.uniform(-3.0, 0.999)])
        dt = float(10.0 ** rng.uniform(-9.0, 0.0))
        got = _kernel_step(rhs, 0.0, y, dt, 1e-10, 1e-8)
        assert _bits(*got) == _bits(*dp_oracle.dp_step_and_norm(rhs, 0.0, y, dt, 1e-10, 1e-8))


def test_dp_step_keeps_the_oracle_sign_of_zero():
    # Python's sum starts from +0, so a sum of -0.0 terms is +0.0; so is a
    # Python-float stage sum, and -0.0 + dt * 0.0 then gives +0.0 in both,
    # in every stage's input as in the result.
    def rhs(t, y):
        return y * 0.0

    y = np.array([-0.0, 0.0, -1.0])
    got, got_stages = _dp_outcome(_kernel_step, rhs, 0.0, y, 0.1)
    want, want_stages = _dp_outcome(dp_oracle.dp_step_and_norm, rhs, 0.0, y, 0.1)
    assert got_stages == want_stages and len(got_stages) == 7
    assert _bits(*got) == _bits(*want)


@pytest.mark.parametrize(
    "chart_params, force",
    [
        ({"name": "euclidean3"}, dn.geodesic_system),
        ({"name": "conformally_flat", "dim": 3, "f": "x1/3 + x2*x3/5"}, dn.geodesic_system),
        ({"name": "euclidean3"}, lambda: dn.force_from_potential("sin(x1) + x2^2/2 + x3^2/3")),
    ],
    ids=["euclidean3-geodesic", "conformally_flat3-geodesic", "euclidean3-potential"],
)
def test_dp_step_matches_the_oracle_on_six_component_states(chart_params, force):
    chart = manifold.builtin_chart(**chart_params)
    rhs = dn._flat_rhs(chart, force())
    rng = np.random.default_rng(31337)
    tolerances = np.random.default_rng(5)  # apart, so the states drawn stay those of rng
    lo, hi = chart.sample_box[:, 0], chart.sample_box[:, 1]
    compared = 0
    for _ in range(300):
        y = np.concatenate([rng.uniform(lo, hi), rng.normal(scale=2.0, size=3)])
        t = float(rng.uniform(0.0, 50.0))
        dt = float(10.0 ** rng.uniform(-5.0, 0.0))
        atol, rtol = (10.0 ** tolerances.uniform(-12.0, -3.0, size=2)).tolist()
        with np.errstate(all="ignore"):
            want, want_stages = _dp_outcome(dp_oracle.dp_step_and_norm, rhs, t, y, dt, atol, rtol)
        got, got_stages = _dp_outcome(_kernel_step, rhs, t, y, dt, atol, rtol)
        assert got_stages == want_stages
        if isinstance(want, type):
            assert got is want
            continue
        assert _bits(*got) == _bits(*want)
        compared += 1
    assert compared >= 250


@pytest.mark.parametrize("stage", range(1, 7))
def test_dp_step_carries_a_later_stage_inf_and_nan_as_the_oracle_does(stage):
    """A stage that returns +-inf or NaN reaches y5 and the error estimate as in array form.

    The stage after it reads those values in its input; the zero weights
    of the tableau turn an infinite stage into NaN. The Python-float sums
    raise no warning where the oracle's arrays do.
    """
    bad = np.array([math.inf, -math.inf, math.nan, 1e308, -0.0, 5e-324])

    def rhs_with_bad_stage():
        calls = []

        def rhs(t, y):
            calls.append(t)
            return bad.copy() if len(calls) == stage + 1 else 0.5 * y + t

        return rhs

    y = np.array([0.3, -0.2, 0.1, 0.7, 0.4, -0.5])
    with np.errstate(all="ignore"):
        want = dp_oracle.dp_step_and_norm(rhs_with_bad_stage(), 1.0, y, 0.1, 1e-10, 1e-8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _kernel_step(rhs_with_bad_stage(), 1.0, y, 0.1, 1e-10, 1e-8)
    assert not all(np.isfinite(got[0])) and math.isnan(got[1])
    assert _same_floats(got, want)


def _drawn_stages(ks):
    """A right-hand side whose i-th call returns row i of ks, whatever its input."""
    rows = iter(ks)
    return lambda t, y: next(rows).copy()


# Signed zeros, infinities, NaN, a subnormal, a value whose square overflows
# and one whose scaled square is subnormal.
_NORM_SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e200, 1e-160]
# The running-sum norm against np.add.reduce's pairwise one, relative to the
# latter: over the draws of the test below the worst gap was 1.3 eps, and
# 1.5 eps at state length 2,000. The bound is about three times that.
_NORM_GAP = 4.0 * np.finfo(float).eps


@pytest.mark.parametrize("m", range(1, 18))
def test_dp_kernel_norm_is_the_running_sum_of_the_squares(m):
    """The generated error norm against the oracle's running sum on its y5 - y4,
    bit for bit, and against np.add.reduce's norm within _NORM_GAP.

    The stages are drawn, not computed, over twelve decades. One draw in
    three puts a special value in y and in a stage, one in three scales
    components down so that their squared scaled errors are subnormal.
    Below 8 terms np.add.reduce sums left to right too; from 8 it sums
    pairwise and gives other bits on many draws, and where it is not
    finite neither is the running sum. The generated step raises no warning.
    """
    rng = np.random.default_rng(900 + m)
    finite = reordered = subnormal = 0
    for draw in range(300):
        y = rng.normal(size=m) * 10.0 ** rng.uniform(-6.0, 6.0, size=m)
        ks = rng.normal(size=(7, m)) * 10.0 ** rng.uniform(-6.0, 6.0, size=(7, m))
        dt = float(10.0 ** rng.uniform(-3.0, 0.0))
        atol, rtol = (10.0 ** rng.uniform(-12.0, 0.0, size=2)).tolist()
        if draw % 3 == 1:
            y[rng.integers(m)] = rng.choice(_NORM_SPECIALS)
            ks[rng.integers(7), rng.integers(m)] = rng.choice(_NORM_SPECIALS)
        elif draw % 3 == 2:
            tiny = rng.random(m) < 0.5
            y[tiny] *= 1e-160
            ks[:, tiny] *= 10.0 ** rng.uniform(-165.0, -155.0, size=(7, int(tiny.sum())))
            atol = 1.0
        with np.errstate(all="ignore"):
            y5, err = dp_oracle.dp_step(_drawn_stages(ks), 0.0, y, dt)
            want = (y5, dp_oracle.error_norm(y, y5, err, atol, rtol))
            pairwise = dp_oracle.numpy_error_norm(y, y5, err, atol, rtol)
            q = dp_oracle.scaled_error(y, y5, err, atol, rtol)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _kernel_step(_drawn_stages(ks), 0.0, y, dt, atol, rtol)
        assert _same_floats(got, want)
        if math.isfinite(pairwise):
            finite += 1
            assert abs(got[1] - pairwise) <= _NORM_GAP * pairwise
            reordered += got[1] != pairwise
            subnormal += bool(np.any((q != 0.0) & (np.abs(q) < 1.5e-154)))
        else:
            assert _same_floats([got[1]], [pairwise])
    assert finite >= 200 and subnormal >= 30
    assert reordered >= 15 if m >= 8 else reordered == 0


def test_dp_kernel_compiles_and_matches_the_oracle_at_state_length_2000():
    """A euclidean chart of dim 1,000 has states of length 2,000, and nothing bounds dim.

    The running sum is 250 statements of eight terms. np.add.reduce's
    pairwise sum gives other bits here, within _NORM_GAP.
    """
    rng = np.random.default_rng(2000)
    scale = 10.0 ** rng.uniform(-6.0, 6.0, size=2000)

    def rhs(t, y):
        return np.sin(y) * scale + t

    y = rng.normal(size=2000) * 10.0 ** rng.uniform(-3.0, 3.0, size=2000)
    got, got_stages = _dp_outcome(_kernel_step, rhs, 0.5, y, 0.01)
    want, want_stages = _dp_outcome(dp_oracle.dp_step_and_norm, rhs, 0.5, y, 0.01)
    assert got_stages == want_stages and len(got_stages) == 7
    assert _bits(*got) == _bits(*want)
    y5, err = dp_oracle.dp_step(rhs, 0.5, y, 0.01)
    pairwise = dp_oracle.numpy_error_norm(y, y5, err, 1e-10, 1e-8)
    assert pairwise != got[1] and abs(got[1] - pairwise) <= _NORM_GAP * pairwise


def _python(source):
    """Run source in a new interpreter on this package; fail after 60 s instead of hanging."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dn.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", source],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_importing_riemdyn_generates_no_kernel():
    """A step is generated on the first rk45 run at its state length, once."""
    out = _python(
        "import numpy as np, riemdyn, riemdyn.cli\n"
        "from riemdyn import dynamics_newton as dn, manifold\n"
        "from riemdyn.extended_fields import TangentPoint\n"
        "print(sorted(dn._DP_KERNELS))\n"
        "q0 = TangentPoint(np.array([1.0, 0.3]), np.array([0.3, 0.9]))\n"
        "for method in ('rk4', 'rk45', 'rk45'):\n"
        "    config = dn.IntegratorConfig(method=method, t_span=(0.0, 0.1))\n"
        "    dn.integrate(manifold.builtin_chart('sphere2d'), dn.geodesic_system(), q0, config)\n"
        "print(sorted(dn._DP_KERNELS))\n"
    )
    assert out == ["[]", "[4]"]


def test_a_step_that_cannot_advance_t_ends_the_run_step_underflow():
    """At t = 1e17 a step of 1e-3 leaves t unchanged; both methods stop there with the initial sample.

    The loop that never ended instead fails by the subprocess timeout.
    """
    out = _python(
        "import numpy as np\n"
        "from riemdyn import dynamics_newton as dn, manifold\n"
        "from riemdyn.extended_fields import TangentPoint\n"
        "q0 = TangentPoint(np.zeros(2), np.array([1.0, 0.0]))\n"
        "for config in (\n"
        "    dn.IntegratorConfig(method='rk4', dt=1e-3, t_span=(1e17, 1e17 + 64)),\n"
        "    dn.IntegratorConfig(method='rk45', t_span=(1e300, 1.0000000001e300)),\n"
        "):\n"
        "    run = dn.integrate(manifold.builtin_chart('euclidean2'), dn.geodesic_system(), q0, config)\n"
        "    print(run.status, len(run.ts), run.status.stop_time, run.status.error_class or '-', run.status.error)\n"
    )
    assert out == [
        "step_underflow 1 1e+17 - step dt = 0.001 does not advance t = 1e+17",
        "step_underflow 1 1e+300 - step dt = 0.001 does not advance t = 1e+300",
    ]


# Gamma entries and velocities: finite, special (signed zeros, infinities,
# NaN, subnormals, values whose products overflow) and any double at all.
_SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310, 1e308, -1.7e308]
_CONTRACTION_FLOATS = st.one_of(
    st.floats(-1e3, 1e3), st.sampled_from(_SPECIAL_FLOATS), st.floats()
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(_CONTRACTION_FLOATS, min_size=n**3, max_size=n**3),
            st.lists(_CONTRACTION_FLOATS, min_size=n, max_size=n),
        )
    )
)
def test_gamma_vv_has_the_bits_of_einsum_on_any_entries(drawn):
    entries, v = drawn
    n = len(v)
    gamma, v = np.array(entries).reshape(n, n, n), np.array(v)
    with np.errstate(all="ignore"):
        want = np.einsum("kij,i,j->k", gamma, v, v)
    assert _same_floats([dn._gamma_vv(gamma, v)], [want])


def test_gamma_vv_has_the_bits_of_einsum_on_dense_gamma():
    """Dense random Gamma for dim 1 to 4, where another summation order shows.

    The grouping Gamma[k, i, j] * (v_i * v_j) gives other bits on many of
    these draws, so a numpy whose einsum changed its order fails here.
    """
    rng = np.random.default_rng(2024)
    regrouped = 0
    for n in range(1, 5):
        for _ in range(250):
            gamma = rng.normal(size=(n, n, n)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(n, n, n))
            v = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0, size=n)
            want = np.einsum("kij,i,j->k", gamma, v, v)
            assert _bits(dn._gamma_vv(gamma, v)) == _bits(want)
            other = [
                sum(gamma[k, i, j] * (v[i] * v[j]) for i in range(n) for j in range(n))
                for k in range(n)
            ]
            regrouped += _bits(other) != _bits(want)
    assert regrouped >= 200


def test_rk45_trajectory_is_bitwise_that_of_the_oracle_step(monkeypatch):
    chart = manifold.builtin_chart("sphere2d")
    q0 = TangentPoint(np.array([1.0, 0.3]), np.array([0.3, 0.9]))
    config = dn.IntegratorConfig(method="rk45", t_span=(0.0, 10.0), rtol=1e-9, atol=1e-11)

    def energy(c, q):
        return 0.5 * manifold.speed(c, q.x, q.v) ** 2

    got = dn.integrate(chart, dn.geodesic_system(), q0, config, energy_fn=energy)
    monkeypatch.setattr(dn, "_dp_kernel", lambda m: dp_oracle.dp_step_and_norm)
    want = dn.integrate(chart, dn.geodesic_system(), q0, config, energy_fn=energy)
    assert got.status == want.status == "completed"
    assert len(got.ts) > 100
    assert list(got.columns) == list(want.columns) == ["v", "speed", "h"]
    assert _bits(got.ts, got.xs, *got.columns.values()) == _bits(want.ts, want.xs, *want.columns.values())
    # Speed and energy share each sample's metric; each matches a fresh chart's.
    fresh = manifold.builtin_chart("sphere2d")
    speeds = [manifold.speed(fresh, x, v) for x, v in zip(got.xs, got.vs)]
    assert _bits(got.columns["speed"]) == _bits(speeds)
    energies = [energy(fresh, TangentPoint(x, v)) for x, v in zip(got.xs, got.vs)]
    assert _bits(got.columns["h"]) == _bits(energies)


def _rhs_charts():
    names = ["euclidean2", "euclidean3", "polar2d", "sphere2d", "hyperbolic_half_plane"]
    return [manifold.builtin_chart(name) for name in names] + [
        manifold.builtin_chart("conformally_flat", f="x1/3")
    ]


_RHS_FORCES = {
    "geodesic": dn.geodesic_system,
    "potential": lambda: dn.force_from_potential("sin(x1) + x2^2/2"),
    "conformal": lambda: normal_shift.conformal_force_field("x1/2"),
    "lagrangian": lambda: dl.lagrangian_force_field(
        dl.catalog_lagrangian("kinetic-potential", U="sin(x1) + x2^2/2")
    ),
}


def _outcome(rhs, y):
    """The bits of rhs(0, y), or the class of the error it raised."""
    try:
        return _bits(rhs(0.0, y))
    except Exception as exc:  # the class is what the comparison needs
        return type(exc)


@pytest.mark.parametrize("force_name", sorted(_RHS_FORCES))
def test_flat_rhs_is_bitwise_the_tangent_point_oracle_on_every_chart(force_name):
    rng = np.random.default_rng(4242)
    for chart in _rhs_charts():
        force = _RHS_FORCES[force_name]()
        got, want = dn._flat_rhs(chart, force), rhs_oracle.flat_rhs(chart, force)
        states = verification.sample_tangent_states(chart, 25, rng, min_speed=0.0)
        # Zero and signed-zero velocities: 0.0 - Gamma(v, v) must keep the oracle's zeros.
        states += [TangentPoint(states[0].x, v) for v in (np.zeros(chart.dim), -np.zeros(chart.dim))]
        for point in states:
            y = np.concatenate([point.x, point.v])
            assert _outcome(got, y) == _outcome(want, y)


@pytest.mark.parametrize("force_name", sorted(_RHS_FORCES) + ["log"])
def test_flat_rhs_fails_outside_the_chart_as_the_oracle_does(force_name):
    forces = dict(_RHS_FORCES, log=lambda: dn.force_from_potential("log(x1) + log(x2)"))
    refused = 0
    for chart in _rhs_charts():
        force = forces[force_name]()
        got, want = dn._flat_rhs(chart, force), rhs_oracle.flat_rhs(chart, force)
        box = chart.sample_box
        outside = box[:, 0] - 10.0 * (box[:, 1] - box[:, 0])
        v = np.full(chart.dim, 0.3)
        if not manifold.in_domain(chart, outside):
            # Gamma is read first: its domain error comes before log's EvalDomainError.
            y = np.concatenate([outside, v])
            assert _outcome(got, y) == _outcome(want, y) == ChartDomainError
            refused += 1
        nan_state = np.concatenate([np.full(chart.dim, np.nan), v])
        with pytest.raises(NonFiniteStateError):
            got(0.0, nan_state)
        assert _outcome(want, nan_state) == NonFiniteStateError
    assert refused >= 3


def test_flat_rhs_returns_a_new_array_each_call():
    chart = manifold.builtin_chart("sphere2d")
    rhs = dn._flat_rhs(chart, dn.geodesic_system())
    y = np.array([1.0, 0.3, 0.4, -0.7])
    first, second = rhs(0.0, y), rhs(0.0, y)
    assert first is not second and not np.shares_memory(first, y)
    assert _bits(first) == _bits(second)


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_a_geodesic_run_never_calls_the_zero_force_and_reads_gamma_once_per_rhs(
    monkeypatch, method
):
    calls = Counter()

    def counted(fn, key):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)

        return wrapped

    integrate_ode = dn.integrate_ode
    monkeypatch.setattr(dn, "_zero_force", counted(dn._zero_force, "force"))
    monkeypatch.setattr(manifold, "christoffel_at", counted(manifold.christoffel_at, "christoffel_at"))
    monkeypatch.setattr(
        dn, "integrate_ode",
        lambda rhs, y0, config, in_domain: integrate_ode(counted(rhs, "rhs"), y0, config, in_domain),
    )
    chart = manifold.builtin_chart("sphere2d")
    q0 = TangentPoint(np.array([1.0, 0.3]), np.array([0.3, 0.9]))
    config = dn.IntegratorConfig(method=method, dt=1e-2, t_span=(0.0, 3.0), rtol=1e-9, atol=1e-11)
    trajectory = dn.integrate(chart, dn.geodesic_system(), q0, config)
    assert trajectory.status == "completed"
    assert calls["force"] == 0
    assert calls["christoffel_at"] == calls["rhs"] > 0
    if method == "rk4":
        assert calls["rhs"] == 4 * (len(trajectory.ts) - 1)


@pytest.mark.parametrize("force_name", ["geodesic", "potential"])
@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_a_run_is_bitwise_that_of_the_oracle_rhs(monkeypatch, force_name, method):
    chart = manifold.builtin_chart("sphere2d")
    q0 = TangentPoint(np.array([1.0, 0.3]), np.array([0.3, 0.9]))
    config = dn.IntegratorConfig(method=method, dt=1e-2, t_span=(0.0, 3.0), rtol=1e-9, atol=1e-11)
    got = dn.integrate(chart, _RHS_FORCES[force_name](), q0, config)
    monkeypatch.setattr(dn, "_flat_rhs", rhs_oracle.flat_rhs)
    want = dn.integrate(chart, _RHS_FORCES[force_name](), q0, config)
    assert got.status == want.status == "completed"
    assert list(got.columns) == list(want.columns) == ["v", "speed"]
    assert _bits(got.ts, got.xs, *got.columns.values()) == _bits(want.ts, want.xs, *want.columns.values())


# The writers as they were before they shared one table writer: the header
# spelled out, then one format_float call per value, row by row.


def _oracle_csv(trajectory, header, path):
    lines = [header]
    for i in range(len(trajectory.ts)):
        row = [trajectory.ts[i], *trajectory.xs[i]]
        for column in trajectory.columns.values():
            row.extend(np.atleast_1d(column[i]))
        lines.append(",".join(exports_oracle.format_float(val) for val in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _awkward_columns(rows, width):
    """Special values first, then random bit patterns (subnormals and NaN payloads too)."""
    special = [math.inf, -math.inf, math.nan, -math.nan, -0.0, 0.0, 5e-324, -5e-324,
               1e300, -1e300, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3]
    rng = np.random.default_rng(99)
    values = rng.integers(0, 2**64, size=rows * width, dtype=np.uint64).view(np.float64)
    values[: len(special)] = special
    rng.shuffle(values[: 4 * len(special)])
    return values.reshape(rows, width)


# Each record layout: its header, its dimension and its column names.
_CSV_LAYOUTS = {
    "tangent-with-h": ("t,x1,x2,x3,v1,v2,v3,speed,h", 3, ("v", "speed", "h")),
    "tangent": ("t,x1,x2,x3,v1,v2,v3,speed", 3, ("v", "speed")),
    "cotangent": ("t,x1,x2,p1,p2,H", 2, ("p", "H")),
}


@pytest.mark.parametrize("layout", _CSV_LAYOUTS)
def test_trajectory_csv_bytes_match_the_row_by_row_oracle(tmp_path, layout):
    header, n, names = _CSV_LAYOUTS[layout]
    table = _awkward_columns(40, 2 * n + len(names))
    columns = {names[0]: table[:, 1 + n : 1 + 2 * n]}
    columns.update(zip(names[1:], table[:, 1 + 2 * n :].T))
    trajectory = dn.Trajectory(table[:, 0], table[:, 1 : 1 + n], columns, "completed")
    dn.write_trajectory_csv(trajectory, tmp_path / "new.csv")
    _oracle_csv(trajectory, header, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
