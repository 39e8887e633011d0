"""Named verification suites over the whole dynamics stack.

Each suite samples states or integrates trajectories on builtin charts,
evaluates a family of residuals that should vanish identically in exact
arithmetic (or, for convergence checks, hit a known rate), and returns a
JSON-friendly report:

    {"suite": ..., "seed": ..., "checks": [...], "passed": bool}

with one entry per check holding the measured value, the tolerance it
is held to, and an optional non-zero target. Tolerances are pinned here
as module constants so the command line, the test suite and any direct
caller all grade against the same numbers.

Suites: identities, theorem81, chainrules, threeway, projectors,
legendre, cancellation, rk4order, all.

Every cross-check of the three formulations goes through three_legs,
which integrates one system three ways, the Newtonian leg with the
family's own force, and leg_gaps. threeway runs three_legs once per
scenario of _EL_PAIRS and reads its Euler-Lagrange residuals, leg gaps
and conservation drifts from that one run; a check computed from a run
that did not complete reads inf.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time

import numpy as np

from . import (
    dynamics_hamilton,
    dynamics_lagrange,
    dynamics_newton,
    extended_fields,
    manifold,
    normal_shift,
)
from .dynamics_newton import IntegratorConfig
from .extended_fields import CotangentPoint, CurveSample, TangentPoint

__all__ = [
    "SUITE_NAMES",
    "Leg",
    "NoScenarioError",
    "leg_gaps",
    "run_suite",
    "sample_tangent_states",
    "sample_cotangent_states",
    "synthetic_curve_samples",
    "sphere_geodesic_oracle",
    "three_legs",
]

IDENTITY_TOL = 1e-6
EL_COMPARE_TOL = 1e-5
THREEWAY_TOL = 1e-5
FORCE_MATCH_TOL = 1e-10
CONFORMAL_FLAT_TOL = 1e-6
CONFORMAL_SPHERE_TOL = 1e-5
PROJECTOR_ALGEBRA_TOL = 1e-12
INVERSE_HESSIAN_TOL = 1e-10
HESSIAN_FD_TOL = 1e-6
ENERGY_DRIFT_TOL = 1e-6
SPEED_DRIFT_TOL = 1e-8
LEGENDRE_ROUNDTRIP_TOL = 1e-9
LEGENDRE_MAX_ITER = 10
CANCELLATION_TOL = 1e-8
CHAIN_RULE_TOL = 1e-5
RK4_EXPONENT_TARGET = 4.0
RK4_EXPONENT_SLACK = 0.3

_IDENTITY_CHARTS = ("euclidean2", "polar2d", "sphere2d")
_POTENTIAL = "sin(x1) + x2^2/2"
_CONFORMAL_F = "x1/2"
_PHI = "w^2/2 + w^4/10"


def _check(name: str, value: float, tolerance: float, target: float = 0.0) -> dict:
    value = float(value)
    entry = {
        "name": name,
        "value": value,
        "tolerance": float(tolerance),
        "pass": bool(abs(value - target) <= tolerance),
    }
    if target != 0.0:
        entry["target"] = float(target)
    return entry


def _completed(value: float, *statuses: str) -> float:
    """value when every run's status is "completed", else inf."""
    return value if all(status == "completed" for status in statuses) else math.inf


def _report(suite: str, seed: int, checks: list[dict]) -> dict:
    return {
        "suite": suite,
        "seed": seed,
        "checks": checks,
        "passed": all(c["pass"] for c in checks),
    }


# ---------------------------------------------------------------------------
# Samplers and oracles


# The samplers keep this share of the sample box's width clear on each side.
_SAMPLE_MARGIN = 0.05
# synthetic_curve_samples: the number of samples and the time between them.
_CURVE_SAMPLE_COUNT = 61
_CURVE_SAMPLE_DT = 2.5e-4


def _inner_box(chart):
    """The lower and upper corners of chart's sample box less _SAMPLE_MARGIN."""
    box = chart.sample_box
    if box is None:
        raise ValueError(f"chart {chart.name!r} has no sample box")
    width = box[:, 1] - box[:, 0]
    return box[:, 0] + _SAMPLE_MARGIN * width, box[:, 1] - _SAMPLE_MARGIN * width


def sample_tangent_states(chart, count, rng, min_speed=0.2):
    """Uniform states in the chart's sample box with |v| >= min_speed."""
    lo, hi = _inner_box(chart)
    states = []
    while len(states) < count:
        x = rng.uniform(lo, hi)
        v = rng.uniform(-1.5, 1.5, chart.dim)
        if manifold.speed(chart, x, v) < min_speed:
            continue
        states.append(TangentPoint(x, v))
    return states


def sample_cotangent_states(chart, count, rng, min_modulus=0.2):
    """Uniform cotangent states with momentum modulus >= min_modulus."""
    lo, hi = _inner_box(chart)
    states = []
    while len(states) < count:
        x = rng.uniform(lo, hi)
        p = rng.uniform(-1.5, 1.5, chart.dim)
        ginv = manifold.inverse_metric_at(chart, x)
        if math.sqrt(max(float(p @ ginv @ p), 0.0)) < min_modulus:
            continue
        states.append(CotangentPoint(x, p))
    return states


def synthetic_curve_samples(chart, rng):
    """A short smooth curve in the chart with analytic velocity and accel.

    Coordinates follow c_k + a_k sin(omega_k t + phase_k) + b_k t with
    amplitudes capped to stay inside the sample box over the window.
    The covariant acceleration D_t v = vdot + Gamma(v, v) is attached to
    every sample, so chain-rule checks get exact curve data.
    """
    box = chart.sample_box
    width = box[:, 1] - box[:, 0]
    center = rng.uniform(box[:, 0] + 0.3 * width, box[:, 1] - 0.3 * width)
    amp = rng.uniform(0.05, 0.2) * (width / 2.0)
    omega = rng.uniform(0.8, 2.5, chart.dim)
    phase = rng.uniform(0.0, 2.0 * math.pi, chart.dim)
    drift = rng.uniform(-0.5, 0.5, chart.dim) * (width / 2.0) * 0.1
    t0 = rng.uniform(0.0, 1.0)
    samples = []
    for i in range(_CURVE_SAMPLE_COUNT):
        t = t0 + i * _CURVE_SAMPLE_DT
        x = center + amp * np.sin(omega * t + phase) + drift * t
        v = amp * omega * np.cos(omega * t + phase) + drift
        vdot = -amp * omega * omega * np.sin(omega * t + phase)
        gamma = manifold.christoffel_at(chart, x)
        accel = vdot + np.einsum("kij,i,j->k", gamma, v, v)
        samples.append(CurveSample(t, TangentPoint(x, v), accel))
    return samples


def sphere_geodesic_oracle(radius, x0, v0, t):
    """Closed-form great circle on the radius-R sphere in (theta, phi).

    The initial point and velocity are pushed to the embedding, rotated
    along the great circle p(t) = cos(wt) p0 + sin(wt)/w u with
    w = |u|/R, and pulled back through arccos/atan2.
    """
    theta, phi = float(x0[0]), float(x0[1])
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    p0 = radius * np.array([st * cp, st * sp, ct])
    d_theta = radius * np.array([ct * cp, ct * sp, -st])
    d_phi = radius * np.array([-st * sp, st * cp, 0.0])
    u = v0[0] * d_theta + v0[1] * d_phi
    speed = float(np.linalg.norm(u))
    if speed == 0.0:
        p = p0
    else:
        w = speed / radius
        p = math.cos(w * t) * p0 + (math.sin(w * t) / w) * u
    theta_t = math.acos(min(1.0, max(-1.0, p[2] / radius)))
    phi_t = math.atan2(p[1], p[0])
    return np.array([theta_t, phi_t])


def _angle_diff(a, b):
    return (a - b + math.pi) % (2.0 * math.pi) - math.pi


def _charts_for(default_names, chart_name):
    names = default_names if chart_name is None else (chart_name,)
    return [(name, manifold.builtin_chart(name)) for name in names]


# The catalog Lagrangians of the suites, in the order the suites run them.
_SYSTEMS = {
    "kinetic": {},
    "kinetic-potential": {"U": _POTENTIAL},
    "conformal-kinetic": {"f": _CONFORMAL_F},
    "fiberwise-phi": {"phi": _PHI, "C": "exp(-x1/4)"},
}


def _systems(*families):
    """(family, Lagrangian) pairs of _SYSTEMS in table order, only the named families if any."""
    return [
        (family, dynamics_lagrange.catalog_lagrangian(family, **params))
        for family, params in _SYSTEMS.items()
        if not families or family in families
    ]


def _system(family):
    return dynamics_lagrange.catalog_lagrangian(family, **_SYSTEMS[family])


class NoScenarioError(ValueError):
    """A suite has no scenario on the requested chart; run_suite("all") skips that suite."""


def _scenarios_on(suite, scenarios, chart_name):
    """The scenarios whose second entry, the chart, is chart_name; all of them when it is None."""
    if chart_name is None:
        return scenarios
    kept = [s for s in scenarios if s[1] == chart_name]
    if not kept:
        raise NoScenarioError(f"suite {suite!r} has no scenario on chart {chart_name!r}")
    return kept


# ---------------------------------------------------------------------------
# The three-leg harness


@dataclasses.dataclass(frozen=True)
class Leg:
    """A leg's trajectory with its velocity and energy per sample: dH/dp and H on the canonical leg."""

    trajectory: dynamics_newton.Trajectory | dynamics_hamilton.CotangentTrajectory
    vs: np.ndarray
    energies: np.ndarray


def three_legs(chart, lag, q0: TangentPoint, config: IntegratorConfig) -> dict[str, Leg]:
    """The Newtonian, classical Lagrangian and canonical Hamiltonian legs of lag from q0.

    The legs share q0 and config but derive their right-hand sides through
    disjoint code paths. The Newtonian leg integrates F - Gamma(v, v) with
    the family's own force from dynamics_lagrange.FAMILIES; the classical
    leg never reads Gamma. The tangent legs record energy_h. A Lagrangian
    whose family has no FAMILIES row has no Newtonian force: ValueError.
    """
    if lag.family not in dynamics_lagrange.FAMILIES:
        raise ValueError(f"family {lag.family!r} has no Newtonian force in FAMILIES")
    force = dynamics_lagrange.FAMILIES[lag.family][2](lag)
    ctx = dynamics_hamilton.LegendreContext(lag)
    ham = dynamics_hamilton.hamiltonian_from_lagrangian(ctx)

    def energy(c, q):
        return dynamics_hamilton.energy_h(c, lag, q)

    newton = dynamics_newton.integrate(chart, force, q0, config, energy_fn=energy)
    lagrange = dynamics_lagrange.integrate_lagrangian(chart, lag, q0, config, energy_fn=energy)
    p0 = dynamics_hamilton.legendre_forward(ctx, chart, q0)
    hamilton = dynamics_hamilton.integrate_hamiltonian(chart, ham, p0, config)
    vs_h = np.stack([ham.dp(chart, CotangentPoint(x, p)) for x, p in zip(hamilton.xs, hamilton.ps)])
    return {
        "newton": Leg(newton, newton.vs, newton.energies),
        "lagrange": Leg(lagrange, lagrange.vs, lagrange.energies),
        "hamilton": Leg(hamilton, vs_h, hamilton.h_values),
    }


def leg_gaps(legs: dict[str, Leg]) -> dict[str, float]:
    """Sup of |dx| and |dv| for each pair of legs, keyed "a_vs_b"; inf where sample times differ."""
    gaps = {}
    for (name_a, a), (name_b, b) in itertools.combinations(legs.items(), 2):
        gap = math.inf
        if np.array_equal(a.trajectory.ts, b.trajectory.ts):
            gap = max(
                float(np.max(np.abs(a.trajectory.xs - b.trajectory.xs))),
                float(np.max(np.abs(a.vs - b.vs))),
            )
        gaps[f"{name_a}_vs_{name_b}"] = gap
    return gaps


def _drift(values: np.ndarray) -> float:
    return float(np.max(np.abs(values - values[0])))


# ---------------------------------------------------------------------------
# Suites


def suite_identities(chart_name=None, seed=0):
    """Structural identities between each Lagrangian and its Hamiltonian."""
    rng = np.random.default_rng(seed)
    checks = []
    for name, chart in _charts_for(_IDENTITY_CHARTS, chart_name):
        states = sample_tangent_states(chart, 50, rng)
        for family, lag in _systems("kinetic", "kinetic-potential", "conformal-kinetic"):
            ctx = dynamics_hamilton.LegendreContext(lag)
            report = dynamics_hamilton.identity_suite(ctx, chart, states)
            for identity, value in report.residuals.items():
                checks.append(
                    _check(f"{identity}[{family},{name}]", value, IDENTITY_TOL)
                )
    return _report("identities", seed, checks)


def suite_theorem81(chart_name=None, seed=0):
    """Shift forces with W = |v| e^(-f) against the conformal family.

    Pointwise the two force formulas must agree; integrated, the
    conformal flow must land on the geodesics of the rescaled metric
    e^(-2f) g run with identical stepper settings.
    """
    rng = np.random.default_rng(seed)
    scenarios = [
        ("x1", "euclidean2", np.array([0.0, 0.0]), np.array([0.4, 0.3]), CONFORMAL_FLAT_TOL),
        ("x1/2", "sphere2d", np.array([1.0, 0.3]), np.array([0.3, 0.9]), CONFORMAL_SPHERE_TOL),
    ]
    checks = []
    for f, name, x0, v0, sup_tol in _scenarios_on("theorem81", scenarios, chart_name):
        chart = manifold.builtin_chart(name)
        shift = normal_shift.NormalShiftForce(normal_shift.conformal_shift_profile(f))
        shift_force = normal_shift.normal_shift_force_field(shift)
        conformal_force = normal_shift.conformal_force_field(f)
        worst = 0.0
        for state in sample_tangent_states(chart, 100, rng):
            a = shift_force.eval_fn(chart, state)
            b = conformal_force.eval_fn(chart, state)
            worst = max(worst, float(np.max(np.abs(a - b))))
        checks.append(_check(f"shift_equals_conformal_force[{name}]", worst, FORCE_MATCH_TOL))

        config = IntegratorConfig(method="rk4", dt=1e-3, t_span=(0.0, 1.0), record_every=10)
        outcome = normal_shift.conformal_geodesic_check(chart, f, TangentPoint(x0, v0), config)
        statuses = outcome.force_status, outcome.geodesic_status
        for check, value in (
            ("conformal_flow_vs_rescaled_geodesic", outcome.sup_distance),
            ("conformal_flow_parameter_discrepancy", outcome.parameter_discrepancy),
        ):
            checks.append(_check(f"{check}[{name}]", _completed(value, *statuses), sup_tol))
    return _report("theorem81", seed, checks)


def suite_chainrules(chart_name=None, seed=0):
    """Covariant chain rule along synthetic curves for three field types."""
    rng = np.random.default_rng(seed)
    fields = [
        ("kinetic_energy", extended_fields.kinetic_energy_scalar()),
        ("velocity_vector", extended_fields.velocity_vector_field()),
        ("lowered_velocity", extended_fields.lowered_velocity_field()),
    ]
    checks = []
    for name, chart in _charts_for(_IDENTITY_CHARTS, chart_name):
        worst = {label: 0.0 for label, _ in fields}
        for _ in range(20):
            samples = synthetic_curve_samples(chart, rng)
            for label, field in fields:
                residual = extended_fields.chain_rule_check(chart, field, samples)
                worst[label] = max(worst[label], float(np.max(np.abs(residual))))
        for label, _ in fields:
            checks.append(_check(f"chain_rule[{label},{name}]", worst[label], CHAIN_RULE_TOL))
    return _report("chainrules", seed, checks)


# The (family, chart) scenarios of threeway.
_EL_PAIRS = (
    ("kinetic", "polar2d"),
    ("kinetic", "sphere2d"),
    ("kinetic-potential", "euclidean2"),
    ("kinetic-potential", "polar2d"),
    ("conformal-kinetic", "euclidean2"),
    ("conformal-kinetic", "sphere2d"),
    ("fiberwise-phi", "euclidean2"),
    ("fiberwise-phi", "polar2d"),
)

_STARTS = {
    "euclidean2": (np.array([0.1, -0.2]), np.array([0.7, 0.4])),
    "polar2d": (np.array([1.5, 0.2]), np.array([0.2, 0.5])),
    "sphere2d": (np.array([1.0, 0.3]), np.array([0.3, 0.9])),
}


def suite_threeway(chart_name=None, seed=0):
    """Newtonian, classical Lagrangian and canonical Hamiltonian motion, and what it conserves.

    Each scenario of _EL_PAIRS runs three_legs once, recording every step,
    and every check reads that one run:
    - el_residual and el_covariant_vs_classical: the covariant and classical
      Euler-Lagrange residuals along the classical leg;
    - leg_gaps: the pairwise sup distance over the samples, with Hamiltonian
      velocities read off dH/dp;
    - energy_drift_<leg>: energy_h on the tangent legs and H on the
      canonical leg, and speed_drift_geodesic, the Newtonian leg's speed,
      for kinetic.
    A check computed from a leg that did not complete reads inf.
    """
    checks = []
    config = IntegratorConfig(method="rk4", dt=1e-3, t_span=(0.0, 1.0), record_every=1)
    for family, name in _scenarios_on("threeway", _EL_PAIRS, chart_name):
        chart = manifold.builtin_chart(name)
        lag = _system(family)
        legs = three_legs(chart, lag, TangentPoint(*_STARTS[name]), config)
        classical = legs["lagrange"].trajectory
        covariant = dynamics_lagrange.el_residual(chart, lag, classical)
        plain = dynamics_lagrange.classical_el_residual(chart, lag, classical)
        for check, residual in (
            ("el_residual", covariant),
            ("el_covariant_vs_classical", covariant - plain),
        ):
            worst = _completed(float(np.max(np.abs(residual))), classical.status)
            checks.append(_check(f"{check}[{family},{name}]", worst, EL_COMPARE_TOL))
        for pair, gap in leg_gaps(legs).items():
            gap = _completed(gap, *(legs[leg].trajectory.status for leg in pair.split("_vs_")))
            checks.append(_check(f"{pair}[{family},{name}]", gap, THREEWAY_TOL))
        for leg, run in legs.items():
            status = run.trajectory.status
            drift = _completed(_drift(run.energies), status)
            checks.append(_check(f"energy_drift_{leg}[{family},{name}]", drift, ENERGY_DRIFT_TOL))
            if leg == "newton" and family == "kinetic":
                speed_drift = _completed(_drift(run.trajectory.speeds), status)
                checks.append(_check(f"speed_drift_geodesic[{name}]", speed_drift, SPEED_DRIFT_TOL))
    return _report("threeway", seed, checks)


def suite_projectors(chart_name=None, seed=0):
    """Projector algebra and the closed fiber Hessian with its inverse."""
    rng = np.random.default_rng(seed)
    profiles = _systems("kinetic", "conformal-kinetic", "fiberwise-phi")
    checks = []
    for name, chart in _charts_for(_IDENTITY_CHARTS, chart_name):
        states = sample_tangent_states(chart, 30, rng, min_speed=0.3)
        eye = np.eye(chart.dim)
        algebra = 0.0
        for state in states:
            q, p = normal_shift.projectors(chart, state)
            algebra = max(
                algebra,
                float(np.max(np.abs(q.data @ q.data - q.data))),
                float(np.max(np.abs(p.data @ p.data - p.data))),
                float(np.max(np.abs(q.data @ p.data))),
                float(np.max(np.abs(q.data + p.data - eye))),
            )
        checks.append(_check(f"projector_algebra[{name}]", algebra, PROJECTOR_ALGEBRA_TOL))
        for family, lag in profiles:
            stripped = dataclasses.replace(lag, second_fiber_fn=None)
            inverse_gap = 0.0
            fd_gap = 0.0
            for state in states:
                a = dynamics_lagrange.a_matrix(chart, lag, state)
                b = normal_shift.symmetric_b_matrix(chart, lag.profile, state)
                inverse_gap = max(inverse_gap, float(np.max(np.abs(a @ b - eye))))
                a_fd = dynamics_lagrange.a_matrix(chart, stripped, state)
                fd_gap = max(fd_gap, float(np.max(np.abs(a - a_fd))))
            checks.append(
                _check(f"hessian_inverse[{family},{name}]", inverse_gap, INVERSE_HESSIAN_TOL)
            )
            checks.append(
                _check(f"hessian_closed_vs_fd[{family},{name}]", fd_gap, HESSIAN_FD_TOL)
            )
    return _report("projectors", seed, checks)


def suite_legendre(chart_name=None, seed=0):
    """Legendre round trips and Newton iteration counts from cold starts."""
    rng = np.random.default_rng(seed)
    checks = []
    for name, chart in _charts_for(_IDENTITY_CHARTS, chart_name):
        for family, lag in _systems():
            forward_gap = 0.0
            backward_gap = 0.0
            worst_iterations = 0
            ctx = dynamics_hamilton.LegendreContext(lag)
            for state in sample_tangent_states(chart, 100, rng, min_speed=0.3):
                image = dynamics_hamilton.legendre_forward(ctx, chart, state)
                back = dynamics_hamilton.legendre_inverse(ctx, chart, image)
                forward_gap = max(forward_gap, float(np.max(np.abs(back.v - state.v))))
                worst_iterations = max(worst_iterations, ctx.last_iterations)
                again = dynamics_hamilton.legendre_forward(ctx, chart, back)
                backward_gap = max(backward_gap, float(np.max(np.abs(again.p - image.p))))
            checks.append(
                _check(
                    f"roundtrip_v_to_v[{family},{name}]", forward_gap, LEGENDRE_ROUNDTRIP_TOL
                )
            )
            checks.append(
                _check(
                    f"roundtrip_p_to_p[{family},{name}]", backward_gap, LEGENDRE_ROUNDTRIP_TOL
                )
            )
            checks.append(
                _check(
                    f"newton_iterations[{family},{name}]",
                    worst_iterations,
                    LEGENDRE_MAX_ITER,
                )
            )
    return _report("legendre", seed, checks)


def suite_cancellation(chart_name=None, seed=0):
    """Christoffel cancellation in the covariant momentum equation."""
    rng = np.random.default_rng(seed)
    families = _systems("kinetic", "fiberwise-phi")
    checks = []
    for name, chart in _charts_for(("polar2d", "sphere2d"), chart_name):
        states = sample_cotangent_states(chart, 50, rng, min_modulus=0.3)
        for family, lag in families:
            ctx = dynamics_hamilton.LegendreContext(lag)
            ham = dynamics_hamilton.hamiltonian_from_lagrangian(ctx)
            worst = 0.0
            for state in states:
                residual = dynamics_hamilton.covariant_momentum_residual(chart, ham, state)
                worst = max(worst, float(np.max(np.abs(residual))))
            checks.append(
                _check(f"momentum_equation_cancellation[{family},{name}]", worst, CANCELLATION_TOL)
            )
    return _report("cancellation", seed, checks)


def suite_rk4order(chart_name=None, seed=0):
    """Observed RK4 convergence rate against the great-circle oracle."""
    if chart_name is not None and chart_name != "sphere2d":
        raise NoScenarioError("suite 'rk4order' runs on sphere2d only")
    chart = manifold.builtin_chart("sphere2d")
    q0 = TangentPoint(np.array([1.0, 0.3]), np.array([0.4, 1.1]))
    t_final = 1.5
    errors = []
    for dt in (0.02, 0.01):
        config = IntegratorConfig(method="rk4", dt=dt, t_span=(0.0, t_final), record_every=10 ** 9)
        trajectory = dynamics_newton.integrate(
            chart, dynamics_newton.geodesic_system(), q0, config
        )
        exact = sphere_geodesic_oracle(1.0, q0.x, q0.v, trajectory.ts[-1])
        got = trajectory.xs[-1]
        err = max(abs(got[0] - exact[0]), abs(_angle_diff(got[1], exact[1])))
        errors.append(err)
    exponent = math.log2(errors[0] / errors[1])
    checks = [
        _check(
            "rk4_convergence_exponent",
            exponent,
            RK4_EXPONENT_SLACK,
            target=RK4_EXPONENT_TARGET,
        )
    ]
    return _report("rk4order", seed, checks)


_SUITES = {
    "identities": suite_identities,
    "theorem81": suite_theorem81,
    "chainrules": suite_chainrules,
    "threeway": suite_threeway,
    "projectors": suite_projectors,
    "legendre": suite_legendre,
    "cancellation": suite_cancellation,
    "rk4order": suite_rk4order,
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def run_suite(name: str, chart_name: str | None = None, seed: int = 0) -> dict:
    """Run one named suite (or "all", which skips the suites that raise NoScenarioError)."""
    if name == "all":
        checks = []
        for sub, suite in _SUITES.items():
            try:
                report = suite(chart_name, seed)
            except NoScenarioError:
                continue
            for check in report["checks"]:
                checks.append(dict(check, name=f"{sub}/{check['name']}"))
        return _report("all", seed, checks)
    if name not in _SUITES:
        known = ", ".join(sorted(SUITE_NAMES))
        raise ValueError(f"unknown suite {name!r} (known: {known})")
    return _SUITES[name](chart_name, seed)


def elapsed_run(name: str, chart_name: str | None = None, seed: int = 0) -> tuple[dict, float]:
    """run_suite plus wall time, for budgeted acceptance checks."""
    start = time.perf_counter()
    report = run_suite(name, chart_name, seed)
    return report, time.perf_counter() - start
