"""Second-order Newtonian flows on a chart.

A Newtonian system pairs a chart with a force field F(x, v). In chart
coordinates the equations of motion are first order on the tangent
bundle:

    dx^k/dt = v^k
    dv^k/dt = F^k - Gamma^k_ij v^i v^j

where the Christoffel term converts the plain derivative of v into the
covariant acceleration, so F = 0 integrates geodesics. Integrators are
classic RK4 with a fixed step and an embedded Dormand-Prince 5(4) pair
with proportional step control.

One driver, _integrate_split, runs the three legs (integrate,
integrate_lagrangian, integrate_hamiltonian) with one stop rule: a state
is accepted while metric_at accepts its x and its fiber is finite. A
refused state with finite coordinates, or a chart error from the
right-hand side, ends the run "left_chart". A singular fiber Hessian
(SingularAError), a force undefined at the state (ForceSingularError,
such as a zero velocity) or an iterative solve that did not converge
(NonConvergenceError) ends it "singular". An expression evaluated
outside its domain (EvalDomainError), a metric, conformal factor or
fiber Hessian that overflows the float range at a finite state
(NumericOverflowError), or a state or stage with an infinite or NaN
coordinate, such as one that overflowed, ends it "non_finite"; numpy's
overflow and invalid-value warnings are off while the driver steps.
Under rk45 each of these errors first halves the trial step, down to
dt_min, and step control that takes the step below dt_min ends the run
"step_underflow". The status is a RunStatus: a str that also carries the
message and class of the error that ended the run, and its time.

Each sample's diagnostics (speed and energy on the tangent legs, H on
the canonical leg) are taken at accept time, right after the stop rule
validated the state's metric, so they find it in the chart's geometry
record: one metric validation per recorded state. A stop error from
them ends the run like one from the right-hand side, keeping the earlier
samples; at the initial state, which has no earlier sample, it
propagates. The stop rule accepts a state by returning a callable that
takes its diagnostics, which integrate_ode calls only for the states it
records; in_domain is called once per accepted step and never on y0.

integrate's right-hand side works on the flat state y = (x, v): it
slices x and v out of y, returns one new array built from the Python
floats of v and dv, and builds a TangentPoint only for a force that reads
one. The zero force of geodesic_system is recognised once and never
called: 0.0 - Gamma(v, v) has the bits of zeros - Gamma(v, v), signed
zeros included. Gamma(v, v) is one generic Python-float loop for any
dimension, summed in np.einsum("kij,i,j->k")'s own order, so it has
einsum's bits; a matmul, or any other grouping of the products, rounds
differently. On a chart's small arrays numpy's per-call overhead costs
more than the arithmetic. tests/rhs_oracle.py keeps the TangentPoint and
einsum form it replaced.

A Dormand-Prince step forms each stage input, the 5th-order solution and
the 4th-order estimate over tolist() in Python floats: per component, a
sum starts at +0.0 and adds a_j * k_j stage by stage, and is then used
in y + dt * s. That is the order of a Python sum over the stage arrays,
so the results are bit-identical to tests/dp_oracle.py, the stage-by-stage
form it keeps as the oracle; a matrix product would round differently.
The error norm stays numpy. There is no FSAL reuse: every attempt
evaluates all seven stages, the first on the very state object that
in_domain accepted, by which perfbench/spans.py counts attempted steps.
"""

from __future__ import annotations

import math
import numbers
from array import array
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import expression, manifold
from .errors import (
    ChartDomainError,
    EvalDomainError,
    ForceSingularError,
    NonConvergenceError,
    NonFiniteStateError,
    NumericOverflowError,
    SingularAError,
    SingularMetricError,
)
from .extended_fields import CurveSample, TangentPoint
from .manifold import ManifoldChart

_LEAVE_CHART_ERRORS = (ChartDomainError, SingularMetricError)
# Each error from a right-hand side that ends a run, with the status it ends it with.
# The first class that matches wins, so a subclass comes before its base.
_STOP_STATUS = {
    NonFiniteStateError: "non_finite",
    ChartDomainError: "left_chart",
    SingularMetricError: "left_chart",
    SingularAError: "singular",
    ForceSingularError: "singular",
    NonConvergenceError: "singular",
    EvalDomainError: "non_finite",
    NumericOverflowError: "non_finite",
}
_STOP_ERRORS = tuple(_STOP_STATUS)

__all__ = [
    "ForceField",
    "IntegratorConfig",
    "RunStatus",
    "Trajectory",
    "geodesic_system",
    "force_from_potential",
    "newtonian_rhs",
    "integrate",
    "integrate_ode",
    "write_trajectory_csv",
    "format_float",
]


@dataclass(frozen=True)
class ForceField:
    """A force on tangent states.

    eval_fn maps (chart, TangentPoint) to the force components. With
    covariant=False the result is the vector F^k entering the equations
    of motion directly; with covariant=True it is the covector F_k and
    is raised with the inverse metric before use.
    """

    eval_fn: Callable[[ManifoldChart, TangentPoint], np.ndarray]
    covariant: bool = False


def _zero_force(chart, point):
    return np.zeros(chart.dim)


def geodesic_system() -> ForceField:
    """The zero force: trajectories are geodesics. The right-hand sides never call it."""
    return ForceField(_zero_force)


def _nonzero(force: ForceField) -> ForceField | None:
    return None if force.eval_fn is _zero_force and not force.covariant else force


def force_from_potential(u) -> ForceField:
    """Covariant force F_k = -dU/dx^k from a potential expression."""
    u_expr = expression.coordinate_expr(u)

    def ev(chart, point):
        return -np.array(expression.gradient(u_expr, point.x))

    return ForceField(ev, covariant=True)


def force_vector(chart: ManifoldChart, force: ForceField, point: TangentPoint) -> np.ndarray:
    """Force with its index raised if supplied covariantly."""
    f = np.asarray(force.eval_fn(chart, point), dtype=float)
    if force.covariant:
        f = manifold.raise_index(chart, point.x, f)
    return f


def newtonian_rhs(
    chart: ManifoldChart, force: ForceField, point: TangentPoint
) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side (dx/dt, dv/dt) at a tangent state.

    dv/dt is _acceleration's, which integrate's right-hand side shares.
    """
    return point.v.copy(), np.array(_acceleration(chart, _nonzero(force), point.x, point.v))


def _acceleration(chart, force, x, v) -> list[float]:
    """dv/dt = F - Gamma(v, v) at (x, v), as Python floats; force None is the zero force.

    Gamma is read first, so outside the chart its domain error comes before
    the force's errors, such as EvalDomainError. The force extracted from a
    Lagrangian, which only perfbench's threeway_sphere integrates, computes
    Gamma again, into the record its metric_at opens; validating x here
    instead made geodesic runs 1.05x to 1.3x slower.
    """
    sums = _gamma_vv(manifold.christoffel_at(chart, x), v)
    if force is None:
        return [0.0 - s for s in sums]
    f = force_vector(chart, force, TangentPoint(x, v)).tolist()
    return [fk - s for fk, s in zip(f, sums, strict=True)]


def _gamma_vv(gamma: np.ndarray, v: np.ndarray) -> list[float]:
    """Gamma^k_ij v^i v^j for each k, with the bits of np.einsum("kij,i,j->k", gamma, v, v).

    One loop for any dimension, in einsum's own order: for each k, s
    starts at +0.0 and adds (Gamma[k, i, j] * v_i) * v_j over i, then j.
    """
    entries = iter(gamma.ravel().tolist())
    vs = v.tolist()
    sums = []
    for _ in vs:
        s = 0.0
        for vi in vs:
            for vj in vs:
                s += next(entries) * vi * vj
        sums.append(s)
    return sums


@dataclass(frozen=True)
class IntegratorConfig:
    """Stepper selection and step control.

    method "rk4" uses the fixed step dt. method "rk45" (alias
    "rk45-adaptive") uses dt as the initial step and adapts it within
    [dt_min, dt_max] against the mixed tolerance atol + rtol * |y|.
    record_every, an integer (not a bool), keeps every k-th accepted
    step (the first and last samples are always kept). Each refusal is a
    ValueError whose message starts with the name of the field it
    refuses, except dt_min > dt_max, which starts with "need".
    """

    method: str = "rk4"
    dt: float = 1e-3
    t_span: tuple[float, float] = (0.0, 1.0)
    record_every: int = 1
    rtol: float = 1e-8
    atol: float = 1e-10
    dt_min: float = 1e-10
    dt_max: float = 1e-1

    def __post_init__(self):
        method = {"rk45-adaptive": "rk45"}.get(self.method, self.method)
        object.__setattr__(self, "method", method)
        if method not in ("rk4", "rk45"):
            raise ValueError(f"method {self.method!r} is unknown (known: rk4, rk45, rk45-adaptive)")
        for name in ("dt", "rtol", "atol", "dt_min", "dt_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if not all(math.isfinite(t) for t in self.t_span):
            raise ValueError("t_span must be finite")
        if self.t_span[1] <= self.t_span[0]:
            raise ValueError("t_span must have t1 > t0")
        if isinstance(self.record_every, bool) or not isinstance(
            self.record_every, numbers.Integral
        ):
            raise ValueError("record_every must be an integer")
        if not self.record_every >= 1:
            raise ValueError("record_every must be >= 1")
        if self.dt_min > self.dt_max:
            raise ValueError("need dt_min <= dt_max")


@dataclass(eq=False)
class Trajectory:
    """Recorded tangent-bundle trajectory with diagnostics."""

    ts: np.ndarray
    xs: np.ndarray
    vs: np.ndarray
    speeds: np.ndarray
    energies: np.ndarray | None
    status: str

    def points(self) -> list[TangentPoint]:
        return [TangentPoint(x, v) for x, v in zip(self.xs, self.vs)]

    def curve_samples(self) -> list[CurveSample]:
        return [CurveSample(float(t), TangentPoint(x, v)) for t, x, v in zip(self.ts, self.xs, self.vs)]


# Dormand-Prince 5(4) tableau; the first error row is the 5th-order
# propagated solution, the second the embedded 4th-order estimate.
_DP_C = [0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0]
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0]
_DP_B4 = [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]


def _rk4_step(f, t, y, dt):
    k1 = f(t, y)
    k2 = f(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = f(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _dp_step(f, t, y, dt):
    ys = y.tolist()
    ks = [f(t, y).tolist()]  # on y itself: the stop rule accepted this object
    for i in range(1, 7):
        row, yi = _DP_A[i], []
        for yc, col in zip(ys, zip(*ks)):
            s = 0.0
            for a, kc in zip(row, col):
                s += a * kc
            yi.append(yc + dt * s)
        ks.append(f(t + _DP_C[i] * dt, np.array(yi)).tolist())
    y5, err = [], []
    for yc, col in zip(ys, zip(*ks)):
        s5 = s4 = 0.0
        for b5, b4, kc in zip(_DP_B5, _DP_B4, col):
            s5 += b5 * kc
            s4 += b4 * kc
        y5c = yc + dt * s5
        y5.append(y5c)
        err.append(y5c - (yc + dt * s4))
    return np.array(y5), np.array(err)


class RunStatus(str):
    """How a run ended: completed, left_chart, singular, non_finite or step_underflow.

    error is the message of the error that ended the run and error_class
    its class name, both "" when none did. stop_time is the time of the
    last accepted state, which record_every > 1 may have left unrecorded.
    """

    error: str
    error_class: str
    stop_time: float

    def __new__(cls, word: str, error: str = "", error_class: str = "", stop_time=math.nan):
        status = super().__new__(cls, word)
        status.error, status.error_class, status.stop_time = error, error_class, stop_time
        return status


def _stopped(exc: Exception) -> tuple[str, str, str]:
    """(status, message, class name) of a run that exc ended."""
    word = next(word for cls, word in _STOP_STATUS.items() if isinstance(exc, cls))
    return word, str(exc), type(exc).__name__


def _judge(in_domain: Callable[[np.ndarray], object], y: np.ndarray):
    """(None, verdict) when in_domain accepts the new state y, (stop, None) when not.

    in_domain refuses y by returning False, or by raising a stop error for
    a state it cannot judge, such as one whose metric overflows. verdict
    is its truthy result: True, or the zero-argument callable that takes
    y's diagnostics. A state that is not finite stops the run as
    NonFiniteStateError would.
    """
    try:
        verdict = in_domain(y)
        if verdict:
            return None, verdict
    except _STOP_ERRORS as exc:
        return _stopped(exc), None
    if np.isfinite(y).all():
        return ("left_chart", "", ""), None
    return _stopped(NonFiniteStateError(f"state {y!r} is not finite")), None


# An overflow or a NaN in a step ends the run through the stop rule, not as a numpy warning.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def integrate_ode(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    config: IntegratorConfig,
    in_domain: Callable[[np.ndarray], bool],
) -> tuple[list[float], list[np.ndarray], RunStatus]:
    """Drive either stepper over t_span; returns (times, states, status).

    Generic over the state vector: the tangent, classical Lagrangian and
    canonical cotangent systems all flatten their states through here.
    in_domain turning false at a finite state ends the run "left_chart",
    at a state with an infinite or NaN coordinate "non_finite", and each
    error of _STOP_STATUS from rhs ends it with that error's status.
    in_domain may also raise one of these errors for the new state, such
    as NumericOverflowError for a metric that overflows there, and it
    ends the run as it would from rhs. To accept a state, in_domain
    returns True or a zero-argument callable that takes the state's
    diagnostics; that callable is called only for the states that are
    recorded, just before each is kept, and a stop error from it ends the
    run the same way, without that state. in_domain is called once per
    accepted step and never on y0. numpy overflow and invalid-value
    warnings are off while it steps, so such a state stops the run
    instead of printing them. Under rk45 an error from rhs first halves
    the trial step, down to dt_min, and step control that takes the next
    step below dt_min, after a rejected or an accepted step, ends the run
    with "step_underflow". The states accepted before any stop are kept,
    and status carries the error that ended the run (see RunStatus).
    """
    t0, t1 = config.t_span
    ts = [t0]
    ys = [y0.copy()]
    t, y = t0, y0.copy()
    stop = None
    span_eps = 1e-12 * (t1 - t0)
    accepted = 0

    def record(verdict):
        """Keep (t, y) when due; the stop when its diagnostics end the run."""
        if accepted % config.record_every and t < t1 - span_eps:
            return None
        if callable(verdict):
            try:
                verdict()
            except _STOP_ERRORS as exc:
                return _stopped(exc)
        ts.append(t)
        ys.append(y.copy())
        return None

    if config.method == "rk4":
        while t < t1 - span_eps:
            dt = min(config.dt, t1 - t)
            try:
                y_new = _rk4_step(rhs, t, y, dt)
            except _STOP_ERRORS as exc:
                stop = _stopped(exc)
                break
            stop, verdict = _judge(in_domain, y_new)
            if not stop:
                t, y = t + dt, y_new
                accepted += 1
                stop = record(verdict)
            if stop:
                break
    else:
        atol, rtol = config.atol, config.rtol
        dt = min(config.dt, config.dt_max)
        while t < t1 - span_eps:
            dt = min(dt, t1 - t)
            try:
                y_new, err_vec = _dp_step(rhs, t, y, dt)
            except _STOP_ERRORS as exc:
                # A trial stage left the chart or the system; try a shorter step.
                dt *= 0.5
                if dt < config.dt_min:
                    stop = _stopped(exc)
                    break
                continue
            q = err_vec / (atol + rtol * np.maximum(np.abs(y), np.abs(y_new)))
            # RMS of q: the same sum and division as np.mean, without its Python layer.
            err = math.sqrt(float(np.add.reduce(q * q)) / q.size)
            if err <= 1.0:
                stop, verdict = _judge(in_domain, y_new)
                if not stop:
                    t, y = t + dt, y_new
                    accepted += 1
                    stop = record(verdict)
                if stop:
                    break
                factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err**-0.2))
                dt = min(dt * factor, config.dt_max)
            else:
                dt *= max(0.2, 0.9 * err**-0.2)
            # Accepted steps shrink dt too, by up to 0.9 each, as a solution blows up.
            if dt < config.dt_min and t < t1 - span_eps:
                stop = ("step_underflow", "", "")
                break
    return ts, ys, RunStatus(*(stop or ("completed", "", "")), t)


def integrate(
    chart: ManifoldChart,
    force: ForceField,
    q0: TangentPoint,
    config: IntegratorConfig,
    energy_fn: Callable[[ManifoldChart, TangentPoint], float] | None = None,
) -> Trajectory:
    """Integrate the Newtonian system from q0 over config.t_span."""
    return _tangent_run(chart, _flat_rhs(chart, force), q0, config, energy_fn)


def _flat_rhs(chart: ManifoldChart, force: ForceField):
    """integrate's right-hand side f(t, y) on the flat state y = (x, v): a new array each call."""
    n = chart.dim
    force = _nonzero(force)

    def rhs(t, y):
        v = y[n:]
        return np.array(v.tolist() + _acceleration(chart, force, y[:n], v))

    return rhs


def _tangent_run(chart, rhs, q0, config, energy_fn) -> Trajectory:
    """Integrate a tangent-bundle rhs from q0, with each sample's speed and energy."""

    def diagnostics(x, v):
        speed = manifold.speed(chart, x, v)
        if energy_fn is None:
            return (speed,)
        return speed, energy_fn(chart, TangentPoint(x, v))

    ts, xs, vs, columns, status = _integrate_split(chart, rhs, q0.x, q0.v, config, diagnostics)
    energies = None if energy_fn is None else columns[1]
    return Trajectory(ts=ts, xs=xs, vs=vs, speeds=columns[0], energies=energies, status=status)


def _integrate_split(chart, rhs, x0, fiber0, config, diagnostics):
    """Integrate rhs over the flat state (x, fiber) from (x0, fiber0).

    Returns (ts, xs, fibers, columns, status), where columns[k] holds the
    k-th value of diagnostics(x, fiber) at each sample. A state is
    accepted while metric_at accepts its x, which also refuses a metric
    that degenerates inside the nominal open domain, and its fiber is
    finite: an rk4 step whose last stage overflowed leaves x finite and
    the fiber infinite. The initial state's diagnostics are taken before
    the first step, the others when the state is recorded.
    """
    n = chart.dim
    manifold.check_point(chart, x0)
    values = array("d")

    def sample(y):
        values.extend(diagnostics(y[:n], y[n:]))

    def accepted(y):
        try:
            manifold.metric_at(chart, y[:n])
        except _LEAVE_CHART_ERRORS:
            return False
        if not all(map(math.isfinite, y[n:].tolist())):
            return False
        return lambda: sample(y)

    y0 = np.concatenate([x0, fiber0])
    sample(y0)
    ts, ys, status = integrate_ode(rhs, y0, config, accepted)
    xs = np.array([y[:n] for y in ys])
    fibers = np.array([y[n:] for y in ys])
    columns = np.array(values).reshape(len(ys), -1).T
    return np.array(ts), xs, fibers, columns, status


def format_float(value: float) -> str:
    """17 significant digits, enough to round-trip a double exactly."""
    return f"{value:.17g}"


def _write_table(path, header: list[str], columns: Sequence[np.ndarray]) -> None:
    """Write a header line, then one row per sample in format_float's form.

    columns are stacked side by side once; each row is then formatted by
    a single printf string, which renders a Python float exactly as
    format_float does (inf, nan and -0 included). Rows are converted and
    written one at a time, so no second copy of the table is held.
    """
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % tuple(values.tolist()) for values in table)


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    """Write t, coordinates, velocities, speed and optional energy column."""
    n = trajectory.xs.shape[1]
    header = (
        ["t"]
        + [f"x{k + 1}" for k in range(n)]
        + [f"v{k + 1}" for k in range(n)]
        + ["speed"]
    )
    columns = [trajectory.ts, trajectory.xs, trajectory.vs, trajectory.speeds]
    if trajectory.energies is not None:
        header.append("h")
        columns.append(trajectory.energies)
    _write_table(path, header, columns)
