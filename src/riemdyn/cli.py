"""Command line front end.

Subcommands:

  riemdyn simulate -c config.json [--out-dir DIR]
      Integrate the configured system and write a trajectory CSV plus a
      JSON run report. Exit 0 when the run completes, 3 when the
      trajectory leaves the chart, the system turns singular, an
      expression leaves its domain, a value overflows or the stepper
      gives up (the partial outputs are still written, and the message
      of the error that ended the run goes to stderr and into the
      report as "error", with "error_class" and the "stop_time" of the
      last accepted state), 2 on config errors, such as a NaN where a
      number belongs, an initial point whose metric is singular or
      overflows, or an initial state whose energy or H overflows, which
      leaves no sample to write. A refused config writes nothing: the
      output directory is made only once there is a trajectory.

  riemdyn verify --suite NAME [--chart C] [--seed N] [--report FILE]
      Run a named verification suite and print one line per check.
      Exit 0 when every check passes, 1 otherwise, 2 for unknown
      suites, for a chart that cannot be built and for a suite with no
      scenario on the chart.

  riemdyn legendre -c config.json --direction forward|inverse
                   --state "x1,..,xn;f1,..,fn"
      Apply the Legendre map of the configured Lagrangian to one state
      (fiber part is v for forward, p for inverse) and print the result
      as JSON. Exit 4 when the inversion fails to converge or hits a
      singular or degenerate state, 2 for a state point outside the chart
      or whose metric is singular or overflows, for a state with a
      non-finite component, and for one whose p, v or h overflows.

Config files are JSON with "schema": 1. Reruns with the same config
write byte-identical outputs; nothing in the reports depends on wall
time or environment.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import (
    dynamics_hamilton,
    dynamics_lagrange,
    dynamics_newton,
    expression,
    extended_fields,
    manifold,
    normal_shift,
    verification,
)
from .dynamics_newton import IntegratorConfig
from .errors import (
    ChartDomainError,
    ConfigError,
    NonConvergenceError,
    NumericOverflowError,
    ParseError,
    RiemdynError,
    SingularAError,
    SingularMetricError,
    SingularSetError,
)
from .extended_fields import CotangentPoint, TangentPoint

__all__ = ["main", "build_chart", "build_lagrangian", "build_force", "build_integrator"]

_EXIT_OK = 0
_EXIT_FAILED_CHECKS = 1
_EXIT_CONFIG = 2
_EXIT_INTEGRATION = 3
_EXIT_LEGENDRE = 4


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", pointer="") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}", pointer="") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object", pointer="")
    if not (_is_number(cfg.get("schema")) and cfg["schema"] == 1):
        raise ConfigError("expected \"schema\": 1", pointer="/schema")
    return cfg


def _is_number(value) -> bool:
    """A JSON number: an int or a float, not a bool (which Python counts as an int), finite as a float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _require(cfg: dict, key: str, pointer: str, kind=None):
    if key not in cfg:
        raise ConfigError(f"missing required key {key!r}", pointer=f"{pointer}/{key}")
    value = cfg[key]
    if kind is not None and not isinstance(value, kind):
        names = kind.__name__ if isinstance(kind, type) else "/".join(k.__name__ for k in kind)
        raise ConfigError(
            f"expected {names}, got {type(value).__name__}", pointer=f"{pointer}/{key}"
        )
    return value


def _expression_param(
    cfg: dict, key: str, pointer: str, dim=None, parse=expression.coordinate_expr
):
    """cfg[key] parsed over x1..x<dim> (parse=expression.profile_expr also admits w)."""
    source = _require(cfg, key, pointer, str)
    try:
        return parse(source, dim=dim)
    except ParseError as exc:
        raise ConfigError(f"bad expression: {exc}", pointer=f"{pointer}/{key}") from exc


def build_chart(cfg: dict):
    chart_cfg = _require(cfg, "chart", "", dict)
    name = _require(chart_cfg, "name", "/chart", str)
    params = {k: v for k, v in chart_cfg.items() if k != "name"}
    for key, value in params.items():
        if not (isinstance(value, str) or _is_number(value)):
            raise ConfigError("expected a number or a string", pointer=f"/chart/{key}")
    try:
        return manifold.builtin_chart(name, **params)
    except (RiemdynError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc), pointer="/chart") from exc


def build_integrator(cfg: dict) -> IntegratorConfig:
    int_cfg = cfg.get("integrator", {})
    if not isinstance(int_cfg, dict):
        raise ConfigError("integrator must be an object", pointer="/integrator")
    kwargs = {}
    for key in ("method", "dt", "record_every", "rtol", "atol", "dt_min", "dt_max"):
        if key in int_cfg:
            kwargs[key] = int_cfg[key]
    for key in ("dt", "rtol", "atol", "dt_min", "dt_max"):
        if key in kwargs and not _is_number(kwargs[key]):
            raise ConfigError("expected a number", pointer=f"/integrator/{key}")
    if "t_span" in int_cfg:
        span = int_cfg["t_span"]
        if not (isinstance(span, list) and len(span) == 2):
            raise ConfigError("t_span must be [t0, t1]", pointer="/integrator/t_span")
        if not all(_is_number(t) for t in span):
            raise ConfigError("t_span entries must be numbers", pointer="/integrator/t_span")
        kwargs["t_span"] = (float(span[0]), float(span[1]))
    try:
        return IntegratorConfig(**kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc), pointer="/integrator") from exc


def build_lagrangian(system: dict, pointer: str = "/system", *, dim: int | None = None):
    """The configured Lagrangian; dim, when given, bounds the coordinates its expressions use."""
    family = _require(system, "family", pointer, str)
    if family not in dynamics_lagrange.FAMILIES:
        known = ", ".join(dynamics_lagrange.FAMILIES)
        raise ConfigError(
            f"unknown family {family!r} (known: {known})", pointer=f"{pointer}/family"
        )
    _, parsers, _ = dynamics_lagrange.FAMILIES[family]
    try:
        params = {
            key: _expression_param(system, key, pointer, dim, parse)
            for key, parse in parsers.items()
            if key in system or key != "C"
        }
        return dynamics_lagrange.catalog_lagrangian(family, **params)
    except ValueError as exc:
        raise ConfigError(str(exc), pointer=pointer) from exc


def build_force(system: dict, pointer: str = "/system", *, dim: int | None = None):
    """Force field plus an optional conserved-energy callback.

    dim, when given, bounds the coordinates the force's expressions use.
    """
    force_cfg = _require(system, "force", pointer, dict)
    kind = _require(force_cfg, "type", f"{pointer}/force", str)
    fp = f"{pointer}/force"
    try:
        if kind == "geodesic":
            return dynamics_newton.geodesic_system(), _kinetic_energy
        if kind == "potential":
            u_expr = _expression_param(force_cfg, "U", fp, dim)
            force = dynamics_newton.force_from_potential(u_expr)

            def energy(chart, point, u_expr=u_expr):
                return _kinetic_energy(chart, point) + expression.evaluate(u_expr, point.x)

            return force, energy
        if kind == "conformal":
            f_expr = _expression_param(force_cfg, "f", fp, dim)
            force = normal_shift.conformal_force_field(f_expr)

            def energy(chart, point, f_expr=f_expr):
                factor = extended_fields._conformal_factor(f_expr, point.x, -2.0)
                return factor * _kinetic_energy(chart, point)

            return force, energy
        if kind == "spherical":
            profile = normal_shift.profile_from_expression(
                _expression_param(force_cfg, "T", fp, dim, expression.profile_expr)
            )
            force = normal_shift.spherical_force_field(profile)

            def energy(chart, point, profile=profile):
                w = manifold.speed(chart, point.x, point.v)
                return w * profile.d_w(point.x, w) - profile.value(point.x, w)

            return force, energy
        if kind == "normal-shift":
            profile = normal_shift.profile_from_expression(
                _expression_param(force_cfg, "W", fp, dim, expression.profile_expr)
            )
            h_src = _require(force_cfg, "h", fp, str) if "h" in force_cfg else None
            try:
                h_fn = normal_shift.h_function(h_src)
            except (ParseError, ValueError) as exc:
                raise ConfigError(f"bad expression: {exc}", pointer=f"{fp}/h") from exc
            shift = normal_shift.NormalShiftForce(profile, h_fn=h_fn)
            return normal_shift.normal_shift_force_field(shift), None
    except ValueError as exc:
        raise ConfigError(str(exc), pointer=fp) from exc
    known = "geodesic, potential, conformal, spherical, normal-shift"
    raise ConfigError(f"unknown force type {kind!r} (known: {known})", pointer=f"{fp}/type")


def _kinetic_energy(chart, point):
    w = manifold.speed(chart, point.x, point.v)
    return 0.5 * w * w


def _initial_arrays(cfg: dict, chart, fiber_key: str):
    dim = chart.dim
    initial = _require(cfg, "initial", "", dict)
    x = _require(initial, "x", "/initial", list)
    fiber = _require(initial, fiber_key, "/initial", list)
    for key, values, what in (("x", x, "coordinates"), (fiber_key, fiber, "components")):
        if len(values) != dim:
            raise ConfigError(f"expected {dim} {what}", pointer=f"/initial/{key}")
        if not all(_is_number(value) for value in values):
            raise ConfigError(f"{what} must be numbers", pointer=f"/initial/{key}")
    x, fiber = np.array(x, dtype=float), np.array(fiber, dtype=float)
    _require_chart_point(chart, x, "initial point", "/initial/x")
    return x, fiber


def _require_chart_point(chart, x, label: str, pointer: str) -> None:
    """Refuse x at pointer unless it is inside the chart and metric_at validates its metric."""
    if not manifold.in_domain(chart, x):
        raise ConfigError(f"{label} {x.tolist()} is outside chart {chart.name!r}", pointer=pointer)
    try:
        manifold.metric_at(chart, x)
    except (SingularMetricError, NumericOverflowError) as exc:
        raise ConfigError(str(exc), pointer=pointer) from None


def _output_paths(cfg: dict, out_dir: str | None) -> tuple[str, str, str]:
    """The output directory and the CSV and report paths in it, from "output"; creates nothing.

    out_dir, the --out-dir option, replaces output.directory when given.
    """
    output = cfg.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("output must be an object", pointer="/output")
    for key in ("directory", "basename"):
        if key in output and not (isinstance(output[key], str) and output[key]):
            raise ConfigError(f"{key} must be a non-empty string", pointer=f"/output/{key}")
        if "\0" in output.get(key, ""):
            raise ConfigError(f"{key} must not contain a NUL byte", pointer=f"/output/{key}")
    basename = output.get("basename", "trajectory")
    if os.sep in basename or (os.altsep and os.altsep in basename):
        raise ConfigError("basename must not contain a directory", pointer="/output/basename")
    out_dir = out_dir or output.get("directory", ".")
    return (
        out_dir,
        os.path.join(out_dir, f"{basename}.csv"),
        os.path.join(out_dir, f"{basename}.json"),
    )


def _json_dump(obj, path):
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    chart = build_chart(cfg)
    system = _require(cfg, "system", "", dict)
    kind = _require(system, "kind", "/system", str)
    config = build_integrator(cfg)
    out_dir, csv_path, report_path = _output_paths(cfg, args.out_dir)

    if kind == "newton":
        force, energy_fn = build_force(system, dim=chart.dim)
        x0, v0 = _initial_arrays(cfg, chart, "v")
        run = functools.partial(
            dynamics_newton.integrate,
            chart,
            force,
            TangentPoint(x0, v0),
            config,
            energy_fn=energy_fn,
        )
    elif kind == "lagrange":
        lag = build_lagrangian(system, dim=chart.dim)
        x0, v0 = _initial_arrays(cfg, chart, "v")
        run = functools.partial(
            dynamics_lagrange.integrate_lagrangian,
            chart,
            lag,
            TangentPoint(x0, v0),
            config,
            energy_fn=lambda c, q: dynamics_hamilton.energy_h(c, lag, q),
        )
    elif kind == "hamilton":
        lag = build_lagrangian(system, dim=chart.dim)
        ctx = dynamics_hamilton.LegendreContext(lag)
        ham = dynamics_hamilton.hamiltonian_from_lagrangian(ctx)
        initial = _require(cfg, "initial", "", dict)
        if "p" in initial:
            x0, p0 = _initial_arrays(cfg, chart, "p")
            state0 = CotangentPoint(x0, p0)
        else:
            x0, v0 = _initial_arrays(cfg, chart, "v")
            state0 = dynamics_hamilton.legendre_forward(ctx, chart, TangentPoint(x0, v0))
        run = functools.partial(dynamics_hamilton.integrate_hamiltonian, chart, ham, state0, config)
    else:
        raise ConfigError(
            f"unknown system kind {kind!r} (known: newton, lagrange, hamilton)",
            pointer="/system/kind",
        )
    try:
        trajectory = run()
    except dynamics_newton._STOP_ERRORS as exc:
        # The initial state's diagnostics failed: there is no sample to write.
        raise ConfigError(str(exc), pointer="/initial") from None

    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        pointer = "--out-dir" if args.out_dir else "/output/directory"
        raise ConfigError(f"cannot create output directory: {exc}", pointer=pointer) from exc
    if kind == "hamilton":
        dynamics_hamilton.write_cotangent_csv(trajectory, csv_path)
        drift = float(np.max(np.abs(trajectory.h_values - trajectory.h_values[0])))
        final = {
            "x": [float(val) for val in trajectory.xs[-1]],
            "p": [float(val) for val in trajectory.ps[-1]],
        }
    else:
        dynamics_newton.write_trajectory_csv(trajectory, csv_path)
        drift = None
        if trajectory.energies is not None:
            drift = float(np.max(np.abs(trajectory.energies - trajectory.energies[0])))
        final = {
            "x": [float(val) for val in trajectory.xs[-1]],
            "v": [float(val) for val in trajectory.vs[-1]],
        }
    report = {
        "schema": 1,
        "command": "simulate",
        "chart": chart.name,
        "system": kind,
        "status": trajectory.status,
        "samples": int(len(trajectory.ts)),
        "t_final": float(trajectory.ts[-1]),
        "final_state": final,
        "energy_drift": drift,
        "csv": os.path.basename(csv_path),
    }
    if trajectory.status.error:
        report["error"] = trajectory.status.error
        report["error_class"] = trajectory.status.error_class
        report["stop_time"] = float(trajectory.status.stop_time)
    _json_dump(report, report_path)
    print(f"{trajectory.status}: {len(trajectory.ts)} samples -> {csv_path}")
    if trajectory.status.error:
        print(f"error: {trajectory.status.error}", file=sys.stderr)
    return _EXIT_OK if trajectory.status == "completed" else _EXIT_INTEGRATION


def cmd_verify(args) -> int:
    if args.chart is not None:
        try:
            manifold.builtin_chart(args.chart)
        except (RiemdynError, ValueError) as exc:
            raise ConfigError(str(exc), pointer="--chart") from None
    try:
        report = verification.run_suite(args.suite, args.chart, args.seed)
    except ValueError as exc:
        # Only an unknown suite and a suite without a scenario on the chart are usage errors.
        if args.suite in verification.SUITE_NAMES and not isinstance(
            exc, verification.NoScenarioError
        ):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    for check in report["checks"]:
        label = "PASS" if check["pass"] else "FAIL"
        target = check.get("target")
        goal = f" target={target:g}" if target is not None else ""
        print(
            f"{label} {check['name']}  value={check['value']:.6e}"
            f"  tol={check['tolerance']:.1e}{goal}"
        )
    total = len(report["checks"])
    good = sum(1 for c in report["checks"] if c["pass"])
    print(f"suite {report['suite']}: {good}/{total} checks passed")
    if args.report:
        _json_dump(report, args.report)
    return _EXIT_OK if report["passed"] else _EXIT_FAILED_CHECKS


def _parse_state(text: str, dim: int):
    parts = text.split(";")
    if len(parts) != 2:
        raise ConfigError("state must be \"x1,..,xn;f1,..,fn\"", pointer="--state")
    try:
        x = np.array([float(v) for v in parts[0].split(",")], dtype=float)
        fiber = np.array([float(v) for v in parts[1].split(",")], dtype=float)
    except ValueError as exc:
        raise ConfigError(f"bad number in state: {exc}", pointer="--state") from exc
    if x.shape != (dim,) or fiber.shape != (dim,):
        raise ConfigError(f"state needs {dim}+{dim} components", pointer="--state")
    if not np.isfinite(x).all() or not np.isfinite(fiber).all():
        raise ConfigError(
            f"state {x.tolist()};{fiber.tolist()} has a non-finite component", pointer="--state"
        )
    return x, fiber


# An overflow in the map ends as a refusal at --state, not as a numpy warning.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def cmd_legendre(args) -> int:
    cfg = _load_config(args.config)
    chart = build_chart(cfg)
    system = _require(cfg, "system", "", dict)
    lag = build_lagrangian(system, dim=chart.dim)
    ctx = dynamics_hamilton.LegendreContext(lag)
    x, fiber = _parse_state(args.state, chart.dim)
    _require_chart_point(chart, x, "state point", "--state")
    try:
        if args.direction == "forward":
            q = TangentPoint(x, fiber)
            image = dynamics_hamilton.legendre_forward(ctx, chart, q)
            out = {
                "x": [float(v) for v in x],
                "v": [float(v) for v in fiber],
                "p": [float(v) for v in image.p],
                "h": dynamics_hamilton.energy_h(chart, lag, q),
                "iterations": 0,
            }
        else:
            state = CotangentPoint(x, fiber)
            back = dynamics_hamilton.legendre_inverse(ctx, chart, state)
            out = {
                "x": [float(v) for v in x],
                "p": [float(v) for v in fiber],
                "v": [float(v) for v in back.v],
                "h": dynamics_hamilton.energy_h(chart, lag, back),
                "iterations": ctx.last_iterations,
            }
    except (NonConvergenceError, SingularSetError, SingularAError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_LEGENDRE
    except ChartDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except NumericOverflowError as exc:
        raise ConfigError(str(exc), pointer="--state") from None
    if not np.isfinite([*out["p"], *out["v"], out["h"]]).all():
        raise ConfigError(
            f"the Legendre map of state {args.state!r} overflows the float range: "
            f"p {out['p']}, v {out['v']}, h {out['h']}",
            pointer="--state",
        )
    print(json.dumps(out, sort_keys=True))
    return _EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riemdyn",
        description="Dynamics on Riemannian charts: simulate, verify, Legendre maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate a configured system")
    sim.add_argument("-c", "--config", required=True, help="JSON config path")
    sim.add_argument("--out-dir", default=None, help="output directory override")
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", required=True, help="suite name or 'all'")
    ver.add_argument("--chart", default=None, help="restrict to one chart")
    ver.add_argument("--seed", type=int, default=0, help="sampling seed")
    ver.add_argument("--report", default=None, help="write the JSON report here")
    ver.set_defaults(func=cmd_verify)

    leg = sub.add_parser("legendre", help="apply the Legendre map to one state")
    leg.add_argument("-c", "--config", required=True, help="JSON config path")
    leg.add_argument(
        "--direction", choices=("forward", "inverse"), required=True
    )
    leg.add_argument(
        "--state", required=True, help='state as "x1,..,xn;f1,..,fn"'
    )
    leg.set_defaults(func=cmd_legendre)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        where = f" at {exc.pointer}" if exc.pointer else ""
        print(f"config error{where}: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except RiemdynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INTEGRATION


if __name__ == "__main__":
    sys.exit(main())
