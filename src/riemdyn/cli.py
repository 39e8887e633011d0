"""Command line front end.

Subcommands:

  riemdyn simulate -c config.json [--out-dir DIR]
      Integrate the configured system and write a trajectory CSV plus a
      JSON run report, both read off the run's record whatever the
      kind. Exit 0 when the run completes, 3 when the trajectory leaves
      the chart, the system turns singular, an expression leaves its
      domain, a value overflows or the stepper gives up (the partial
      outputs are still written, and the error that ended the run goes
      to stderr and into the report as "error", "error_class" and the
      "stop_time" of the last accepted state), 2 when the schema below
      refuses a key as unknown, missing or of the wrong type (at its
      JSON pointer), or the chart or the stepper a value, or the initial
      point's metric or the initial energy or H is singular or
      overflows. A refused config writes nothing.

  riemdyn verify --suite NAME [--chart C] [--seed N] [--report FILE]
      Run a named verification suite and print one line per check.
      Exit 0 when every check passes, 1 otherwise, 2 for unknown
      suites, for a chart that cannot be built, for a suite with no
      scenario on the chart, at --seed for a negative seed and at
      --report for a report path in a missing directory or onto a
      directory, both refused before the suite runs, or one whose write
      fails.

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
import dataclasses
import functools
import json
import math
import os
import sys
import typing

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


def _load_config(path: str, table: dict) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", pointer="") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}", pointer="") from exc
    return _walk(cfg, table, "")


def _is_number(value) -> bool:
    """A JSON number: an int or a float, not a bool (which Python counts as an int), finite as a float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _is_dimension(value) -> bool:
    """An integer >= 1, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


# The config schema. A table maps each key of a section to (rule, required). A
# rule takes the key's value and the chart's dim and returns the parsed value,
# or raises ValueError with the refusal's message; a dict in its place is the
# table of a nested section, and a _Pick picks more keys by the key's value.


def _test(test, wanted: str):
    """The rule that passes a value for which test holds and refuses any other."""

    def rule(value, dim):
        if not test(value):
            raise ValueError(f"expected {wanted}")
        return value

    return rule


_NUMBER = _test(_is_number, "a number")
_DIMENSION = _test(_is_dimension, "an integer >= 1")
_NAME = _test(lambda value: isinstance(value, str) and value != "", "a non-empty string")
_OBJECT = _test(lambda value: isinstance(value, dict), "an object")
_EXPRESSION = _test(lambda value: isinstance(value, str), "an expression")
_PATH = _test(
    lambda value: isinstance(value, str) and value != "" and "\0" not in value,
    "a non-empty string without a NUL byte",
)


def _expression(parse):
    """The rule that parses a string with parse(source, dim)."""

    def rule(value, dim):
        _EXPRESSION(value, dim)
        try:
            return parse(value, dim)
        except (ParseError, ValueError) as exc:
            raise ValueError(f"bad expression: {exc}") from None

    return rule


def _vector(what: str, length: int | None = None):
    """The rule for a list of length numbers, dim when None, parsed to a float array."""

    def rule(value, dim):
        if not (isinstance(value, list) and len(value) == (length or dim)):
            raise ValueError(f"expected {length or dim} {what}")
        if not all(_is_number(entry) for entry in value):
            raise ValueError(f"{what} must be numbers")
        return np.array(value, dtype=float)

    return rule


def _basename(value, dim):
    if os.path.basename(_PATH(value, dim)) != value:
        raise ValueError("basename must not contain a directory")
    return value


class _Pick(typing.NamedTuple):
    """The rule of a discriminator: its value, a name, picks the table of more keys of its section."""

    what: str
    tables: dict
    default: dict | None = None  # the table of a name not in tables; None refuses such a name

    def __call__(self, value, dim):
        if _NAME(value, dim) not in self.tables and self.default is None:
            raise ValueError(f"unknown {self.what} {value!r} (known: {', '.join(self.tables)})")
        return value


def _at(pointer: str, key: str) -> str:
    """The JSON pointer (RFC 6901) of key in the section at pointer."""
    return f"{pointer}/{key.replace('~', '~0').replace('/', '~1')}"


def _apply(rule, value, pointer: str, dim):
    if isinstance(rule, dict):
        return _walk(value, rule, pointer, dim)
    try:
        return rule(value, dim)
    except ValueError as exc:
        raise ConfigError(str(exc), pointer=pointer) from None


def _walk(section, table: dict, pointer: str, dim: int | None = None) -> dict:
    """The parsed values of a config section; an ill-typed, unknown or missing key is refused at its pointer."""
    if not isinstance(section, dict):
        raise ConfigError("expected an object", pointer=pointer)
    keys, parsed, tables = {}, {}, [table]
    while tables:  # a _Pick's value adds the keys of the table it picks
        for key, (rule, required) in tables.pop().items():
            if key in keys:
                continue
            keys[key] = required
            if key in section:
                parsed[key] = _apply(rule, section[key], _at(pointer, key), dim)
                if isinstance(rule, _Pick):
                    tables.append(rule.tables.get(parsed[key], rule.default))
    missing = [key for key, required in keys.items() if required and key not in section]
    if missing:  # before the unknown keys, which a missing discriminator leaves unpicked
        raise ConfigError(f"missing required key {missing[0]!r}", pointer=_at(pointer, missing[0]))
    unknown = [key for key in section if key not in keys]
    if unknown:
        what = pointer.rsplit("/", 1)[-1] or "top-level"
        message = f"unknown {what} key {unknown[0]!r} (known: {', '.join(keys)})"
        raise ConfigError(message, pointer=_at(pointer, unknown[0]))
    return parsed


def _profile(source, dim):
    """A radial profile from an expression over x1..x<dim> and w."""
    return normal_shift.profile_from_expression(expression.profile_expr(source, dim))


def _kinetic_energy(chart, point):
    w = manifold.speed(chart, point.x, point.v)
    return 0.5 * w * w


def _spherical_energy(profile, chart, point):
    w = manifold.speed(chart, point.x, point.v)
    return w * profile.d_w(point.x, w) - profile.value(point.x, w)


# Each Newtonian force type, shaped like dynamics_lagrange.FAMILIES: its builder, the
# parsers of the expressions it takes in order, and its conserved energy, or None.
_FORCES = {
    "geodesic": (dynamics_newton.geodesic_system, {}, _kinetic_energy),
    "potential": (
        dynamics_newton.force_from_potential,
        {"U": expression.coordinate_expr},
        lambda u, chart, point: _kinetic_energy(chart, point) + expression.evaluate(u, point.x),
    ),
    "conformal": (
        normal_shift.conformal_force_field,
        {"f": expression.coordinate_expr},
        lambda f, chart, point: (
            extended_fields._conformal_factor(f, point.x, -2.0) * _kinetic_energy(chart, point)
        ),
    ),
    "spherical": (normal_shift.spherical_force_field, {"T": _profile}, _spherical_energy),
    "normal-shift": (
        normal_shift.normal_shift_force_field,
        {"W": _profile, "h": lambda source, dim: normal_shift.h_function(source)},
        None,
    ),
}
# fiberwise-phi's C and normal-shift's h may be left out: their builders default them.
_OPTIONAL = ("C", "h")


def _expressions(parsers: dict) -> dict:
    """The table of a parser column: each key an expression over the chart's coordinates."""
    return {key: (_expression(parse), key not in _OPTIONAL) for key, parse in parsers.items()}


# The top level; each section is walked once the chart, whose dim the system's
# expressions and the initial vectors take, is built.
_CONFIG = {
    "schema": (_test(lambda value: _is_number(value) and value == 1, '"schema": 1'), True),
    "chart": (_OBJECT, True),
    "system": (_OBJECT, True),
    "integrator": (_OBJECT, False),
    "initial": (_OBJECT, True),
    "output": (_OBJECT, False),
}
# legendre reads chart and system, and takes the other keys of a simulate config.
_LEGENDRE_CONFIG = dict(_CONFIG, initial=(_OBJECT, False))
# Each builtin chart's parameters besides name and rescale_f, which every chart takes,
# as does any other name, such as euclidean<n>. The chart parses its own expressions.
_CHART_PARAMETERS = {
    "euclidean": {"dim": (_DIMENSION, False)},
    "sphere2d": {"radius": (_NUMBER, False)},
    "conformally_flat": {"dim": (_DIMENSION, False), "f": (_EXPRESSION, False)},
}
_CHART = {
    "name": (_Pick("chart", _CHART_PARAMETERS, default={}), True),
    "rescale_f": (_EXPRESSION, False),
}
# Every IntegratorConfig field, whose values IntegratorConfig tests further.
_INTEGRATOR = {
    **{field.name: (_NUMBER, False) for field in dataclasses.fields(IntegratorConfig)},
    "method": (_NAME, False),
    "t_span": (_vector("t_span entries", 2), False),
}
_FAMILY = {name: _expressions(row[1]) for name, row in dynamics_lagrange.FAMILIES.items()}
# legendre walks a system alone, where a kind, when given, must have a Lagrangian.
_LAGRANGE_KIND = _test(lambda value: value in ("lagrange", "hamilton"), "'lagrange' or 'hamilton'")
_LAGRANGIAN = {"kind": (_LAGRANGE_KIND, False), "family": (_Pick("family", _FAMILY), True)}
_FORCE_TYPES = {name: _expressions(row[1]) for name, row in _FORCES.items()}
_FORCE = {"type": (_Pick("force type", _FORCE_TYPES), True)}
_NEWTON = {"kind": (_NAME, False), "force": (_FORCE, True)}
_KINDS = {"newton": _NEWTON, "lagrange": _LAGRANGIAN, "hamilton": _LAGRANGIAN}
_SYSTEM = {"kind": (_Pick("system kind", _KINDS), True)}
# A start; a hamilton run starts from x and exactly one of v and p.
_TANGENT = {"x": (_vector("coordinates"), True), "v": (_vector("components"), True)}
_COTANGENT = dict(_TANGENT, v=(_vector("components"), False), p=(_vector("components"), False))
_OUTPUT = {"directory": (_PATH, False), "basename": (_basename, False)}


def build_chart(cfg: dict):
    """The configured builtin chart; a parameter it does not take, or a bad value, at /chart/<key>."""
    params = _walk(cfg.get("chart"), _CHART, "/chart")
    name, rescale_f = params.pop("name"), params.pop("rescale_f", None)
    try:
        chart = manifold.builtin_chart(name, **params)
    except ParseError as exc:  # f is the one expression parsed while the chart is built
        raise ConfigError(f"bad expression: {exc}", pointer="/chart/f") from exc
    except (RiemdynError, ValueError) as exc:
        raise ConfigError(str(exc), pointer="/chart") from exc
    if rescale_f is not None:  # parsed over the coordinates of the chart it rescales
        rule = _expression(expression.coordinate_expr)
        f_expr = _apply(rule, rescale_f, "/chart/rescale_f", chart.dim)
        chart = manifold.conformal_rescale(chart, f_expr)
    return chart


def build_integrator(cfg: dict) -> IntegratorConfig:
    """The configured stepper; each refusal points at its key, and only dt_min > dt_max at /integrator."""
    kwargs = _walk(cfg.get("integrator", {}), _INTEGRATOR, "/integrator")
    if "t_span" in kwargs:
        kwargs["t_span"] = tuple(kwargs["t_span"].tolist())
    try:
        return IntegratorConfig(**kwargs)
    except ValueError as exc:
        key = str(exc).split(" ", 1)[0]  # the refused field, or "need" for dt_min > dt_max
        pointer = f"/integrator/{key}" if key in kwargs else "/integrator"
        raise ConfigError(str(exc), pointer=pointer) from exc


def build_lagrangian(system: dict, *, dim: int | None = None):
    """The configured Lagrangian; dim, when given, bounds the coordinates its expressions use."""
    return _lagrangian(_walk(system, _LAGRANGIAN, "/system", dim))


def _lagrangian(params: dict):
    """The Lagrangian of a walked system; catalog_lagrangian passes over its kind."""
    try:
        return dynamics_lagrange.catalog_lagrangian(**params)
    except ValueError as exc:
        raise ConfigError(str(exc), pointer="/system") from exc


def build_force(system: dict):
    """Force field plus an optional conserved-energy callback."""
    return _force(_walk(system, _NEWTON, "/system")["force"])


def _force(params: dict):
    """The force field and energy callback of a walked force section."""
    build, parsers, energy = _FORCES[params["type"]]
    args = [params[key] for key in parsers if key in params]
    try:
        force = build(*args)
    except ValueError as exc:
        raise ConfigError(str(exc), pointer="/system/force") from exc
    return force, energy and functools.partial(energy, *args)


def _require_chart_point(chart, x, label: str, pointer: str) -> None:
    """Refuse x at pointer unless it is inside the chart and metric_at validates its metric."""
    if not manifold.in_domain(chart, x):
        raise ConfigError(f"{label} {x.tolist()} is outside chart {chart.name!r}", pointer=pointer)
    try:
        manifold.metric_at(chart, x)
    except (SingularMetricError, NumericOverflowError) as exc:
        raise ConfigError(str(exc), pointer=pointer) from None


def _json_dump(obj, path):
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config, _CONFIG)
    chart = build_chart(cfg)
    system = _walk(cfg["system"], _SYSTEM, "/system", chart.dim)
    kind = system["kind"]
    config = build_integrator(cfg)
    output = _walk(cfg.get("output", {}), _OUTPUT, "/output")
    out_dir = args.out_dir or output.get("directory", ".")
    stem = os.path.join(out_dir, output.get("basename", "trajectory"))
    csv_path, report_path = f"{stem}.csv", f"{stem}.json"
    start = _COTANGENT if kind == "hamilton" else _TANGENT
    initial = _walk(cfg["initial"], start, "/initial", chart.dim)
    if ("v" in initial) == ("p" in initial):  # a hamilton start left both out or gave both
        pointer = "/initial/p" if "p" in initial else "/initial/v"
        raise ConfigError("a hamilton start takes exactly one of 'v' and 'p'", pointer=pointer)
    x0 = initial["x"]
    _require_chart_point(chart, x0, "initial point", "/initial/x")
    q0 = TangentPoint(x0, initial["v"]) if "v" in initial else None

    if kind == "newton":
        force, energy_fn = _force(system["force"])
        run = functools.partial(
            dynamics_newton.integrate, chart, force, q0, config, energy_fn=energy_fn
        )
    elif kind == "lagrange":
        lag = _lagrangian(system)
        run = functools.partial(
            dynamics_lagrange.integrate_lagrangian,
            chart,
            lag,
            q0,
            config,
            energy_fn=lambda c, q: dynamics_hamilton.energy_h(c, lag, q),
        )
    else:
        lag = _lagrangian(system)
        ctx = dynamics_hamilton.LegendreContext(lag)
        ham = dynamics_hamilton.hamiltonian_from_lagrangian(ctx)
        if q0 is None:
            state0 = CotangentPoint(x0, initial["p"])
        else:
            state0 = dynamics_hamilton.legendre_forward(ctx, chart, q0)
        run = functools.partial(dynamics_hamilton.integrate_hamiltonian, chart, ham, state0, config)
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
    dynamics_newton.write_trajectory_csv(trajectory, csv_path)
    fiber = next(iter(trajectory.columns))  # "v" or "p", the first column
    final = {"x": trajectory.xs[-1], fiber: trajectory.columns[fiber][-1]}
    energies = trajectory.columns.get("h", trajectory.columns.get("H"))
    drift = None if energies is None else float(np.max(np.abs(energies - energies[0])))
    report = {
        "schema": 1,
        "command": "simulate",
        "chart": chart.name,
        "system": kind,
        "status": trajectory.status,
        "samples": int(len(trajectory.ts)),
        "t_final": float(trajectory.ts[-1]),
        "final_state": {key: [float(val) for val in values] for key, values in final.items()},
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
    if args.seed < 0:  # numpy's generators would refuse it inside a suite, with a traceback
        raise ConfigError(f"seed {args.seed} must be a non-negative integer", pointer="--seed")
    if args.chart is not None:
        try:
            manifold.builtin_chart(args.chart)
        except (RiemdynError, ValueError) as exc:
            raise ConfigError(str(exc), pointer="--chart") from None
    if args.report:
        if os.path.isdir(args.report):
            raise ConfigError(f"{args.report!r} is a directory", pointer="--report")
        folder = os.path.dirname(args.report) or "."
        if not os.path.isdir(folder):
            raise ConfigError(f"no directory {folder!r} for the report", pointer="--report")
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
        try:
            _json_dump(report, args.report)
        except OSError as exc:
            raise ConfigError(f"cannot write the report: {exc}", pointer="--report") from None
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
    cfg = _load_config(args.config, _LEGENDRE_CONFIG)
    chart = build_chart(cfg)
    lag = build_lagrangian(cfg["system"], dim=chart.dim)
    ctx = dynamics_hamilton.LegendreContext(lag)
    x, fiber = _parse_state(args.state, chart.dim)
    _require_chart_point(chart, x, "state point", "--state")
    try:
        if args.direction == "forward":
            v, p = fiber, dynamics_hamilton.legendre_forward(ctx, chart, TangentPoint(x, fiber)).p
        else:
            v, p = dynamics_hamilton.legendre_inverse(ctx, chart, CotangentPoint(x, fiber)).v, fiber
        h = dynamics_hamilton.energy_h(chart, lag, TangentPoint(x, v))
    except (NonConvergenceError, SingularSetError, SingularAError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_LEGENDRE
    except ChartDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except NumericOverflowError as exc:
        raise ConfigError(str(exc), pointer="--state") from None
    out = {key: [float(value) for value in part] for key, part in (("x", x), ("v", v), ("p", p))}
    out.update(h=h, iterations=ctx.last_iterations)  # iterations stays 0 for forward
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
