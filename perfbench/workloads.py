"""The benchmark's operations, their reference checks and set-up builders.

Each workload runs one operation per call through riemdyn's public entry
points. ``call`` is the timed part; ``check`` runs after the clock stops and
grades the outputs against a reference. Calls go through module attributes
(``cli.main``, ``dynamics_newton.integrate``) so that the traced run sees the
wrapped functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from riemdyn import cli, dynamics_hamilton, dynamics_lagrange, dynamics_newton, verification
from riemdyn.extended_fields import CotangentPoint, TangentPoint

# Final-position tolerance against the great-circle oracle, in radians. Step
# control at rtol 1e-9 is relative to a longitude that grows to about 100 rad,
# which allows about 1e-7 rad of error per step over some 2,000 steps; a
# wrong right-hand side misses by orders of magnitude more.
GEODESIC_ORACLE_TOL = 1e-5


@dataclass
class Outcome:
    """What one operation produced, as graded by its reference check."""

    ok: bool
    detail: str = ""
    # (name, value, tolerance, target) per check
    checks: list = field(default_factory=list)
    bytes_written: int = 0


def _quiet(argv):
    """riemdyn.cli.main with its per-check lines kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _grade(checks):
    failing = [name for name, value, tol, target in checks if not abs(value - target) <= tol]
    return (not failing), ", ".join(failing)


def _file_sizes(*paths):
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


class Simulate:
    """`riemdyn simulate` of one generated config."""

    def call(self, path, out_dir):
        return _quiet(["simulate", "-c", path, "--out-dir", out_dir])

    def _report(self, path, out_dir, rc):
        base = _load(path)["output"]["basename"]
        report_path = os.path.join(out_dir, f"{base}.json")
        report = _load(report_path)
        size = _file_sizes(report_path, os.path.join(out_dir, report["csv"]))
        if rc != 0 or report["status"] != "completed":
            return None, Outcome(False, f"exit {rc}, status {report['status']}", [], size)
        return report, Outcome(True, "", [], size)


class CanonicalFiberwise(Simulate):
    """Energy drift of the canonical run within ENERGY_DRIFT_TOL."""

    def check(self, path, out_dir, rc):
        report, outcome = self._report(path, out_dir, rc)
        if report is None:
            return outcome
        outcome.checks = [("energy_drift", report["energy_drift"], verification.ENERGY_DRIFT_TOL, 0.0)]
        outcome.ok, outcome.detail = _grade(outcome.checks)
        return outcome


class GeodesicAdaptive(Simulate):
    """Final position agrees with verification.sphere_geodesic_oracle."""

    def check(self, path, out_dir, rc):
        report, outcome = self._report(path, out_dir, rc)
        if report is None:
            return outcome
        cfg = _load(path)
        x0 = np.array(cfg["initial"]["x"])
        v0 = np.array(cfg["initial"]["v"])
        exact = verification.sphere_geodesic_oracle(
            cfg["chart"]["radius"], x0, v0, report["t_final"]
        )
        got = report["final_state"]["x"]
        dphi = (got[1] - exact[1] + math.pi) % (2.0 * math.pi) - math.pi
        error = max(abs(got[0] - exact[0]), abs(dphi))
        outcome.checks = [("oracle_distance", error, GEODESIC_ORACLE_TOL, 0.0)]
        outcome.ok, outcome.detail = _grade(outcome.checks)
        return outcome


class ThreewaySphere:
    """Newtonian, classical Lagrangian and Hamiltonian legs from one start state."""

    def call(self, path, out_dir):
        cfg = _load(path)
        chart = cli.build_chart(cfg)
        lag = cli.build_lagrangian(cfg["system"])
        config = cli.build_integrator(cfg)
        q0 = TangentPoint(np.array(cfg["initial"]["x"]), np.array(cfg["initial"]["v"]))
        ctx = dynamics_hamilton.LegendreContext(lag)
        ham = dynamics_hamilton.hamiltonian_from_lagrangian(ctx)

        newton = dynamics_newton.integrate(
            chart, dynamics_lagrange.lagrangian_force_field(lag), q0, config
        )
        lagrange = dynamics_lagrange.integrate_lagrangian(chart, lag, q0, config)
        hamilton = dynamics_hamilton.integrate_hamiltonian(
            chart, ham, dynamics_hamilton.legendre_forward(ctx, chart, q0), config
        )
        statuses = (newton.status, lagrange.status, hamilton.status)
        if statuses != ("completed",) * 3:
            return {"statuses": statuses}
        vs_h = np.stack(
            [ham.dp(chart, CotangentPoint(x, p)) for x, p in zip(hamilton.xs, hamilton.ps)]
        )
        legs = {
            "newton": (newton.xs, newton.vs),
            "lagrange": (lagrange.xs, lagrange.vs),
            "hamilton": (hamilton.xs, vs_h),
        }
        gaps = {}
        for a, b in (("newton", "lagrange"), ("newton", "hamilton"), ("lagrange", "hamilton")):
            gaps[f"{a}_vs_{b}"] = max(
                float(np.max(np.abs(legs[a][0] - legs[b][0]))),
                float(np.max(np.abs(legs[a][1] - legs[b][1]))),
            )
        return {"statuses": statuses, "gaps": gaps}

    def check(self, path, out_dir, result):
        if "gaps" not in result:
            return Outcome(False, f"statuses {result['statuses']}")
        checks = [(k, v, verification.THREEWAY_TOL, 0.0) for k, v in result["gaps"].items()]
        ok, detail = _grade(checks)
        return Outcome(ok, detail, checks)


class LegendreRoundtrip:
    """`riemdyn verify --suite legendre --seed S`; the suite must pass."""

    def _report_path(self, path, out_dir):
        return os.path.join(out_dir, os.path.basename(path).replace("input", "report"))

    def call(self, path, out_dir):
        cfg = _load(path)
        return _quiet(
            [
                "verify",
                "--suite",
                cfg["suite"],
                "--seed",
                str(cfg["seed"]),
                "--report",
                self._report_path(path, out_dir),
            ]
        )

    def check(self, path, out_dir, rc):
        report_path = self._report_path(path, out_dir)
        report = _load(report_path)
        checks = [
            (c["name"], c["value"], c["tolerance"], c.get("target", 0.0)) for c in report["checks"]
        ]
        ok, detail = _grade(checks)
        if rc != 0 or not report["passed"]:
            ok, detail = False, f"exit {rc}: {detail}"
        return Outcome(ok, detail, checks, _file_sizes(report_path))


WORKLOADS = {
    "canonical_fiberwise": CanonicalFiberwise(),
    "threeway_sphere": ThreewaySphere(),
    "geodesic_adaptive": GeodesicAdaptive(),
    "legendre_roundtrip": LegendreRoundtrip(),
}


def build_inputs(workload: str, path: str):
    """Build a workload's inputs through the public builders, as set-up does."""
    cfg = _load(path)
    if workload == "legendre_roundtrip":
        charts = [cli.build_chart({"chart": {"name": name}}) for name in cfg["charts"]]
        hams = []
        for system in cfg["systems"]:
            ctx = dynamics_hamilton.LegendreContext(cli.build_lagrangian(system))
            hams.append(dynamics_hamilton.hamiltonian_from_lagrangian(ctx))
        return charts, hams
    chart = cli.build_chart(cfg)
    config = cli.build_integrator(cfg)
    system = cfg["system"]
    if system["kind"] == "newton":
        return chart, config, cli.build_force(system)
    lag = cli.build_lagrangian(system)
    ham = dynamics_hamilton.hamiltonian_from_lagrangian(dynamics_hamilton.LegendreContext(lag))
    if workload == "threeway_sphere":
        return chart, config, ham, dynamics_lagrange.lagrangian_force_field(lag)
    return chart, config, ham
