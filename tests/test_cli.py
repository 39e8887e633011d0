"""End-to-end coverage of the command line front end via main(argv)."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riemdyn import cli, verification


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# An int too large for a float, and a NaN, which json writes and reads as NaN.
_HUGE = int("9" * 401)
_NAN = float("nan")


def orbit_config(out_dir):
    return {
        "schema": 1,
        "chart": {"name": "polar2d"},
        "system": {"kind": "lagrange", "family": "kinetic-potential", "U": "sin(x1) + x2^2/2"},
        "integrator": {"method": "rk4", "dt": 1e-3, "t_span": [0.0, 0.4], "record_every": 10},
        "initial": {"x": [1.5, 0.2], "v": [0.2, 0.5]},
        "output": {"directory": out_dir, "basename": "orbit"},
    }


def test_simulate_writes_outputs_and_reruns_identically(tmp_path, capsys):
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    code = cli.main(["simulate", "-c", write_config(tmp_path, orbit_config(str(run_a)))])
    assert code == 0
    code = cli.main(
        ["simulate", "-c", write_config(tmp_path, orbit_config(str(run_b)), "b.json")]
    )
    assert code == 0
    capsys.readouterr()

    report = json.loads((run_a / "orbit.json").read_text())
    assert report["status"] == "completed"
    assert report["chart"] == "polar2d"
    assert report["samples"] > 1
    assert report["energy_drift"] < 1e-8
    assert not {"error", "error_class", "stop_time"} & set(report)
    assert (run_a / "orbit.csv").read_bytes() == (run_b / "orbit.csv").read_bytes()
    assert (run_a / "orbit.json").read_bytes() == (run_b / "orbit.json").read_bytes()


def test_simulate_hamilton_accepts_momentum_initial(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = {
        "schema": 1,
        "chart": {"name": "euclidean2"},
        "system": {"kind": "hamilton", "family": "fiberwise-phi", "phi": "w^2/2 + w^4/10", "C": "exp(-x1/4)"},
        "integrator": {"method": "rk45", "t_span": [0.0, 0.5], "rtol": 1e-9, "atol": 1e-11},
        "initial": {"x": [0.1, -0.2], "p": [0.7, 0.4]},
        "output": {"directory": str(out), "basename": "canonical"},
    }
    assert cli.main(["simulate", "-c", write_config(tmp_path, cfg)]) == 0
    capsys.readouterr()
    header = (out / "canonical.csv").read_text().split("\n", 1)[0]
    assert header == "t,x1,x2,p1,p2,H"
    report = json.loads((out / "canonical.json").read_text())
    assert report["energy_drift"] < 1e-8
    assert "p" in report["final_state"]


def test_simulate_reports_leaving_the_chart(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = {
        "schema": 1,
        "chart": {"name": "polar2d"},
        "system": {"kind": "newton", "force": {"type": "geodesic"}},
        "integrator": {"method": "rk4", "dt": 1e-3, "t_span": [0.0, 2.0], "record_every": 10},
        "initial": {"x": [0.6, 0.0], "v": [-1.0, 0.0]},
        "output": {"directory": str(out), "basename": "inward"},
    }
    assert cli.main(["simulate", "-c", write_config(tmp_path, cfg)]) == 3
    capsys.readouterr()
    report = json.loads((out / "inward.json").read_text())
    assert report["status"] == "left_chart"
    assert report["t_final"] < 0.7


def test_simulate_reports_a_singular_system(tmp_path, capsys):
    """A singular fiber Hessian mid-run ends the run; both files are written.

    Aimed at the origin, this fiberwise phi meets a singular A before the
    metric of polar2d turns singular; the kinetic L, whose A is g, leaves
    the chart instead."""
    out = tmp_path / "out"
    cfg = {
        "schema": 1,
        "chart": {"name": "polar2d"},
        "system": {
            "kind": "lagrange",
            "family": "fiberwise-phi",
            "phi": "w^2/2 + w^4/10",
            "C": "exp(-x1/4)",
        },
        "integrator": {"method": "rk45", "dt": 1e-3, "t_span": [0.0, 2.0]},
        "initial": {"x": [0.6, 0.0], "v": [-1.0, 0.0]},
        "output": {"directory": str(out), "basename": "inward"},
    }
    assert cli.main(["simulate", "-c", write_config(tmp_path, cfg)]) == 3
    capsys.readouterr()
    report = json.loads((out / "inward.json").read_text())
    assert report["status"] == "singular"
    assert report["error"] == "fiber Hessian is singular (det 1.000e-12) during integration"
    assert report["t_final"] < 0.7
    rows = (out / "inward.csv").read_text().splitlines()
    assert len(rows) == report["samples"] + 1


def test_simulate_refuses_an_underflowing_derivative_without_a_traceback(tmp_path):
    # dU/dx2 of x1/(x2*1e-200) divides by a square that underflows to zero.
    cfg = {
        "schema": 1,
        "chart": {"name": "euclidean2"},
        "system": {"kind": "newton", "force": {"type": "potential", "U": "x1/(x2*1e-200)"}},
        "integrator": {"method": "rk4", "dt": 1e-3, "t_span": [0.0, 0.1]},
        "initial": {"x": [1.0, 0.4], "v": [0.0, 0.0]},
        "output": {"directory": str(tmp_path / "out"), "basename": "quotient"},
    }
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "riemdyn.cli", "simulate", "-c", write_config(tmp_path, cfg)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 3
    assert "Traceback" not in done.stderr
    assert "underflows to zero" in done.stderr


def test_simulate_ends_an_overflowing_run_non_finite_without_a_warning(tmp_path):
    # dU/dx1 of -exp(x1) overflows to -inf near t = 1.07, and inf * 0 makes a NaN.
    out = tmp_path / "out"
    cfg = {
        "schema": 1,
        "chart": {"name": "euclidean2"},
        "system": {"kind": "newton", "force": {"type": "potential", "U": "-exp(x1)"}},
        "integrator": {"method": "rk4", "dt": 1e-3, "t_span": [0.0, 1.5]},
        "initial": {"x": [1.0, 0.0], "v": [1.0, 0.0]},
        "output": {"directory": str(out), "basename": "overflow"},
    }
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "riemdyn.cli", "simulate", "-c", write_config(tmp_path, cfg)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 3
    assert "Traceback" not in done.stderr
    assert "RuntimeWarning" not in done.stderr
    assert "not finite" in done.stderr
    report = json.loads((out / "overflow.json").read_text())
    assert report["status"] == "non_finite"
    assert f"error: {report['error']}" in done.stderr
    assert 1.0 < report["t_final"] < 1.1
    rows = (out / "overflow.csv").read_text().strip().split("\n")
    assert len(rows) == report["samples"] + 1


def _conformal_overflow_config(out_dir, x, t1, dt):
    """A geodesic of e^(600 x1) times the flat metric, whose symmetrisation overflows past x1 = 1.1818."""
    return {
        "schema": 1,
        "chart": {"name": "conformally_flat", "f": "-x1*300"},
        "system": {"kind": "newton", "force": {"type": "geodesic"}},
        "integrator": {"method": "rk4", "dt": dt, "t_span": [0.0, t1]},
        "initial": {"x": x, "v": [1.0, 0.0]},
        "output": {"directory": str(out_dir), "basename": "conformal"},
    }


def _simulate_in_a_subprocess(tmp_path, cfg, **env):
    """Run simulate in a new interpreter; a run that does not end in 60 s fails the test."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "riemdyn.cli", "simulate", "-c", write_config(tmp_path, cfg)],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=src, **env),
    )


def test_simulate_ends_a_run_whose_step_cannot_advance_t_step_underflow(tmp_path):
    """At t = 1e300 no step under dt_max = 0.1 changes t; the run stops at once."""
    out = tmp_path / "out"
    cfg = {
        "schema": 1,
        "chart": {"name": "euclidean2"},
        "system": {"kind": "newton", "force": {"type": "geodesic"}},
        "integrator": {"method": "rk45", "t_span": [1e300, 1.0000000001e300]},
        "initial": {"x": [0.0, 0.0], "v": [1.0, 0.0]},
        "output": {"directory": str(out), "basename": "stall"},
    }
    done = _simulate_in_a_subprocess(tmp_path, cfg, PYTHONWARNINGS="error::RuntimeWarning")
    assert done.returncode == 3
    assert done.stderr == "error: step dt = 0.001 does not advance t = 1e+300\n"
    report = json.loads((out / "stall.json").read_text())
    assert report["status"] == "step_underflow" and report["samples"] == 1
    assert report["error"] == "step dt = 0.001 does not advance t = 1e+300"
    assert report["error_class"] == "" and report["stop_time"] == 1e300
    assert len((out / "stall.csv").read_text().splitlines()) == 2


@pytest.mark.parametrize(
    "x,t1,dt",
    [
        ([1.5, 0.0], 1.0, 0.01),  # math.exp of the conformal factor overflows
        ([1.1826, 0.0], 5.0, 0.01),  # the factor is finite, g + g^T overflows
    ],
)
def test_simulate_refuses_an_initial_point_whose_metric_overflows(tmp_path, x, t1, dt):
    out = tmp_path / "out"
    done = _simulate_in_a_subprocess(tmp_path, _conformal_overflow_config(out, x, t1, dt))
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert "config error at /initial/x: metric on 'conformally_flat2'" in done.stderr
    assert "overflows the float range" in done.stderr
    assert not (out / "conformal.csv").exists()


@pytest.mark.parametrize(
    "chart,x",
    [
        ({"name": "conformally_flat", "f": "-x1*300"}, [1.1826, 0.0]),  # g + g^T overflows
        ({"name": "hyperbolic_half_plane"}, [0.0, 1e-200]),  # y^2 underflows to 0
    ],
    ids=["symmetrised", "hyperbolic"],
)
def test_simulate_refuses_an_infinite_metric_entry_without_a_warning(tmp_path, chart, x):
    cfg = dict(_conformal_overflow_config(tmp_path / "out", x, 1.0, 0.01), chart=chart)
    done = _simulate_in_a_subprocess(tmp_path, cfg, PYTHONWARNINGS="error::RuntimeWarning")
    assert done.returncode == 2
    assert "Traceback" not in done.stderr and "Warning" not in done.stderr
    assert "config error at /initial/x: metric on" in done.stderr
    assert "overflows the float range" in done.stderr


def test_simulate_ends_a_run_whose_metric_overflows_non_finite(tmp_path):
    # x1 = 1.17 + log(1 + 300 t)/300 reaches 1.1818 near t = 0.11.
    out = tmp_path / "out"
    done = _simulate_in_a_subprocess(
        tmp_path, _conformal_overflow_config(out, [1.17, 0.0], 1.0, 1e-3)
    )
    assert done.returncode == 3
    assert "Traceback" not in done.stderr
    report = json.loads((out / "conformal.json").read_text())
    assert report["status"] == "non_finite"
    assert report["error"].startswith("metric on 'conformally_flat2' at array([1.1818")
    assert report["error"].endswith("overflows the float range")
    assert f"error: {report['error']}" in done.stderr
    assert 0.11 < report["t_final"] < 0.12
    rows = (out / "conformal.csv").read_text().strip().split("\n")
    assert len(rows) == report["samples"] + 1


def test_simulate_ends_a_run_whose_conformal_factor_underflows_non_finite(tmp_path, capsys):
    # A = e^(600 x1) I is regular at x1 = 1, where its entries are 3.8e260; rk4 at
    # dt 0.01 throws x1 to -6.8 at t = 0.04, where the factor underflows to 0.
    out = tmp_path / "out"
    cfg = _conformal_overflow_config(out, [1.0, 0.0], 1.0, 0.01)
    cfg["chart"] = {"name": "euclidean2"}
    cfg["system"] = {"kind": "lagrange", "family": "conformal-kinetic", "f": "-x1*300"}
    assert cli.main(["simulate", "-c", write_config(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err
    report = json.loads((out / "conformal.json").read_text())
    assert report["status"] == "non_finite"
    assert report["error_class"] == "NumericOverflowError"
    assert report["error"].startswith("conformal factor e^(-2 f) at array([-6.83")
    assert report["error"].endswith("underflows the float range")
    assert f"error: {report['error']}" in err
    assert report["stop_time"] == pytest.approx(0.04)
    assert report["samples"] == 4
    rows = (out / "conformal.csv").read_text().strip().split("\n")
    assert len(rows) == report["samples"] + 1
    assert all(float(row.split(",")[-1]) > 0.0 for row in rows[1:])


def _energy_overflow_config(out_dir, system, x, dt):
    """f = -x1*300 on euclidean2: the energy's factor e^(600 x1) overflows past x1 = 1.183."""
    return {
        "schema": 1,
        "chart": {"name": "euclidean2"},
        "system": system,
        "integrator": {"method": "rk4", "dt": dt, "t_span": [0.0, 1.0]},
        "initial": {"x": x, "v": [1.0, 0.0]},
        "output": {"directory": str(out_dir), "basename": "energy"},
    }


_CONFORMAL_FORCE = {"kind": "newton", "force": {"type": "conformal", "f": "-x1*300"}}
_CONFORMAL_KINETIC = {"kind": "lagrange", "family": "conformal-kinetic", "f": "-x1*300"}


@pytest.mark.parametrize(
    "system", [_CONFORMAL_FORCE, _CONFORMAL_KINETIC], ids=["conformal", "conformal-kinetic"]
)
def test_simulate_refuses_an_initial_state_whose_energy_overflows(tmp_path, system):
    out = tmp_path / "out"
    done = _simulate_in_a_subprocess(
        tmp_path, _energy_overflow_config(out, system, [1.5, 0.0], 0.01)
    )
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("config error at /initial: conformal factor e^(-2 f)")
    assert "overflows the float range" in done.stderr
    assert not (out / "energy.csv").exists()
    assert not (out / "energy.json").exists()


def _fiberwise_overflow_config(out_dir, chart, phi, c, x, p):
    return {
        "schema": 1,
        "chart": {"name": chart},
        "system": {"kind": "hamilton", "family": "fiberwise-phi", "phi": phi, "C": c},
        "integrator": {"method": "rk4", "dt": 1e-3, "t_span": [0.0, 0.01]},
        "initial": {"x": x, "p": p},
        "output": {"directory": str(out_dir), "basename": "fiberwise"},
    }


def test_simulate_refuses_a_start_whose_momentum_over_c_overflows(tmp_path):
    """C = e^(-720 x1) is 2.7e-310 at x1 = 0.99, so |p|/C(x) is inf; the phi'
    inversion used to stall there, reported as a Newton stall at z = inf."""
    out = tmp_path / "out"
    cfg = _fiberwise_overflow_config(
        out, "euclidean2", "w^2/2 + w^4/10", "exp(-720*x1)", [0.99, 0.0], [0.5, 0.2]
    )
    done = _simulate_in_a_subprocess(tmp_path, cfg, PYTHONWARNINGS="error::RuntimeWarning")
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr == (
        "config error at /initial: |p|/C(x) = 0.5385164807134505/2.72203245711717e-310"
        " at array([0.99, 0.  ]) is not finite: it overflows the float range\n"
    )
    assert not out.exists()


def test_simulate_ends_a_run_whose_momentum_over_c_overflows_non_finite(tmp_path, capsys):
    # On polar2d, with phi = w^2/2 and C = 1, dp_r/dt = p_theta^2 / r^3 = 2.5e307,
    # so the second rk4 stage's p_r is 1.25e304 and its |p|^2 overflows.
    out = tmp_path / "out"
    cfg = _fiberwise_overflow_config(out, "polar2d", "w^2/2", "1", [1.0, 0.3], [0.0, 5e153])
    assert cli.main(["simulate", "-c", write_config(tmp_path, cfg)]) == 3
    report = json.loads((out / "fiberwise.json").read_text())
    assert report["status"] == "non_finite" and report["samples"] == 1
    assert report["error_class"] == "NumericOverflowError"
    assert report["error"].startswith("|p|/C(x) = inf/1.0 at array([")
    assert f"error: {report['error']}" in capsys.readouterr().err


def test_simulate_ends_a_run_whose_energy_overflows_and_writes_the_earlier_samples(
    tmp_path, capsys
):
    # x1 = 1.17 + log(1 + 600 t)/600 reaches 1.183 near t = 0.16.
    out = tmp_path / "out"
    cfg = _energy_overflow_config(out, _CONFORMAL_FORCE, [1.17, 0.0], 1e-3)
    assert cli.main(["simulate", "-c", write_config(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err
    report = json.loads((out / "energy.json").read_text())
    assert report["status"] == "non_finite"
    assert report["error"].startswith("conformal factor e^(-2 f) at array([1.18")
    assert report["error"].endswith("overflows the float range")
    assert f"error: {report['error']}" in err
    assert 0.15 < report["t_final"] < 0.17
    rows = (out / "energy.csv").read_text().strip().split("\n")
    assert len(rows) == report["samples"] + 1
    assert rows[0].endswith(",speed,h")


def test_simulate_ends_a_run_whose_expression_leaves_its_domain(tmp_path, capsys):
    # U = log(x1) pulls x1 through 0, where log is undefined, at t = 0.33.
    out = tmp_path / "out"
    cfg = {
        "schema": 1,
        "chart": {"name": "euclidean2"},
        "system": {"kind": "lagrange", "family": "kinetic-potential", "U": "log(x1)"},
        "integrator": {"method": "rk4", "dt": 0.01, "t_span": [0.0, 1.0]},
        "initial": {"x": [0.5, 0.0], "v": [-1.0, 0.0]},
        "output": {"directory": str(out), "basename": "log"},
    }
    assert cli.main(["simulate", "-c", write_config(tmp_path, cfg)]) == 3
    captured = capsys.readouterr()
    assert "error: log of non-positive value" in captured.err
    report = json.loads((out / "log.json").read_text())
    assert report["status"] == "non_finite"
    assert 0.25 < report["t_final"] < 0.35
    rows = (out / "log.csv").read_text().strip().split("\n")
    assert len(rows) == report["samples"] + 1


def test_simulate_reports_the_class_and_time_of_the_error_that_stopped_the_run(tmp_path, capsys):
    # The log run above, recording every 10th step: the stop comes after the last sample.
    out = tmp_path / "out"
    cfg = {
        "schema": 1,
        "chart": {"name": "euclidean2"},
        "system": {"kind": "lagrange", "family": "kinetic-potential", "U": "log(x1)"},
        "integrator": {"method": "rk4", "dt": 0.01, "t_span": [0.0, 1.0], "record_every": 10},
        "initial": {"x": [0.5, 0.0], "v": [-1.0, 0.0]},
        "output": {"directory": str(out), "basename": "log"},
    }
    assert cli.main(["simulate", "-c", write_config(tmp_path, cfg)]) == 3
    capsys.readouterr()
    report = json.loads((out / "log.json").read_text())
    assert report["status"] == "non_finite"
    assert report["error_class"] == "EvalDomainError"
    assert report["t_final"] < report["stop_time"] < report["t_final"] + 0.1
    assert 0.25 < report["stop_time"] < 0.35


def test_simulate_starts_where_only_the_curvature_of_the_potential_is_singular(tmp_path, capsys):
    # dU/dx1 = 1.5 sqrt(x1) is 0 at x1 = 0, where d2U/dx1^2 is singular; the force needs only dU.
    out = tmp_path / "out"
    cfg = {
        "schema": 1,
        "chart": {"name": "euclidean2"},
        "system": {"kind": "newton", "force": {"type": "potential", "U": "x1^1.5"}},
        "integrator": {"method": "rk4", "dt": 1e-3, "t_span": [0.0, 0.1]},
        "initial": {"x": [0.0, 0.0], "v": [1.0, 0.0]},
        "output": {"directory": str(out), "basename": "root"},
    }
    assert cli.main(["simulate", "-c", write_config(tmp_path, cfg)]) == 0
    capsys.readouterr()
    report = json.loads((out / "root.json").read_text())
    assert report["status"] == "completed"
    assert report["t_final"] == pytest.approx(0.1)


def test_simulate_reports_a_step_underflow(tmp_path, capsys):
    """x'' = x^3 from x = v = 1 blows up near t = 1.311; rk45 gives up with a status."""
    out = tmp_path / "out"
    cfg = {
        "schema": 1,
        "chart": {"name": "euclidean2"},
        "system": {"kind": "newton", "force": {"type": "potential", "U": "-x1^4/4"}},
        "integrator": {"method": "rk45", "t_span": [0.0, 5.0], "rtol": 1e-8, "atol": 1e-10, "dt_min": 1e-9},
        "initial": {"x": [1.0, 0.0], "v": [1.0, 0.0]},
        "output": {"directory": str(out), "basename": "blowup"},
    }
    assert cli.main(["simulate", "-c", write_config(tmp_path, cfg)]) == 3
    capsys.readouterr()
    report = json.loads((out / "blowup.json").read_text())
    assert report["status"] == "step_underflow"
    assert 1.31 < report["t_final"] < 1.312
    rows = (out / "blowup.csv").read_text().splitlines()[1:]
    assert len(rows) == report["samples"]
    times = [float(row.split(",", 1)[0]) for row in rows]
    # No accepted step is shorter than dt_min (up to the rounding of t).
    assert all(b - a > 0.99e-9 for a, b in zip(times, times[1:]))


@pytest.mark.parametrize(
    "mutate,pointer",
    [
        (lambda cfg: cfg.pop("schema"), "/schema"),
        (lambda cfg: cfg.update(schema=True), "/schema"),
        (lambda cfg: cfg["system"].update(U="sin("), "/system"),
        (lambda cfg: cfg["system"].update(U="x3"), "/system/U"),
        (
            lambda cfg: cfg.update(
                system={"kind": "newton", "force": {"type": "potential", "U": "x3"}}
            ),
            "/system/force/U",
        ),
        (
            lambda cfg: cfg.update(
                system={
                    "kind": "newton",
                    "force": {"type": "normal-shift", "W": "w^2/2", "h": "sin("},
                }
            ),
            "/system/force/h",
        ),
        (
            lambda cfg: cfg.update(
                system={"kind": "lagrange", "family": "fiberwise-phi", "phi": "w^2/2", "C": 5}
            ),
            "/system/C",
        ),
        (
            lambda cfg: cfg.update(
                system={"kind": "lagrange", "family": "fiberwise-phi", "phi": "x1 * w^2"}
            ),
            "/system:",
        ),
        (lambda cfg: cfg["system"].update(kind="quantum"), "/system/kind"),
        (lambda cfg: cfg["chart"].update(name="torus9"), "/chart"),
        (
            lambda cfg: cfg["chart"].update(name="conformally_flat"),
            "/chart: chart 'conformally_flat' needs the parameter 'f'",
        ),
        (lambda cfg: cfg["chart"].update(name="sphere2d", radius=True), "/chart/radius"),
        # Each builtin chart takes only its own parameters, numbers as numbers.
        (
            lambda cfg: cfg["chart"].update(name="sphere2d", radius="2"),
            "/chart/radius: expected a number",
        ),
        (
            lambda cfg: cfg["chart"].update(name="sphere2d", radius="nan"),
            "/chart/radius: expected a number",
        ),
        (
            lambda cfg: cfg["chart"].update(name="euclidean", dim="2"),
            "/chart/dim: expected an integer >= 1",
        ),
        (lambda cfg: cfg["chart"].update(name="euclidean", dim=0), "/chart/dim"),
        (
            lambda cfg: cfg["chart"].update(radius=2),
            "/chart/radius: unknown chart key 'radius' (known: name, rescale_f)",
        ),
        (
            lambda cfg: cfg["chart"].update(name="euclidean2", dim=3),
            "/chart/dim: unknown chart key 'dim' (known: name, rescale_f)",
        ),
        (
            lambda cfg: cfg.update(chart={"name": "conformally_flat", "f": 2}),
            "/chart/f: expected an expression",
        ),
        (
            lambda cfg: cfg.update(chart={"name": "conformally_flat", "f": "x3"}),
            "/chart/f: bad expression",
        ),
        (lambda cfg: cfg["chart"].update(rescale_f="sin("), "/chart/rescale_f: bad expression"),
        (lambda cfg: cfg["chart"].update(rescale_f="x3"), "/chart/rescale_f: bad expression"),
        (lambda cfg: cfg["initial"].update(x=[0.0, 0.0]), "/initial/x"),
        (lambda cfg: cfg["initial"].update(x=["a", 0]), "/initial/x: coordinates must be numbers"),
        (lambda cfg: cfg["initial"].update(x=[True, 0]), "/initial/x: coordinates must be numbers"),
        (lambda cfg: cfg["initial"].update(v=[[1], 0]), "/initial/v: components must be numbers"),
        (lambda cfg: cfg["initial"].update(v=[None, 0]), "/initial/v: components must be numbers"),
        (
            lambda cfg: cfg.update(
                system=dict(cfg["system"], kind="hamilton"), initial={"x": [1.5, 0.2], "p": ["q", 0]}
            ),
            "/initial/p: components must be numbers",
        ),
        # e^(-2 f) underflows to 0 at x1 = 1.5, so the metric there is singular.
        (
            lambda cfg: cfg.update(chart={"name": "conformally_flat", "f": "x1*400"}),
            "/initial/x: metric on 'conformally_flat2'",
        ),
        (lambda cfg: cfg["integrator"].update(dt=0.0), "/integrator/dt: dt must be positive"),
        (lambda cfg: cfg["integrator"].update(dt=-1), "/integrator/dt: dt must be positive"),
        (
            lambda cfg: cfg["integrator"].update(dtt=0.5),
            "/integrator/dtt: unknown integrator key 'dtt'",
        ),
        (
            lambda cfg: cfg["integrator"].update(record_every=0),
            "/integrator/record_every: record_every must be >= 1",
        ),
        (
            lambda cfg: cfg["integrator"].update(method="euler"),
            "/integrator/method: method 'euler' is unknown",
        ),
        (
            lambda cfg: cfg["integrator"].update(dt_min=0.5, dt_max=0.2),
            "/integrator: need dt_min <= dt_max",
        ),
        (lambda cfg: cfg["integrator"].update(dt=_NAN), "/integrator/dt"),
        (lambda cfg: cfg["integrator"].update(t_span=["a", 1]), "/integrator/t_span"),
        (lambda cfg: cfg["integrator"].update(t_span=[0, True]), "/integrator/t_span"),
        (lambda cfg: cfg["integrator"].update(dt=True), "/integrator/dt: expected a number"),
        (
            lambda cfg: cfg["integrator"].update(record_every=2.5),
            "/integrator/record_every: record_every must be an integer",
        ),
        (lambda cfg: cfg.update(output=[1]), "/output"),
        (lambda cfg: cfg["output"].update(directory=5), "/output/directory"),
        (lambda cfg: cfg["output"].update(basename=None), "/output/basename"),
        (
            lambda cfg: cfg["output"].update(basename="sub/orbit"),
            "/output/basename: basename must not contain a directory",
        ),
        (lambda cfg: cfg["output"].update(basename="or\0bit"), "/output/basename"),
        (
            lambda cfg: cfg["output"].update(directory=cfg["output"]["directory"] + "\0"),
            "/output/directory",
        ),
        # A number is finite as a float: an int too large for a float and a NaN are refused.
        (lambda cfg: cfg["initial"].update(x=[_HUGE, 0]), "/initial/x: coordinates must be numbers"),
        (lambda cfg: cfg["initial"].update(v=[_NAN, 0]), "/initial/v: components must be numbers"),
        (
            lambda cfg: cfg["integrator"].update(t_span=[0, _HUGE]),
            "/integrator/t_span: t_span entries must be numbers",
        ),
        (
            lambda cfg: cfg["integrator"].update(t_span=[0, _NAN]),
            "/integrator/t_span: t_span entries must be numbers",
        ),
        (
            lambda cfg: cfg["chart"].update(name="sphere2d", radius=_HUGE),
            "/chart/radius: expected a number",
        ),
        (
            lambda cfg: cfg["chart"].update(name="sphere2d", radius=_NAN),
            "/chart/radius: expected a number",
        ),
        # The top level, initial and output take only their own keys.
        (lambda cfg: cfg.update(integratr={}), "/integratr: unknown top-level key 'integratr'"),
        (lambda cfg: cfg["initial"].update(vv=1), "/initial/vv: unknown initial key 'vv'"),
        (lambda cfg: cfg["output"].update(dirr="x"), "/output/dirr: unknown output key 'dirr'"),
        (lambda cfg: cfg["output"].update({"a/b~": 1}), "/output/a~1b~0: unknown output key"),
        # Each system kind, family and force type takes only its own keys, and a
        # start takes x and v, or under hamilton x and exactly one of v and p.
        (lambda cfg: cfg["system"].update(UU="x1"), "/system/UU: unknown system key 'UU'"),
        (
            lambda cfg: cfg["system"].update(force={"type": "geodesic"}),
            "/system/force: unknown system key 'force'",
        ),
        (
            lambda cfg: cfg.update(
                system={"kind": "newton", "force": {"type": "geodesic"}, "family": "kinetic"}
            ),
            "/system/family: unknown system key 'family'",
        ),
        (
            lambda cfg: cfg.update(
                system={"kind": "newton", "force": {"type": "geodesic", "U": "x1"}}
            ),
            "/system/force/U: unknown force key 'U'",
        ),
        (
            lambda cfg: cfg.update(
                system={"kind": "newton", "force": {"type": "potential", "U": "x1", "h": "sin("}}
            ),
            "/system/force/h: unknown force key 'h'",
        ),
        (
            lambda cfg: cfg.update(
                system={"kind": "newton", "force": {"type": "geodesic"}},
                initial={"x": [1.5, 0.2], "v": [0.2, 0.5], "p": [0.0, 0.0]},
            ),
            "/initial/p: unknown initial key 'p' (known: x, v)",
        ),
        (lambda cfg: cfg["initial"].update(p=["a", 2]), "/initial/p: unknown initial key 'p'"),
        (
            lambda cfg: cfg.update(
                system=dict(cfg["system"], kind="hamilton"),
                initial={"x": [1.5, 0.2], "v": [0.2, 0.5], "p": [0.1, 0.3]},
            ),
            "/initial/p: a hamilton start takes exactly one of 'v' and 'p'",
        ),
        (
            lambda cfg: cfg["system"].update(family="kinetic"),
            "/system/U: unknown system key 'U'",
        ),
    ],
)
def test_bad_configs_point_at_the_offending_key(tmp_path, capsys, mutate, pointer):
    cfg = orbit_config(str(tmp_path / "out"))
    mutate(cfg)
    code = cli.main(["simulate", "-c", write_config(tmp_path, cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"config error at {pointer}" in err


# Valid values by key for configs drawn from cli's schema tables; every
# expression uses x1 and x2 only, so it holds on every chart.
_VALID = {
    "kind": ["lagrange", "hamilton"],
    "dim": [2, 3],
    "radius": [1.0, 2],
    "f": ["x1/4"],
    "rescale_f": ["x2/8"],
    "U": ["x1^2/2 + sin(x2)"],
    "phi": ["w^2/2 + w^4/10"],
    "C": ["exp(-x1/4)"],
    "T": ["w^2/2 + w^4/10", "w^2/2*exp(-x1/3)"],
    "W": ["w*exp(-x1/3)"],
    "h": ["0", "sin(w)"],
    "method": ["rk4", "rk45"],
    "dt": [1e-3, 2e-3],
    "t_span": [[0.0, 0.01], [0, 0.005]],
    "record_every": [1, 3],
    "rtol": [1e-8],
    "atol": [1e-10],
    "dt_min": [1e-9],
    "dt_max": [1e-2],
}
# Inside every builtin chart, with a metric that is regular there.
_START = {"x": [0.6, 0.4, 0.3], "v": [0.3, -0.2, 0.1], "p": [0.4, 0.2, -0.1]}
# A dropped key refused at another pointer: a hamilton start without p
# misses v, conformally_flat refuses a chart without its f itself, and a
# chart without dim 3 takes two coordinates.
_DROP_POINTERS = {"/initial/p": "/initial/v", "/chart/f": "/chart", "/chart/dim": "/initial/x"}
# Dropping either runs the default t in [0, 1]: a thousand steps.
_KEEP = ("/integrator", "/integrator/t_span")


# Every system kind with each of its force types or families, each on two charts
# so that every chart is drawn.
_CHARTS = sorted([*cli._CHART_PARAMETERS, "euclidean3", "polar2d", "hyperbolic_half_plane"])
_SYSTEMS = [
    (kind, name)
    for kind in cli._KINDS
    for name in (cli._FORCE_TYPES if kind == "newton" else cli._FAMILY)
]
_FUZZ_CASES = [
    (kind, name, _CHARTS[(i + shift) % len(_CHARTS)])
    for i, (kind, name) in enumerate(_SYSTEMS)
    for shift in (0, len(_CHARTS) // 2)
]


def _picker(draw, turn):
    """pick(options): one option drawn from the options turned by turn places.

    Every case draws the same bytes, and the turn spreads them over the options."""

    def pick(options):
        options = list(options)
        cut = turn % len(options)
        return draw(st.sampled_from(options[cut:] + options[:cut]))

    return pick


def _drawn_keys(draw, pick, table, keep=()):
    """Valid values of a table's required keys, of those in keep and of some of the others."""
    return {
        key: pick(_VALID[key])
        for key, (_, required) in table.items()
        if key in _VALID and (required or key in keep or draw(st.booleans()))
    }


def _drawn_chart(draw, pick, chart_name):
    chart = {"name": chart_name}
    chart.update(_drawn_keys(draw, pick, cli._CHART_PARAMETERS.get(chart_name, {}), keep=("f",)))
    chart.update(_drawn_keys(draw, pick, {"rescale_f": cli._CHART["rescale_f"]}))
    return chart


def _mutate_one_key(draw, pick, cfg, keep, drop_pointers):
    """Drop, retype or add a sibling to one key of cfg, in place; (how, the pointer it is refused at)."""

    def sections(section, pointer):
        yield section, pointer
        for key, value in section.items():
            if isinstance(value, dict):
                yield from sections(value, f"{pointer}/{key}")

    section, pointer = pick(sections(cfg, ""))
    key = pick(section)
    pointer = f"{pointer}/{key}"
    how = pick(["retype", "sibling"] + ["drop"] * (pointer not in keep))
    if how == "drop":
        del section[key]
        pointer = drop_pointers.get(pointer, pointer)
    elif how == "retype":
        section[key] = 7 if isinstance(section[key], str) else "s"
    else:
        section["a/b~"] = 1
        pointer = pointer.rsplit("/", 1)[0] + "/a~1b~0"
    return how, pointer


@st.composite
def _mutated_configs(draw, kind, name, chart_name, turn):
    """A valid config of the system drawn from the schema tables, one key of it mutated,
    and where the mutation is refused."""
    pick = _picker(draw, turn)
    chart = _drawn_chart(draw, pick, chart_name)
    if kind == "newton":
        system = {"kind": kind, "force": {"type": name, **_drawn_keys(draw, pick, cli._FORCE_TYPES[name])}}
    else:
        system = {"kind": kind, "family": name, **_drawn_keys(draw, pick, cli._FAMILY[name])}
    dim = 3 if chart_name == "euclidean3" else chart.get("dim", 2)
    fiber = "p" if kind == "hamilton" and draw(st.booleans()) else "v"
    cfg = {
        "schema": 1,
        "chart": chart,
        "system": system,
        "integrator": _drawn_keys(draw, pick, cli._INTEGRATOR, keep=("t_span",)),
        "initial": {key: _START[key][:dim] for key in ("x", fiber)},
        "output": {"directory": "out", "basename": "fuzz"},
    }
    how, pointer = _mutate_one_key(draw, pick, cfg, _KEEP, _DROP_POINTERS)
    return cfg, how, pointer


@pytest.mark.parametrize("turn", range(len(_FUZZ_CASES)))
@settings(max_examples=4, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_config_with_one_key_mutated_is_refused_at_that_key_or_runs(turn, data):
    cfg, how, pointer = data.draw(_mutated_configs(*_FUZZ_CASES[turn], turn))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(pathlib.Path(tmp), cfg)
        argv = ["simulate", "-c", path, "--out-dir", os.path.join(tmp, "out")]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    # A dropped optional key leaves a config that runs; any other mutation is refused.
    if how != "drop" or code == 2:
        assert code == 2, (how, pointer)
        assert err.getvalue().startswith(f"config error at {pointer}: "), (how, err.getvalue())
    else:
        assert code in (0, 3), err.getvalue()


# legendre reads chart and system only; it reads the state's dimension off the chart.
_LEGENDRE_DROP_POINTERS = {"/chart/f": "/chart", "/chart/dim": "--state"}
_LEGENDRE_CASES = [
    (family, _CHARTS[(i + shift) % len(_CHARTS)])
    for i, family in enumerate(cli._FAMILY)
    for shift in (0, len(_CHARTS) // 2)
]


@st.composite
def _mutated_legendre_configs(draw, family, chart_name, turn):
    """A valid legendre config drawn from _LEGENDRE_CONFIG and _LAGRANGIAN, one key of it
    mutated, where the mutation is refused, and the command line of the run."""
    pick = _picker(draw, turn)
    chart = _drawn_chart(draw, pick, chart_name)
    dim = 3 if chart_name == "euclidean3" else chart.get("dim", 2)
    system = _drawn_keys(draw, pick, cli._LAGRANGIAN)
    system.update(family=family, **_drawn_keys(draw, pick, cli._FAMILY[family]))
    unread = {
        "integrator": _drawn_keys(draw, pick, cli._INTEGRATOR, keep=("t_span",)),
        "initial": {key: _START[key][:dim] for key in ("x", "v")},
        "output": {"directory": "out", "basename": "fuzz"},
    }
    cfg = {"schema": 1, "chart": chart, "system": system}
    cfg.update(
        (key, unread[key])
        for key, (_, required) in cli._LEGENDRE_CONFIG.items()
        if key in unread and (required or draw(st.booleans()))
    )
    how, pointer = _mutate_one_key(draw, pick, cfg, (), _LEGENDRE_DROP_POINTERS)
    direction = pick(["forward", "inverse"])
    fiber = _START["v" if direction == "forward" else "p"][:dim]
    state = ";".join(",".join(map(str, part)) for part in (_START["x"][:dim], fiber))
    return cfg, how, pointer, ["--direction", direction, "--state", state]


@pytest.mark.parametrize("turn", range(len(_LEGENDRE_CASES)))
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_legendre_config_with_one_key_mutated_is_refused_at_that_key_or_runs(turn, data):
    cfg, how, pointer, args = data.draw(_mutated_legendre_configs(*_LEGENDRE_CASES[turn], turn))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["legendre", "-c", write_config(pathlib.Path(tmp), cfg), *args]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    # Inside chart and system, and at the top level, only a dropped optional key may run;
    # the keys of the sections legendre does not read are never refused.
    read = pointer.count("/") == 1 or pointer.startswith(("/chart", "/system"))
    if code == 2 or (read and how != "drop"):
        assert code == 2, (how, pointer)
        assert err.getvalue().startswith(f"config error at {pointer}: "), (how, err.getvalue())
    else:
        assert code in (0, 4), (how, pointer, err.getvalue())


@pytest.mark.parametrize(
    "mutate",
    [
        # A null basename used to run and write None.csv, and a NUL byte to raise a ValueError.
        lambda cfg: cfg["output"].update(basename=None),
        lambda cfg: cfg["output"].update(basename="or\0bit"),
        lambda cfg: cfg["output"].update(directory=cfg["output"]["directory"] + "\0"),
        # Refusals after the output keys are read used to leave an empty directory.
        lambda cfg: cfg["initial"].update(x=["a", 0]),
        lambda cfg: cfg["chart"].update(name="sphere2d", radius=_NAN),
        # f = -x1*300 from x1 = 1.5: the initial energy's factor e^(600 x1) overflows.
        lambda cfg: cfg.update(chart={"name": "euclidean2"}, system=_CONFORMAL_KINETIC),
    ],
    ids=[
        "basename-None",
        "basename-or\0bit",
        "directory-out\0",
        "initial-x",
        "chart-radius",
        "initial-energy",
    ],
)
def test_refused_output_writes_nothing(tmp_path, capsys, mutate):
    cfg = orbit_config(str(tmp_path / "out"))
    mutate(cfg)
    assert cli.main(["simulate", "-c", write_config(tmp_path, cfg)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_an_output_directory_that_cannot_be_made_is_refused(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory")
    cfg = orbit_config(str(taken))
    assert cli.main(["simulate", "-c", write_config(tmp_path, cfg)]) == 2
    assert "config error at /output/directory: cannot create" in capsys.readouterr().err
    cfg = orbit_config(str(tmp_path / "out"))
    argv = ["simulate", "-c", write_config(tmp_path, cfg), "--out-dir", str(taken)]
    assert cli.main(argv) == 2
    assert "config error at --out-dir: cannot create" in capsys.readouterr().err


def test_unknown_force_type(tmp_path, capsys):
    cfg = orbit_config(str(tmp_path / "out"))
    cfg["system"] = {"kind": "newton", "force": {"type": "tractor-beam"}}
    assert cli.main(["simulate", "-c", write_config(tmp_path, cfg)]) == 2
    assert "/system/force/type" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--suite", "bogus"], "error: unknown suite 'bogus'"),
        (["--suite", "identities", "--chart", "nosuch"], "at --chart: unknown chart 'nosuch'"),
        (["--suite", "identities", "--chart", "conformally_flat"], "needs the parameter 'f'"),
        (["--suite", "all", "--chart", "conformally_flat"], "needs the parameter 'f'"),
    ],
)
def test_unknown_suites_and_charts_are_usage_errors(capsys, argv, message):
    assert cli.main(["verify", *argv]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["identities", "all"])
def test_a_negative_seed_is_refused_before_any_suite_runs(capsys, monkeypatch, suite):
    def run_suite(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(verification, "run_suite", run_suite)
    assert cli.main(["verify", "--suite", suite, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "config error at --seed: seed -1 must be a non-negative integer\n"


def test_a_chart_without_a_coordinate_of_a_suite_system_has_no_scenario_of_that_suite(capsys):
    """identities' U = sin(x1) + x2^2/2 names x2, which euclidean1 lacks: the one suite
    exits 2 and all leaves it out, with legendre, which runs the same U."""
    assert cli.main(["verify", "--suite", "identities", "--chart", "euclidean1"]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: suite 'identities' has no scenario on chart 'euclidean1': "
        "kinetic-potential[sin(x1) + x2^2/2] names x2\n"
    )
    assert cli.main(["verify", "--suite", "all", "--chart", "euclidean1"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    ran = {line.split()[1].split("/")[0] for line in out.splitlines() if line.startswith("PASS")}
    assert ran == {"chainrules", "projectors", "cancellation"}
    assert out.endswith("suite all: 12/12 checks passed\n")


def test_all_skips_only_a_suite_without_a_scenario_on_the_chart(monkeypatch):
    def raising(error):
        def suite(chart_name, seed):
            raise error

        return suite

    monkeypatch.setattr(verification, "_SUITES", {"none": raising(verification.NoScenarioError())})
    assert verification.run_suite("all")["checks"] == []
    monkeypatch.setattr(verification, "_SUITES", {"broken": raising(ValueError("a fault"))})
    with pytest.raises(ValueError, match="a fault"):
        verification.run_suite("all")


def test_a_fault_inside_a_suite_is_not_a_usage_error(monkeypatch):
    def suite(chart_name, seed):
        raise ValueError("a fault inside the suite")

    monkeypatch.setattr(verification, "_SUITES", {"identities": suite})
    with pytest.raises(ValueError, match="a fault inside the suite"):
        cli.main(["verify", "--suite", "identities"])


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_verify_refuses_an_unusable_report_path_before_the_suite_runs(
    tmp_path, capsys, monkeypatch, where
):
    def refuse(*args):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(verification, "run_suite", refuse)
    path = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    assert cli.main(["verify", "--suite", "cancellation", "--report", str(path)]) == 2
    out, err = capsys.readouterr()
    assert "config error at --report: " in err
    assert "PASS" not in out


def test_verify_refuses_a_report_that_cannot_be_written(tmp_path, capsys, monkeypatch):
    def unwritable(obj, path):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli, "_json_dump", unwritable)
    argv = ["verify", "--suite", "rk4order", "--report", str(tmp_path / "report.json")]
    assert cli.main(argv) == 2
    assert "config error at --report: cannot write the report: " in capsys.readouterr().err


def test_verify_suite_passes_and_writes_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = cli.main(["verify", "--suite", "rk4order", "--report", str(report_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "suite rk4order:" in out
    assert "PASS" in out
    report = json.loads(report_path.read_text())
    assert report["passed"] is True
    assert report["suite"] == "rk4order"
    assert all(check["pass"] for check in report["checks"])


def legendre_config(tmp_path, phi="w^2/2 + w^4/10", c="exp(-x1/4)"):
    cfg = {
        "schema": 1,
        "chart": {"name": "euclidean2"},
        "system": {"kind": "hamilton", "family": "fiberwise-phi", "phi": phi, "C": c},
    }
    return write_config(tmp_path, cfg, "legendre.json")


def test_a_fiberwise_run_whose_phi_prime_inversions_outlast_newton_completes(tmp_path, capsys):
    """phi' = w + w^9 at |p|/C = 1e6: 100 Newton steps from z = 1e6 stall near z = 7.67,
    and bisection of the bracket finishes every inversion."""
    cfg = {
        "schema": 1,
        "chart": {"name": "euclidean2"},
        "system": {"kind": "hamilton", "family": "fiberwise-phi", "phi": "w^2/2 + w^10/10", "C": "1"},
        "integrator": {"method": "rk4", "dt": 1e-3, "t_span": [0.0, 0.1], "record_every": 10},
        "initial": {"x": [0.1, 0.0], "p": [1e6, 0.0]},
        "output": {"directory": str(tmp_path / "out"), "basename": "w10"},
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["simulate", "-c", write_config(tmp_path, cfg)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "out" / "w10.json").read_text())
    assert report["status"] == "completed" and report["samples"] == 11


def test_legendre_cli_roundtrip(tmp_path, capsys):
    cfg = legendre_config(tmp_path)
    assert cli.main(["legendre", "-c", cfg, "--direction", "forward", "--state", "0.5,-0.3;0.8,0.2"]) == 0
    forward = json.loads(capsys.readouterr().out)
    p_text = ",".join(repr(v) for v in forward["p"])
    assert cli.main(["legendre", "-c", cfg, "--direction", "inverse", "--state", f"0.5,-0.3;{p_text}"]) == 0
    inverse = json.loads(capsys.readouterr().out)
    assert inverse["v"] == pytest.approx([0.8, 0.2], abs=1e-9)
    assert inverse["h"] == pytest.approx(forward["h"], abs=1e-12)
    assert inverse["iterations"] >= 1


def test_legendre_inverts_a_momentum_whose_cold_start_lies_below_the_grid(tmp_path, capsys):
    """phi' = w + w^9 at |p| = 1e6 is solved by |v| = 4.64, at the scale 4.6e-6 of g^-1 p.
    The cold-start walk steps on past the grid's end, 1e-2, while the residual falls;
    from 1e-2 Newton did not converge in 50 steps (exit 4, residual 9.580e+12)."""
    cfg = legendre_config(tmp_path, phi="w^2/2 + w^10/10", c="1")
    argv = ["legendre", "-c", cfg, "--direction", "inverse", "--state", "0.1,0;1e6,0"]
    outputs = []
    for _ in range(2):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        outputs.append(out)
    assert outputs[0] == outputs[1]
    result = json.loads(outputs[0])
    assert result["v"][0] == pytest.approx(4.6416, abs=1e-4) and result["v"][1] == 0.0
    assert result["iterations"] <= 5


def test_legendre_singular_hessian_exit_code(tmp_path, capsys):
    cfg = legendre_config(tmp_path, phi="w")
    code = cli.main(["legendre", "-c", cfg, "--direction", "inverse", "--state", "0.0,0.0;0.5,0.2"])
    capsys.readouterr()
    assert code == 4


def test_legendre_refuses_an_unknown_top_level_key(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"schema": 1, "chart": {"name": "polar2d"}, "system": {"kind": "hamilton", "family": "kinetic"},
         "integratr": {}},
    )
    assert cli.main(["legendre", "-c", cfg, "--direction", "forward", "--state", "1.0,0.0;1.0,0.0"]) == 2
    assert "config error at /integratr: unknown top-level key 'integratr'" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["quantum", "newton"])
def test_legendre_refuses_a_system_kind_without_a_lagrangian(tmp_path, capsys, kind):
    cfg = write_config(
        tmp_path,
        {"schema": 1, "chart": {"name": "polar2d"}, "system": {"kind": kind, "family": "kinetic"}},
    )
    assert cli.main(["legendre", "-c", cfg, "--direction", "forward", "--state", "1.0,0.0;1.0,0.0"]) == 2
    assert "config error at /system/kind: expected 'lagrange' or 'hamilton'" in capsys.readouterr().err
    # A system without a kind is taken, as perfbench's legendre_roundtrip set-up passes one.
    assert cli.build_lagrangian({"family": "kinetic"}).family == "kinetic"


def test_legendre_state_validation(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"schema": 1, "chart": {"name": "polar2d"}, "system": {"kind": "hamilton", "family": "kinetic"}},
    )
    assert cli.main(["legendre", "-c", cfg, "--direction", "forward", "--state", "1.0,0.0"]) == 2
    assert "--state" in capsys.readouterr().err
    assert cli.main(["legendre", "-c", cfg, "--direction", "forward", "--state=-1.0,0.0;1.0,0.0"]) == 2
    assert "outside chart" in capsys.readouterr().err


@pytest.mark.parametrize(
    "state, message",
    [
        ("0.1,-0.2;nan,0", "has a non-finite component"),
        ("0.1,-0.2;inf,0", "has a non-finite component"),
        ("0.1,-0.2;1e300,1e300", "overflows the float range"),
    ],
    ids=["nan", "inf", "overflow"],
)
@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_legendre_refuses_a_non_finite_or_overflowing_state(
    tmp_path, capsys, state, message, direction
):
    cfg = legendre_config(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["legendre", "-c", cfg, "--direction", direction, "--state", state])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("config error at --state:")
    assert message in captured.err


@pytest.mark.parametrize(
    "chart, state, message",
    [
        ({"name": "conformally_flat", "f": "-x1*300"}, "1.5,0;1,0", "overflows the float range"),
        ({"name": "polar2d"}, "1e-7,0;1,0", "is singular (det 1.000e-14)"),
    ],
    ids=["overflow", "singular"],
)
@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_legendre_refuses_a_state_whose_metric_is_singular_or_overflows(
    tmp_path, capsys, chart, state, message, direction
):
    cfg = write_config(
        tmp_path, {"schema": 1, "chart": chart, "system": {"kind": "hamilton", "family": "kinetic"}}
    )
    assert cli.main(["legendre", "-c", cfg, "--direction", direction, "--state", state]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error at --state: metric on")
    assert message in err
