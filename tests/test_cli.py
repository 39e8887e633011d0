"""End-to-end coverage of the command line front end via main(argv)."""

import json
import os
import subprocess
import sys
import warnings

import pytest

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
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "riemdyn.cli", "simulate", "-c", write_config(tmp_path, cfg)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src, **env),
    )


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
            lambda cfg: cfg["system"].update(
                kind="newton", force={"type": "potential", "U": "x3"}
            ),
            "/system/force/U",
        ),
        (
            lambda cfg: cfg["system"].update(
                kind="newton", force={"type": "normal-shift", "W": "w^2/2", "h": "sin("}
            ),
            "/system/force/h",
        ),
        (
            lambda cfg: cfg["system"].update(family="fiberwise-phi", phi="w^2/2", C=5),
            "/system/C",
        ),
        (
            lambda cfg: cfg["system"].update(family="fiberwise-phi", phi="x1 * w^2"),
            "/system:",
        ),
        (lambda cfg: cfg["system"].update(kind="quantum"), "/system/kind"),
        (lambda cfg: cfg["chart"].update(name="torus9"), "/chart"),
        (
            lambda cfg: cfg["chart"].update(name="conformally_flat"),
            "/chart: chart 'conformally_flat' needs the parameter 'f'",
        ),
        (lambda cfg: cfg["chart"].update(name="sphere2d", radius=True), "/chart/radius"),
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
        (lambda cfg: cfg["integrator"].update(dt=0.0), "/integrator"),
        (lambda cfg: cfg["integrator"].update(dt=_NAN), "/integrator/dt"),
        (lambda cfg: cfg["integrator"].update(t_span=["a", 1]), "/integrator/t_span"),
        (lambda cfg: cfg["integrator"].update(t_span=[0, True]), "/integrator/t_span"),
        (lambda cfg: cfg["integrator"].update(dt=True), "/integrator/dt: expected a number"),
        (
            lambda cfg: cfg["integrator"].update(record_every=2.5),
            "/integrator: record_every must be an integer",
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
            "/chart/radius: expected a number or a string",
        ),
        (
            lambda cfg: cfg["chart"].update(name="sphere2d", radius=_NAN),
            "/chart/radius: expected a number or a string",
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


def legendre_config(tmp_path, phi="w^2/2 + w^4/10"):
    cfg = {
        "schema": 1,
        "chart": {"name": "euclidean2"},
        "system": {"kind": "hamilton", "family": "fiberwise-phi", "phi": phi, "C": "exp(-x1/4)"},
    }
    return write_config(tmp_path, cfg, "legendre.json")


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


def test_legendre_singular_hessian_exit_code(tmp_path, capsys):
    cfg = legendre_config(tmp_path, phi="w")
    code = cli.main(["legendre", "-c", cfg, "--direction", "inverse", "--state", "0.0,0.0;0.5,0.2"])
    capsys.readouterr()
    assert code == 4


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
