"""The benchmark's own tests: input generation, tracing counts and count invariants.

    python3 -m pytest perfbench -q

The traced-run tests start ``run.py`` in a fresh interpreter per workload,
because installing the tracer rebinds riemdyn's functions process-wide.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import generate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402


def _traced_run(workload, cwd=ROOT, root=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_generator_is_deterministic_in_the_seed(workload, tmp_path):
    a = generate.generate(workload, 5, str(tmp_path / "a"))
    b = generate.generate(workload, 5, str(tmp_path / "b"))
    c = generate.generate(workload, 6, str(tmp_path / "c"))
    assert len(a) == generate.INPUTS
    assert all(filecmp.cmp(x, y, shallow=False) for x, y in zip(a, b))
    assert not all(filecmp.cmp(x, z, shallow=False) for x, z in zip(a, c))


@pytest.mark.parametrize("workload", sorted(run.SPECS))
def test_traced_run_keeps_the_count_invariants(workload):
    done = _traced_run(workload)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    m = {name: metric["value"] for name, metric in result["metrics"].items()}
    spec = run.SPECS[workload]
    assert result["failed"] == 0, done.stderr
    if spec["rk4"]:
        assert m["dynamics_newton.rhs_evals"] == pytest.approx(4 * m["dynamics_newton.steps_accepted"])
    # dynamics_lagrange and dynamics_hamilton import integrate_ode by name; the
    # tracer must still see their legs' steps.
    if workload == "threeway_sphere":
        assert m["dynamics_lagrange.rhs_us"] > 0 and m["dynamics_hamilton.rhs_us"] > 0
        assert m["dynamics_newton.rhs_evals"] == 3 * 4 * 250
    for layer in spec["nonzero"]:
        assert m[f"{layer}.calls"] > 0, layer
    for layer in spec["zero"]:
        assert m[f"{layer}.calls"] == 0, layer
    assert result["correct"], done.stderr


def test_tracer_counts_adaptive_steps_and_self_time():
    import riemdyn
    from riemdyn import dynamics_newton, manifold
    from riemdyn.extended_fields import TangentPoint

    tracer = spans.Tracer()
    tracer.install()
    tracer.active = True
    tracer.op_id = 0
    try:
        trajectory = dynamics_newton.integrate(
            manifold.builtin_chart("sphere2d"),
            dynamics_newton.geodesic_system(),
            TangentPoint(np.array([1.0, 0.3]), np.array([0.3, 0.9])),
            riemdyn.IntegratorConfig(method="rk45", t_span=(0.0, 3.0), rtol=1e-9, atol=1e-11),
        )
    finally:
        tracer.active = False
    m = spans.layer_metrics(tracer, 1)
    assert m["dynamics_newton.steps_accepted"] == len(trajectory.ts) - 1
    assert m["dynamics_newton.rhs_evals"] >= 6 * m["dynamics_newton.steps_accepted"]
    a = tracer.arrays()
    roots = a["parent"] < 0
    total_self = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert total_self == pytest.approx(float(np.sum((a["end"] - a["start"])[roots])), rel=1e-9)


def test_speed_probe_samples_during_an_operation_and_leaves_out_its_own_time():
    probe = speed.SpeedProbe()
    try:
        probe.start()
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            pass
        probe.stop()
        elapsed = time.perf_counter() - start
        after = len(probe.samples)
        time.sleep(2 * speed.PERIOD_S)
    finally:
        probe.close()
    assert after >= 5 and len(probe.samples) == after
    own, factor = probe.split(elapsed)
    assert own == pytest.approx(elapsed - sum(probe.samples))
    assert 0 < own < elapsed and factor > 0


def test_run_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _traced_run("geodesic_adaptive", cwd=tmp_path, root=str(tmp_path))
    assert done.returncode != 0
    assert "{" not in done.stdout
