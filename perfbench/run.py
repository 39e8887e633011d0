"""The riemdyn benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds nothing: it imports riemdyn from the
checkout's ``src/`` and exits with code 2, printing no result, when that is
missing. One single-threaded process drives a closed loop with one caller:
the next operation starts when the previous one returns and has been
checked. Each operation takes the next of the inputs that
``perfbench/generate.py`` writes for the seed.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``wall_s``: median wall time of one operation, after one warm-up operation,
  scaled to a reference host speed (see ``speed.py``);
* ``setup_s``: median over fresh interpreters of importing riemdyn and
  building the workload's inputs through the public builders;
* ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` it spends half the time untraced and half with every
public riemdyn function wrapped (see ``spans.py``), and reports the
per-layer metrics, the tracing overhead and the count invariants.

Every operation is graded by its reference check; ``failed`` counts those
that raised, exited non-zero or missed the check, and ``error_rate`` is
failed / attempted. The last stdout line is the JSON result; a fuller
record, with the environment, goes to ``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")

SETUP_REPEATS = 9
MIN_OPS = 3
MIN_TRACED_OPS = 2
MAX_FAILURE_LINES = 20

# Per workload: whether it steps with rk4, the layers that must be entered on
# it, and the layers that must not be.
SPECS = {
    "canonical_fiberwise": {
        "rk4": True,
        "nonzero": ("expression", "manifold", "dynamics_newton", "dynamics_hamilton",
                    "normal_shift", "cli"),
        "zero": ("verification",),
    },
    "threeway_sphere": {
        "rk4": True,
        "nonzero": ("manifold", "extended_fields", "dynamics_newton", "dynamics_lagrange",
                    "dynamics_hamilton", "cli"),
        "zero": ("expression",),
    },
    "geodesic_adaptive": {
        "rk4": False,
        "nonzero": ("manifold", "dynamics_newton", "cli"),
        "zero": ("expression", "dynamics_lagrange", "dynamics_hamilton"),
    },
    "legendre_roundtrip": {
        "rk4": False,
        "nonzero": ("expression", "manifold", "dynamics_lagrange", "dynamics_hamilton",
                    "normal_shift", "verification", "cli"),
        "zero": (),
    },
}


def _import_program():
    """Import riemdyn from this checkout's src/, or exit 2 without a result."""
    if not os.path.isfile(os.path.join(SRC, "riemdyn", "__init__.py")):
        print(f"error: no riemdyn package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [SRC, BENCH_DIR]
    import riemdyn

    if os.path.dirname(os.path.dirname(os.path.abspath(riemdyn.__file__))) != SRC:
        print(f"error: imported riemdyn from {riemdyn.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "riemdyn")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def environment(seed):
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def measure_setup(workload, input_path):
    """Median seconds of SETUP_REPEATS cold set-ups, one fresh interpreter at a time.

    Unscaled: the set-ups run in child processes, which a speed probe in this
    process cannot sample.
    """
    probe = os.path.join(BENCH_DIR, "setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-I", probe, SRC, BENCH_DIR, workload, input_path],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


def high_percentile(samples):
    """(p, value) for the highest whole percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 20:
        return None
    p = int(100 * (1 - 10 / n))
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


class Loop:
    """Closed loop of operations over the generated inputs, with their checks."""

    def __init__(self, workload, inputs, work_dir):
        import workloads

        self.op = workloads.WORKLOADS[workload]
        self.outcome_type = workloads.Outcome
        self.inputs = inputs
        self.work_dir = work_dir
        self.attempted = 0
        self.failures = []
        self.tracer = None
        self.probe = None

    def run_one(self):
        """Run and check the next operation; returns (seconds, outcome or None)."""
        k = self.attempted
        self.attempted += 1
        path = self.inputs[k % len(self.inputs)]
        if self.tracer is not None:
            self.tracer.op_id = k
            self.tracer.active = True
        if self.probe is not None:
            self.probe.start()
        start = time.perf_counter()
        try:
            result = self.op.call(path, self.work_dir)
        except Exception:
            result = None
            error = traceback.format_exc(limit=3).strip().splitlines()[-1]
        if self.probe is not None:
            self.probe.stop()
        elapsed = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.active = False
        if result is None:
            self.failures.append(f"op {k} ({os.path.basename(path)}): raised {error}")
            return elapsed, None
        try:
            outcome = self.op.check(path, self.work_dir, result)
        except Exception:
            detail = traceback.format_exc(limit=3).strip().splitlines()[-1]
            outcome = self.outcome_type(False, f"check raised {detail}")
        if not outcome.ok:
            self.failures.append(f"op {k} ({os.path.basename(path)}): {outcome.detail}")
        return elapsed, outcome

    def measure(self, seconds, min_ops):
        """Operations until `seconds` have passed and at least min_ops ran."""
        times, outcomes = [], []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(times) < min_ops:
            elapsed, outcome = self.run_one()
            times.append(elapsed)
            outcomes.append(outcome)
        good = [t for t, o in zip(times, outcomes) if o is not None and o.ok]
        return times, good or times, outcomes

    def measure_scaled(self, seconds, min_ops):
        """Like measure, with a speed.SpeedProbe sampling the host during each operation.

        Returns the times less the probe's own, the speed factors and the
        scaled times of the operations that passed.
        """
        import speed

        self.probe = speed.SpeedProbe()
        times, factors, scaled = [], [], []
        deadline = time.perf_counter() + seconds
        try:
            while time.perf_counter() < deadline or len(times) < min_ops:
                elapsed, outcome = self.run_one()
                own, factor = self.probe.split(elapsed)
                times.append(own)
                factors.append(factor)
                if outcome is not None and outcome.ok:
                    scaled.append(own * factor)
        finally:
            self.probe.close()
            self.probe = None
        return times, factors, scaled or [t * f for t, f in zip(times, factors)]


def _checks_metrics(outcomes):
    done = [o for o in outcomes if o is not None]
    checks = [c for o in done for c in o.checks]
    ratios = [abs(value - target) / tol for _, value, tol, target in checks if tol > 0]
    return {
        "verification.checks": len(checks) / max(len(done), 1),
        "verification.worst_ratio": max(ratios, default=0.0),
        "cli.bytes_written": sum(o.bytes_written for o in done) / max(len(done), 1),
    }


def run(workload, seed, seconds, trace):
    _import_program()
    import generate
    import spans

    in_dir = os.path.join(OUT, "inputs", f"{workload}-seed{seed}")
    work_dir = os.path.join(OUT, "work", workload)
    os.makedirs(work_dir, exist_ok=True)
    inputs = generate.generate(workload, seed, in_dir)
    setup_s, setup_samples = measure_setup(workload, inputs[0])

    loop = Loop(workload, inputs, work_dir)
    loop.run_one()  # warm-up: caches, lazy imports, page faults
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed),
        "setup_samples_s": setup_samples,
    }
    if not trace:
        times, factors, scaled = loop.measure_scaled(seconds, MIN_OPS)
        metrics = {
            "wall_s": (statistics.median(scaled), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        record["wall_samples_s"] = times
        record["speed_factors"] = factors
        record["scaled_wall_samples_s"] = scaled
        record["raw_wall_s"] = statistics.median(times)
        high = high_percentile(scaled)
        if high is not None:
            record[f"wall_p{high[0]}_s"] = high[1]
        invariant_errors = []
    else:
        _, plain, _ = loop.measure(seconds / 2.0, MIN_TRACED_OPS)
        tracer = spans.Tracer()
        tracer.install()
        loop.tracer = tracer
        traced_times, traced, outcomes = loop.measure(seconds / 2.0, MIN_TRACED_OPS)
        layer = spans.layer_metrics(tracer, len(traced_times))
        layer.update(_checks_metrics(outcomes))
        layer["trace.wall_s"] = statistics.median(traced)
        layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        spec = SPECS[workload]
        invariant_errors = spans.invariant_failures(
            tracer, layer, spec["rk4"], spec["nonzero"], spec["zero"]
        )
        trace_dir = os.path.join(OUT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.save(os.path.join(trace_dir, f"{workload}-seed{seed}.npz"))
        units = _layer_units()
        if set(units) != set(layer):
            raise RuntimeError(f"per-layer metrics differ from BENCHMARK.json: {set(units) ^ set(layer)}")
        metrics = {name: (layer[name], unit) for name, unit in units.items()}
        record["untraced_wall_samples_s"] = plain
        record["traced_wall_samples_s"] = traced_times
        record["invariant_failures"] = invariant_errors

    failed = len(loop.failures)
    record["attempted"] = loop.attempted
    record["failed"] = failed
    record["error_rate"] = failed / loop.attempted
    record["failures"] = loop.failures[:MAX_FAILURE_LINES]
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}

    results_dir = os.path.join(OUT, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")

    for line in loop.failures[:MAX_FAILURE_LINES] + invariant_errors:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {workload} seed {seed} trace {int(trace)}: environment {json.dumps(record['environment'])}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if "raw_wall_s" in record:
        print(f"  raw_wall_s = {record['raw_wall_s']:.6g} s (unscaled median)")
    print(f"  error_rate = {record['error_rate']:.6g} ratio ({failed}/{loop.attempted})")
    return {
        "correct": failed == 0 and not invariant_errors,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }


def _layer_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="riemdyn benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
