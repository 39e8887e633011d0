"""Seeded input generator for the riemdyn benchmark.

Given a workload name and a seed, writes the inputs the program receives:
one JSON file per operation input, ``input-00.json`` .. ``input-NN.json``,
into the output directory. The same seed always gives byte-identical files.
The generator uses only numpy, never riemdyn, so a change to the program
cannot change its own inputs.

    python3 perfbench/generate.py --workload threeway_sphere --seed 7 --out DIR

Initial states are drawn inside each chart's sample box (the box the
verification samplers use). Speeds and momenta are drawn from narrow bands,
so every input of a workload does about the same amount of work.
"""

from __future__ import annotations

import argparse
import json
import math
import os

import numpy as np

# Operation inputs per run; operation k uses input k mod INPUTS.
INPUTS = 16

WORKLOADS = ("canonical_fiberwise", "threeway_sphere", "geodesic_adaptive", "legendre_roundtrip")

# sample_box of the builtin charts, as (lo, hi) per coordinate.
_EUCLIDEAN2_BOX = ((-2.0, 2.0), (-2.0, 2.0))
_SPHERE_BOX = ((0.5, math.pi - 0.5), (-math.pi, math.pi))
_MARGIN = 0.05

# Systems of the legendre suite, built in set-up to time their parsing.
LEGENDRE_CHARTS = ("euclidean2", "polar2d", "sphere2d")
LEGENDRE_SYSTEMS = (
    {"family": "kinetic"},
    {"family": "kinetic-potential", "U": "sin(x1) + x2^2/2"},
    {"family": "conformal-kinetic", "f": "x1/2"},
    {"family": "fiberwise-phi", "phi": "w^2/2 + w^4/10", "C": "exp(-x1/4)"},
)


def _in_box(rng, box):
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    width = hi - lo
    return rng.uniform(lo + _MARGIN * width, hi - _MARGIN * width)


def _direction(rng):
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return np.array([math.cos(angle), math.sin(angle)])


def _floats(values):
    return [float(v) for v in values]


def canonical_fiberwise(rng, k):
    """Fiberwise-phi Hamiltonian on euclidean2 from a momentum-form state.

    The cost of each phi' inversion depends on its target |p| / C(x), so the
    momentum is scaled to put that target in a narrow band.
    """
    x = _in_box(rng, _EUCLIDEAN2_BOX)
    p = rng.uniform(0.75, 0.8) * math.exp(-x[0] / 4.0) * _direction(rng)
    return {
        "schema": 1,
        "chart": {"name": "euclidean2"},
        "system": {
            "kind": "hamilton",
            "family": "fiberwise-phi",
            "phi": "w^2/2 + w^4/10",
            "C": "exp(-x1/4)",
        },
        "integrator": {"method": "rk4", "dt": 0.001, "t_span": [0.0, 0.25], "record_every": 10},
        "initial": {"x": _floats(x), "p": _floats(p)},
        "output": {"directory": "out", "basename": f"op{k:02d}"},
    }


def _sphere_velocity(theta, direction, speed):
    """Velocity (dtheta, dphi) of metric speed `speed` along an orthonormal direction."""
    return np.array([direction[0], direction[1] / math.sin(theta)]) * speed


def threeway_sphere(rng, k):
    """Kinetic Lagrangian on sphere2d; the three legs share this start state."""
    x = _in_box(rng, _SPHERE_BOX)
    v = _sphere_velocity(x[0], _direction(rng), rng.uniform(0.6, 1.2))
    return {
        "schema": 1,
        "chart": {"name": "sphere2d"},
        "system": {"kind": "lagrange", "family": "kinetic"},
        "integrator": {"method": "rk4", "dt": 0.001, "t_span": [0.0, 0.25], "record_every": 10},
        "initial": {"x": _floats(x), "v": _floats(v)},
    }


def _pole_distance(x, v):
    """Smallest colatitude the great circle through (x, v) reaches, in radians."""
    theta, phi = x
    st, ct, sp, cp = math.sin(theta), math.cos(theta), math.sin(phi), math.cos(phi)
    p0 = np.array([st * cp, st * sp, ct])
    u = v[0] * np.array([ct * cp, ct * sp, -st]) + v[1] * np.array([-st * sp, st * cp, 0.0])
    normal = np.cross(p0, u)
    return math.asin(min(1.0, abs(normal[2]) / float(np.linalg.norm(normal))))


def geodesic_adaptive(rng, k):
    """Unit-speed sphere geodesic whose great circle stays 0.65-0.7 rad off the poles.

    Great circles that pass closer to a pole leave the chart or need far
    more steps, so the band keeps every input completing with similar work.
    """
    while True:
        x = _in_box(rng, _SPHERE_BOX)
        v = _sphere_velocity(x[0], _direction(rng), 1.0)
        if 0.65 <= _pole_distance(x, v) <= 0.7:
            break
    return {
        "schema": 1,
        "chart": {"name": "sphere2d", "radius": 1.0},
        "system": {"kind": "newton", "force": {"type": "geodesic"}},
        "integrator": {
            "method": "rk45",
            "t_span": [0.0, 100.0],
            "rtol": 1e-9,
            "atol": 1e-11,
            "record_every": 1,
        },
        "initial": {"x": _floats(x), "v": _floats(v)},
        "output": {"directory": "out", "basename": f"op{k:02d}"},
    }


def legendre_roundtrip(rng, k):
    """Seed for `riemdyn verify --suite legendre`, plus the systems it builds."""
    return {
        "suite": "legendre",
        "seed": int(rng.integers(0, 2**31 - 1)),
        "charts": list(LEGENDRE_CHARTS),
        "systems": [dict(s) for s in LEGENDRE_SYSTEMS],
    }


_GENERATORS = {
    "canonical_fiberwise": canonical_fiberwise,
    "threeway_sphere": threeway_sphere,
    "geodesic_adaptive": geodesic_adaptive,
    "legendre_roundtrip": legendre_roundtrip,
}


def generate(workload: str, seed: int, out_dir: str) -> list[str]:
    """Write INPUTS input files for the workload and return their paths."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for k in range(INPUTS):
        path = os.path.join(out_dir, f"input-{k:02d}.json")
        with open(path, "w") as fh:
            json.dump(_GENERATORS[workload](rng, k), fh, sort_keys=True, indent=1)
            fh.write("\n")
        paths.append(path)
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the input files")
    args = parser.parse_args(argv)
    for path in generate(args.workload, args.seed, args.out):
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
