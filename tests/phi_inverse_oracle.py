"""The phi' inversion as dynamics_hamilton had it, through the env-mapping entry points.

Each iterate evaluates phi' (and phi'') with exports_oracle's partial_env
and partial_and_second_env, so every call builds a variable map; after 100
Newton steps the iterates bisect the bracket by bit pattern, and a bracket
that closes where phi' overflows short of the target raises
NumericOverflowError. The package calls phi's compiled code directly; the
tests require the same z, bit for bit, and the same errors.
"""

from __future__ import annotations

import math
import struct

import exports_oracle
from riemdyn.errors import NonConvergenceError, NumericOverflowError

__all__ = ["invert_phi_prime"]


def invert_phi_prime(phi_expr, target: float) -> float:
    """Solve phi'(z) = target for z > 0, assuming phi' is increasing."""

    lo, hi = 0.0, max(abs(target), 1.0)
    for _ in range(200):
        if exports_oracle.partial_env(phi_expr, {"w": hi}, "w") >= target:
            break
        hi *= 2.0
    else:
        raise NonConvergenceError(f"could not bracket phi'(z) = {target!r}")
    z = min(max(target, 1e-8), hi)
    tol = 1e-14 * max(1.0, abs(target))
    for step in range(100 + 63):
        fp, slope = exports_oracle.partial_and_second_env(phi_expr, {"w": z}, "w")
        err = fp - target
        if abs(err) <= tol:
            return z
        if err > 0.0:
            hi = z
        else:
            lo = z
        z_new = z - err / slope if slope > 0.0 else 0.5 * (lo + hi)
        if step >= 99:
            a, b = struct.unpack("<2q", struct.pack("<2d", lo, hi))
            z_new = struct.unpack("<d", struct.pack("<q", (a + b) // 2))[0]
            if z_new in (lo, hi):
                if not math.isfinite(exports_oracle.partial_env(phi_expr, {"w": hi}, "w")):
                    raise NumericOverflowError(
                        f"phi'(z) overflows the float range at z={hi!r}, short of phi'(z) = {target!r}"
                    )
                break
        elif not (lo < z_new < hi):
            z_new = 0.5 * (lo + hi)
        z = z_new
    raise NonConvergenceError(f"phi' inversion stalled at z={z!r} for target {target!r}")
