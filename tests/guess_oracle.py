"""Reference cold start for riemdyn.dynamics_hamilton.legendre_inverse, kept as a test oracle.

The package picks the scale of its cold-start velocity by a walk over a
fixed grid. This is the scan it replaced, unchanged: every grid scale is
tried, a scale where dL/dv raises ZeroVelocityError is skipped, and the
first scale of least residual wins. On the catalog families the tests
require the two to return the same array bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from riemdyn import manifold
from riemdyn.errors import ZeroVelocityError
from riemdyn.extended_fields import TangentPoint

__all__ = ["default_velocity_guess"]


def default_velocity_guess(ctx, chart, x, p):
    """Raised momentum, rescaled by a coarse line search on the residual."""
    direction = manifold.raise_index(chart, x, p)
    norm = float(np.max(np.abs(direction)))
    if norm == 0.0:
        return direction
    best_v, best_r = direction, math.inf
    for scale in np.geomspace(1e-2, 1e2, 21):
        v_try = scale * direction
        try:
            r = ctx.lagrangian.dv(chart, TangentPoint(x, v_try)) - p
        except ZeroVelocityError:
            continue
        r_norm = float(np.max(np.abs(r)))
        if r_norm < best_r:
            best_v, best_r = v_try, r_norm
    return best_v
