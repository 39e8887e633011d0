"""Reference metric test for riemdyn.manifold.metric_at, kept as a test oracle.

metric_at factors the symmetrised metric in Python floats. This is the
numpy route it replaced, moved to the package's singularity rule:
numpy.linalg.cholesky, det(g / scale) as the product of the squared
diagonal of the factor, each divided by scale = |g|_max, and the
tolerance 1e-12 on it, with the same checks in the same order and the
same exceptions. Two checks are added. A NaN on the factor's diagonal
means "not positive definite": the LAPACK routine behind
numpy.linalg.cholesky tests each pivot with ``ajj <= 0``, which a NaN
passes, so the route as it was returned a factor full of NaN and
accepted a NaN metric. An entry that is infinite, or that overflows in
the symmetrisation g + g^T, is tested first and is an overflow: the route
as it was refused such a metric as "not positive definite" or as
"singular (det inf)".
"""

from __future__ import annotations

import math

import numpy as np

from riemdyn.errors import NumericOverflowError, SingularMetricError

__all__ = ["metric_det"]


def metric_det(g: np.ndarray) -> float:
    """det(g / |g|_max) for a symmetric g that metric_at accepts; otherwise raises metric_at's error."""
    with np.errstate(over="ignore"):
        if np.isinf(g + g.T).any():
            raise NumericOverflowError("overflows the float range")
    try:
        with np.errstate(all="ignore"):
            diagonal = np.linalg.cholesky(g).diagonal()
        if np.isnan(diagonal).any():
            raise np.linalg.LinAlgError("NaN pivot")
    except np.linalg.LinAlgError:
        raise SingularMetricError("not positive definite") from None
    scale = float(abs(g).max())
    det = math.prod(d * d / scale for d in diagonal.tolist())
    if det <= 1e-12:
        raise SingularMetricError(f"singular (det {det:.3e})")
    return det
