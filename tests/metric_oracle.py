"""Reference metric test for riemdyn.manifold.metric_at, kept as a test oracle.

metric_at factors the symmetrised metric in Python floats. This is the
numpy route it replaced: numpy.linalg.cholesky, the square of the
product of the factor's diagonal, and the tolerance 1e-12 scale^dim,
with the same checks in the same order and the same exceptions. Two
checks are added. A NaN on the factor's diagonal means "not positive
definite": the LAPACK routine behind numpy.linalg.cholesky tests each
pivot with ``ajj <= 0``, which a NaN passes, so the route as it was
returned a factor full of NaN and accepted a NaN metric. An entry that
is infinite, or that overflows in the symmetrisation g + g^T, is tested
first and is an overflow: the route as it was refused such a metric as
"not positive definite" or as "singular (det inf)".
"""

from __future__ import annotations

import numpy as np

from riemdyn.errors import NumericOverflowError, SingularMetricError

__all__ = ["metric_det"]


def metric_det(g: np.ndarray) -> float:
    """det g for a symmetric g that metric_at accepts; otherwise raises metric_at's error."""
    with np.errstate(over="ignore"):
        if np.isinf(g + g.T).any():
            raise NumericOverflowError("overflows the float range")
    try:
        with np.errstate(all="ignore"):
            chol = np.linalg.cholesky(g)
            diagonal = chol.diagonal()
            if np.isnan(diagonal).any():
                raise np.linalg.LinAlgError("NaN pivot")
            det = float(diagonal.prod()) ** 2
        scale = float(abs(g).max())
        tol = 1e-12 * scale ** g.shape[0]
    except np.linalg.LinAlgError:
        raise SingularMetricError("not positive definite") from None
    except OverflowError:
        raise NumericOverflowError("overflows the float range") from None
    if det <= tol:
        raise SingularMetricError(f"singular (det {det:.3e})")
    return det
