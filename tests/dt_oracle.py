"""Reference covariant time derivative for riemdyn.extended_fields, kept as a test oracle.

covariant_time_derivative adds, at each sample, spatial_gradient's index
terms _index_terms(Gamma, X, variance) contracted with the curve velocity.
This is the per-index loop it replaced, unchanged: for each component
axis, Gamma contracted with v into a (dim, dim) matrix by einsum, that
matrix contracted into the axis by tensordot, and the new axis moved back
into place. The two sum the same products in different orders, so the
tests hold them to a relative tolerance, not bit for bit.
"""

from __future__ import annotations

import numpy as np

from riemdyn import manifold

__all__ = ["covariant_time_derivative"]


def covariant_time_derivative(chart, samples, values, variance):
    """D_t of values along uniformly spaced samples, as the per-index loop computed it."""
    values = np.asarray(values, dtype=float)
    dt = samples[1].t - samples[0].t
    ddt = np.gradient(values, dt, axis=0, edge_order=2)
    out = np.empty_like(ddt)
    for i, sample in enumerate(samples):
        gamma = manifold.christoffel_at(chart, sample.point.x)
        v = sample.point.v
        corr = np.zeros(values.shape[1:])
        for axis, tag in enumerate(variance):
            if tag == "u":
                m = np.einsum("kqa,q->ka", gamma, v)
                term = np.tensordot(values[i], m, axes=([axis], [1]))
            else:
                m = np.einsum("bqj,q->bj", gamma, v)
                term = -np.tensordot(values[i], m, axes=([axis], [0]))
            corr += np.moveaxis(term, -1, axis)
        out[i] = ddt[i] + corr
    return out
