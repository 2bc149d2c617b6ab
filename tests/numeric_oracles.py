"""Plain-array reference formulas that only the tests use.

The package forms every softmax inside a fused kernel from
`numerics.log_softmax_rows`; the oracles of the KD and similarity terms
are written with the explicit softmax below instead.
"""

import numpy as np

from srkd.errors import NumericError
from srkd.numerics import check_temperature


def softmax_rows(m: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Row-wise softmax of m / temperature with max-subtraction stability."""
    check_temperature(temperature)
    m = np.asarray(m, dtype=np.float64)
    if not np.isfinite(m).all():
        raise NumericError("softmax input must be finite")
    s = m / temperature
    s = s - s.max(axis=-1, keepdims=True)
    e = np.exp(s)
    return e / e.sum(axis=-1, keepdims=True)


def affinity(features: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """keep * ||F_i - F_j||^2 for each (n, D) view of an (S, n, D) stack.

    keep (S, n, n) holds each view's weight on the row pairs that count and
    zero on the rest: the diagonal and the padded rows and columns. This is
    the padded formulation the AMRA point and voxel terms once computed in
    full; they now form only the valid pairs.
    """
    sq = (features * features).sum(axis=2, keepdims=True)     # (S, n, 1)
    gram = features @ features.transpose(0, 2, 1)
    gram *= 2.0
    d = sq + sq.transpose(0, 2, 1)
    d -= gram
    d *= keep
    return d
