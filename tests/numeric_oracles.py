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
