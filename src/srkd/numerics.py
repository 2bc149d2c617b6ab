"""Plain-array row transforms: softmax, log-softmax and L2 normalization.

These are the non-differentiable counterparts of the tensor ops in
:mod:`srkd.autodiff`; they serve the frozen-teacher side of the losses
and the tests' oracles. All computation is float64.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError


def softmax_rows(m: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Row-wise softmax of m / temperature with max-subtraction stability."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    m = np.asarray(m, dtype=np.float64)
    if not np.isfinite(m).all():
        raise NumericError("softmax input must be finite")
    s = m / temperature
    s = s - s.max(axis=-1, keepdims=True)
    e = np.exp(s)
    return e / e.sum(axis=-1, keepdims=True)


def l2_normalize_rows(m: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Divide each row by max(||row||_2, eps); zero rows stay zero."""
    m = np.asarray(m, dtype=np.float64)
    norms = np.linalg.norm(m, axis=-1, keepdims=True)
    return m / np.maximum(norms, eps)


def log_softmax_rows(m: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    s = np.asarray(m, dtype=np.float64) / temperature
    s = s - s.max(axis=-1, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=-1, keepdims=True))
