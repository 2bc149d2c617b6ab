"""Plain-array row transforms: log-softmax and L2 normalization, and the
package's one temperature check.

They serve the frozen-teacher side of the losses, the softmax-KL kernel
and the tests' oracles; `losses.loss_task` forms its log-softmax with the
same operations at T = 1. `l2_normalize_rows` is the plain-array
counterpart of `Tensor.l2_normalize_rows`. All computation is float64.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

L2_EPS = 1e-12      # floor of a row norm in L2 normalization


def check_temperature(temperature: float) -> None:
    """ConfigError unless the temperature is finite and positive."""
    if not np.isfinite(temperature) or temperature <= 0:
        raise ConfigError(f"temperature must be finite and positive, got {temperature}")


def l2_normalize_rows(m: np.ndarray) -> np.ndarray:
    """Divide each row by max(||row||_2, L2_EPS); zero rows stay zero."""
    m = np.asarray(m, dtype=np.float64)
    norms = np.linalg.norm(m, axis=-1, keepdims=True)
    return m / np.maximum(norms, L2_EPS)


def log_softmax_rows(m: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    check_temperature(temperature)
    s = np.asarray(m, dtype=np.float64) / temperature
    s = s - s.max(axis=-1, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=-1, keepdims=True))
