"""Adaptive-moment optimizer with decoupled weight decay, and the
one-cycle learning-rate schedule used for all training runs."""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError

BETAS = (0.9, 0.999)    # decay rates of the first and second moments
EPS = 1e-8              # added to sqrt(v_hat)


class AdamW:
    """Adam with decoupled weight decay.

    Update: p -= lr * (m_hat / (sqrt(v_hat) + EPS) + weight_decay * p), lr
    given to each step by the schedule. With weight_decay=0 this is bitwise
    the plain adaptive update.
    """

    def __init__(self, params: dict[str, Tensor], weight_decay: float):
        if weight_decay < 0:
            raise ConfigError("weight_decay must be nonnegative")
        self.params = dict(params)
        self.weight_decay = weight_decay
        self.t = 0
        self._m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2 = BETAS
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data -= lr * update


class OneCycleSchedule:
    """Linear warmup to the peak rate, then cosine decay.

    lr(0) = peak * start_factor; lr at the end of warmup = peak;
    lr(total) = peak * final_factor. `TrainConfig`, which every run builds
    it from, checks peak_lr and warmup_frac; only total_steps is checked here.
    """

    def __init__(self, peak_lr: float, total_steps: int, warmup_frac: float,
                 start_factor: float, final_factor: float):
        if total_steps < 1:
            raise ConfigError("total_steps must be >= 1")
        self.peak_lr = peak_lr
        self.total_steps = total_steps
        self.warmup_steps = max(1, int(round(warmup_frac * total_steps)))
        self.start_factor = start_factor
        self.final_factor = final_factor

    def lr(self, step: int) -> float:
        """Learning rate for 0-based step index."""
        if step < self.warmup_steps:
            frac = step / self.warmup_steps
            return self.peak_lr * (self.start_factor + (1.0 - self.start_factor) * frac)
        span = max(1, self.total_steps - self.warmup_steps)
        frac = min(1.0, (step - self.warmup_steps) / span)
        lo = self.peak_lr * self.final_factor
        return lo + 0.5 * (self.peak_lr - lo) * (1.0 + math.cos(math.pi * frac))
