"""Optimizers and the one-cycle learning-rate schedule."""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor

Params = dict[str, Tensor]


def zero_grads(params: Params) -> None:
    for p in params.values():
        p.grad = None


class MomentumSGD:
    """SGD with heavy-ball momentum 0.9."""

    def __init__(self, params: Params, lr: float = 1e-2):
        self.params = params
        self.lr = lr
        self._vel = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr: float | None = None) -> None:
        lr = np.float32(self.lr if lr is None else lr)
        m = np.float32(0.9)
        for k, p in self.params.items():
            if p.grad is None:
                continue
            v = self._vel[k]
            v *= m
            v += p.grad
            p.data -= lr * v


class Adam:
    """Adam with betas (0.9, 0.999) and eps 1e-8."""

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: Params, lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.t = 0
        self._m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        for k, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad  # float32, see Tensor._accumulate
            m, v = self._m[k], self._v[k]
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            denom = v / bc2
            np.sqrt(denom, out=denom)
            denom += self.eps
            update = m / bc1
            update /= denom
            update *= np.float32(lr)
            p.data -= update


def one_cycle_lr(step: int, total_steps: int, lr_max: float) -> float:
    """Linear warmup from lr_max / 10 over the first 5% of the run, then
    cosine decay to lr_max / 100."""
    warmup = max(1, int(round(0.05 * total_steps)))
    if step < warmup:
        frac = step / warmup
        return lr_max * (0.1 + (1.0 - 0.1) * frac)
    span = max(1, total_steps - warmup)
    prog = min(1.0, (step - warmup) / span)
    floor = lr_max * 1e-2
    return floor + (lr_max - floor) * 0.5 * (1.0 + math.cos(math.pi * prog))
