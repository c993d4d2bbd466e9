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
    def __init__(self, params: Params, lr: float = 1e-2, momentum: float = 0.9):
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self._vel = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr: float | None = None) -> None:
        lr = np.float32(self.lr if lr is None else lr)
        m = np.float32(self.momentum)
        for k, p in self.params.items():
            if p.grad is None:
                continue
            v = self._vel[k]
            v *= m
            v += p.grad
            p.data -= lr * v


class Adam:
    def __init__(self, params: Params, lr: float = 1e-3, betas=(0.9, 0.999),
                 eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
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


def one_cycle_lr(step: int, total_steps: int, lr_max: float,
                 warmup_frac: float = 0.05, lr_start_frac: float = 0.1,
                 lr_final_frac: float = 1e-2) -> float:
    """Linear warmup over warmup_frac of the run, then cosine decay."""
    warmup = max(1, int(round(warmup_frac * total_steps)))
    if step < warmup:
        frac = step / warmup
        return lr_max * (lr_start_frac + (1.0 - lr_start_frac) * frac)
    span = max(1, total_steps - warmup)
    prog = min(1.0, (step - warmup) / span)
    floor = lr_max * lr_final_frac
    return floor + (lr_max - floor) * 0.5 * (1.0 + math.cos(math.pi * prog))
