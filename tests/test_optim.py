"""Optimizers: the in-place Adam step against its reference formula."""

import numpy as np

from tsrepr.optim import Adam
from tsrepr.tensor import Tensor


def reference_adam(data, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The Adam step as first written, with float32 copies of the gradient
    and of the update."""
    data = data.copy()
    m = np.zeros_like(data)
    v = np.zeros_like(data)
    for t, grad in enumerate(grads, start=1):
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        g = grad.astype(np.float32)
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + eps)
        data -= np.float32(lr) * update.astype(np.float32)
    return data


def test_adam_matches_reference_bitwise():
    rng = np.random.default_rng(0)
    start = rng.standard_normal((7, 5)).astype(np.float32)
    grads = [rng.standard_normal((7, 5)).astype(np.float32) * 10.0 ** -k
             for k in range(6)]
    p = Tensor(start.copy(), requires_grad=True)
    opt = Adam({"p": p}, lr=3e-3)
    for g in grads:
        p.grad = g
        opt.step()
    want = reference_adam(start, grads, 3e-3)
    assert p.data.dtype == np.float32
    assert p.data.tobytes() == want.tobytes()
