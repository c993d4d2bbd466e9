"""Optimizers: the chunked Adam and momentum steps against per-tensor
references, bitwise."""

import numpy as np
import pytest

from tsrepr.optim import CHUNK, Adam, MomentumSGD
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


class LoopMomentumSGD:
    """Per-tensor momentum SGD: the reference for the chunked step."""

    def __init__(self, params):
        self.params = params
        self.vel = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr):
        lr, m = np.float32(lr), np.float32(0.9)
        for k, p in self.params.items():
            if p.grad is None:
                continue
            v = self.vel[k]
            v *= m
            v += p.grad
            p.data -= lr * v


class LoopAdam:
    """Per-tensor Adam: the reference for the chunked step."""

    def __init__(self, params, b1=0.9, b2=0.999, eps=1e-8):
        self.params, self.b1, self.b2, self.eps = params, b1, b2, eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr):
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        for k, p in self.params.items():
            if p.grad is None:
                continue
            g, m, v = p.grad, self.m[k], self.v[k]
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


# one element, below a chunk, several tensors packed into one chunk, ranges
# that end inside a row, a 1-D tensor over several chunks, a row longer than
# a chunk
SHAPES = {"one": (1,), "small": (3,), "mat": (7, 5), "never": (4, 4),
          "late": (6,), "tiled": (300, 301), "long": (CHUNK * 2 + 5,),
          "wide": (2, CHUNK + 3), "bcast": (3, CHUNK // 2 + 1),
          "tail": (2, 3)}
NO_GRAD = {0: {"never", "late"}, 1: {"never", "small", "tiled"}}


def _grads(rng, step):
    """Gradients of one step: ``never`` gets none, ``late`` none at the
    first step, ``small`` and ``tiled`` none at the second only; two are
    Fortran-ordered and ``bcast``'s repeats one row with stride 0, so
    their elements are not read in place."""
    out = {}
    for k, shape in SHAPES.items():
        g = rng.standard_normal(shape).astype(np.float32) * 10.0 ** -step
        out[k] = np.asfortranarray(g) if k in ("mat", "tiled") else g
    out["bcast"] = np.broadcast_to(out["bcast"][0], SHAPES["bcast"])
    for k in NO_GRAD.get(step, {"never"}):
        out[k] = None
    return out


@pytest.mark.parametrize("chunked, loop", [(Adam, LoopAdam),
                                           (MomentumSGD, LoopMomentumSGD)])
def test_chunked_step_matches_per_tensor_loop_bitwise(chunked, loop):
    rng = np.random.default_rng(1)
    start = {k: rng.standard_normal(s).astype(np.float32)
             for k, s in SHAPES.items()}
    got = {k: Tensor(a.copy(), requires_grad=True) for k, a in start.items()}
    want = {k: Tensor(a.copy(), requires_grad=True) for k, a in start.items()}
    opt, ref = chunked(got, lr=1e-3), loop(want)
    for step in range(4):
        grads = _grads(rng, step)
        before = {k: p.data.copy() for k, p in got.items()}
        for params in (got, want):
            for k, g in grads.items():
                params[k].grad = g
        lr = 1e-3 * (step + 1)
        opt.step(lr)
        ref.step(lr)
        for k in SHAPES:
            # equal data at later steps also means a skipped tensor's
            # moments were left as they were
            assert got[k].data.tobytes() == want[k].data.tobytes(), (k, step)
            if grads[k] is None:
                assert got[k].data.tobytes() == before[k].tobytes(), (k, step)
    assert got["never"].data.tobytes() == start["never"].tobytes()


# stacked parameters: two packed ones, and two cut into chunks that cross
# from one model's slice into the next
STACKED = {"small": (3,), "mat": (7, 5), "big": (300, 301),
           "wide": (2, CHUNK + 3)}


def test_per_model_rates_match_separate_adams_bitwise():
    # one Adam over M stacked models, a rate each, steps every model as M
    # separate Adams over its slices would, in chunks of at most CHUNK floats
    rng = np.random.default_rng(2)
    rates = (3e-3, 1e-2, 3e-2)
    m = len(rates)
    got = {k: Tensor(rng.standard_normal((m,) + s).astype(np.float32),
                     requires_grad=True) for k, s in STACKED.items()}
    models = [{k: Tensor(p.data[i].copy(), requires_grad=True)
               for k, p in got.items()} for i in range(m)]
    opt = Adam(got, lr=rates)
    refs = [Adam(params, lr=lr) for params, lr in zip(models, rates)]
    assert opt._flat._grad.size <= CHUNK
    for step in range(6):
        for k, p in got.items():
            # "mat" has no gradient at the second step
            g = rng.standard_normal(p.shape).astype(np.float32) * 10.0 ** -step
            p.grad = None if (k, step) == ("mat", 1) else g
            for params, gi in zip(models, g):
                params[k].grad = None if p.grad is None else gi
        opt.step()
        for ref in refs:
            ref.step()
        for i, params in enumerate(models):
            for k, p in params.items():
                assert got[k].data[i].tobytes() == p.data.tobytes(), (i, k, step)


def test_per_model_rates_must_match_leading_axis():
    params = {"w": Tensor(np.zeros((2, 3), np.float32), requires_grad=True)}
    with pytest.raises(ValueError, match="3 rates"):
        Adam(params, lr=(1e-3, 1e-2, 1e-1))


def test_parameter_must_be_c_contiguous():
    # the update is subtracted through reshape(-1), a copy of such data
    w = Tensor(np.asfortranarray(np.ones((3, 4), np.float32)),
               requires_grad=True)
    for opt in (Adam, MomentumSGD):
        with pytest.raises(ValueError, match="'w' is not C-contiguous"):
            opt({"b": Tensor(np.ones(2, np.float32)), "w": w})
