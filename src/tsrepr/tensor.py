"""Dense float32 tensors with reverse-mode automatic differentiation.

Forward values live in numpy float32 arrays; reductions accumulate in
float64 before casting back.  Gradients are recorded on an explicit
:class:`Tape` that is active inside a ``with Tape():`` block and replayed
in reverse by :func:`backward`.  Outside a tape (evaluation paths) the
same ops run without recording anything.
"""

from __future__ import annotations

import contextvars
import math

import numpy as np
from scipy.special import erf as _erf

__all__ = [
    "Tensor",
    "Tape",
    "ShapeError",
    "DomainError",
    "NumericError",
    "backward",
    "grad_check",
]


class ShapeError(ValueError):
    """Operand shapes do not conform to the primitive's rule."""


class DomainError(ValueError):
    """Input value outside the primitive's mathematical domain."""


class NumericError(FloatingPointError):
    """Non-finite value produced where finiteness is required."""


_SQRT_2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# ---------------------------------------------------------------------------
# tape


# one active tape per thread (and per asyncio task): threaded runs never
# record into each other's tapes
_ACTIVE: contextvars.ContextVar["Tape | None"] = contextvars.ContextVar(
    "tsrepr_active_tape", default=None)


class Tape:
    """Ordered record of primitive ops for one backward pass.

    Entries are ``(output, inputs, backward_fn)`` in execution order, so a
    single reverse sweep is a valid topological traversal.
    """

    def __init__(self):
        self.records: list[tuple["Tensor", tuple["Tensor", ...], object]] = []
        self._token = None

    def __enter__(self):
        self._token = _ACTIVE.set(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE.reset(self._token)
        return False

    @staticmethod
    def active() -> "Tape | None":
        return _ACTIVE.get()


def _record(out: "Tensor", inputs: tuple["Tensor", ...], bw) -> None:
    tape = Tape.active()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.records.append((out, inputs, bw))


# ---------------------------------------------------------------------------
# tensor


class Tensor:
    """Dense row-major float32 array, optionally participating in the tape."""

    __slots__ = ("data", "requires_grad", "grad", "hi")

    def __init__(self, data, requires_grad: bool = False, _check: bool = True):
        arr = np.asarray(data)
        if arr.dtype != np.float32:
            arr = arr.astype(np.float32)
        if _check and not np.all(np.isfinite(arr)):
            raise NumericError("non-finite value in tensor construction")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        # optional float64 shadow of a scalar value, kept by reductions so
        # finite-difference checks are not limited by float32 rounding
        self.hi: float | None = None

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data, _check=False)

    def _accumulate(self, g: np.ndarray) -> None:
        if g.shape != self.data.shape:
            g = _unbroadcast(g, self.data.shape)
        if self.grad is None:
            self.grad = g.astype(np.float32).copy()
        else:
            self.grad += g.astype(np.float32)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __getitem__(self, key):
        return tslice(self, key)


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float32), _check=False)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` along axes that were broadcast."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _f32(arr) -> np.ndarray:
    return np.asarray(arr, dtype=np.float32)


# ---------------------------------------------------------------------------
# elementwise arithmetic

def _scalar_hi(t: "Tensor"):
    if t.hi is not None:
        return t.hi
    if t.size == 1:
        return float(np.asarray(t.data).reshape(()))
    return None


def _set_hi(out: "Tensor", a: "Tensor", b: "Tensor", op) -> None:
    """Carry the float64 scalar shadow through scalar arithmetic."""
    if out.size != 1:
        return
    ha, hb = _scalar_hi(a), _scalar_hi(b)
    if ha is not None and hb is not None:
        out.hi = op(ha, hb)




def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data, _check=False)

    def bw(g):
        a._accumulate(g)
        b._accumulate(g)

    _set_hi(out, a, b, lambda x, y: x + y)
    _record(out, (a, b), bw)
    return out


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data - b.data, _check=False)

    def bw(g):
        a._accumulate(g)
        b._accumulate(-g)

    _set_hi(out, a, b, lambda x, y: x - y)
    _record(out, (a, b), bw)
    return out


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data, _check=False)

    def bw(g):
        a._accumulate(g * b.data)
        b._accumulate(g * a.data)

    _set_hi(out, a, b, lambda x, y: x * y)
    _record(out, (a, b), bw)
    return out


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if np.any(b.data == 0.0):
        raise DomainError("division by zero")
    out = Tensor(a.data / b.data, _check=False)

    def bw(g):
        a._accumulate(g / b.data)
        b._accumulate(-g * a.data / (b.data * b.data))

    _set_hi(out, a, b, lambda x, y: x / y)
    _record(out, (a, b), bw)
    return out


# ---------------------------------------------------------------------------
# linear algebra / structure


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 1 or b.ndim < 1:
        raise ShapeError("matmul requires rank >= 1 operands")
    if a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
        raise ShapeError(f"matmul contraction mismatch: {a.shape} @ {b.shape}")
    out = Tensor(np.matmul(a.data, b.data), _check=False)

    def bw(g):
        bd = b.data if b.ndim > 1 else b.data[:, None]
        ad = a.data if a.ndim > 1 else a.data[None, :]
        gg = g
        if a.ndim == 1:
            gg = np.expand_dims(g, -2)
        if b.ndim == 1:
            gg = np.expand_dims(gg, -1)
        ga = np.matmul(gg, np.swapaxes(bd, -1, -2))
        gb = np.matmul(np.swapaxes(ad, -1, -2), gg)
        if a.ndim == 1:
            ga = np.squeeze(ga, -2)
        if b.ndim == 1:
            gb = np.squeeze(gb, -1)
        a._accumulate(ga)
        b._accumulate(gb)

    _record(out, (a, b), bw)
    return out


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    ax = axes if axes is not None else tuple(reversed(range(a.ndim)))
    out = Tensor(np.transpose(a.data, ax).copy(), _check=False)
    inv = np.argsort(ax)

    def bw(g):
        a._accumulate(np.transpose(g, inv))

    _record(out, (a,), bw)
    return out


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    try:
        out = Tensor(a.data.reshape(shape).copy(), _check=False)
    except ValueError as e:
        raise ShapeError(str(e)) from None

    def bw(g):
        a._accumulate(g.reshape(a.shape))

    _record(out, (a,), bw)
    return out


def tslice(a, key) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.ascontiguousarray(a.data[key]), _check=False)

    def bw(g):
        full = np.zeros_like(a.data)
        np.add.at(full, key, g.astype(np.float32))
        a._accumulate(full)

    _record(out, (a,), bw)
    return out


def concat(tensors, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    try:
        out = Tensor(np.concatenate([t.data for t in ts], axis=axis), _check=False)
    except ValueError as e:
        raise ShapeError(str(e)) from None
    sizes = [t.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        for t, piece in zip(ts, np.split(g, splits, axis=axis)):
            t._accumulate(piece)

    _record(out, tuple(ts), bw)
    return out


# ---------------------------------------------------------------------------
# reductions (float64 accumulators)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    val = a.data.sum(axis=axis, keepdims=keepdims, dtype=np.float64)
    out = Tensor(_f32(val), _check=False)
    if np.ndim(val) == 0 or np.size(val) == 1:
        out.hi = float(np.asarray(val).reshape(()))

    def bw(g):
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.shape).copy())
        else:
            ge = g if keepdims else np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(ge, a.shape).copy())

    _record(out, (a,), bw)
    return out


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    val = a.data.mean(axis=axis, keepdims=keepdims, dtype=np.float64)
    out = Tensor(_f32(val), _check=False)
    if np.ndim(val) == 0 or np.size(val) == 1:
        out.hi = float(np.asarray(val).reshape(()))
    if axis is None:
        count = a.size
    else:
        axes = (axis,) if isinstance(axis, int) else axis
        count = int(np.prod([a.shape[ax] for ax in axes]))

    def bw(g):
        if axis is None:
            a._accumulate(np.broadcast_to(g / count, a.shape).copy())
        else:
            ge = g if keepdims else np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(ge / count, a.shape).copy())

    _record(out, (a,), bw)
    return out


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data < 0.0):
        raise DomainError("sqrt of negative value")
    val = np.sqrt(a.data)
    out = Tensor(val, _check=False)

    def bw(g):
        a._accumulate(g * 0.5 / np.maximum(val, np.float32(1e-12)))

    _record(out, (a,), bw)
    return out


def cos(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.cos(a.data), _check=False)

    def bw(g):
        a._accumulate(-g * np.sin(a.data))

    _record(out, (a,), bw)
    return out


def sin(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.sin(a.data), _check=False)

    def bw(g):
        a._accumulate(g * np.cos(a.data))

    _record(out, (a,), bw)
    return out


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.maximum(a.data, 0.0), _check=False)

    def bw(g):
        a._accumulate(g * (a.data > 0.0))

    _record(out, (a,), bw)
    return out


def gelu(a) -> Tensor:
    """Exact GELU: x * Phi(x) with Phi built from erf."""
    a = as_tensor(a)
    x = a.data
    phi = 0.5 * (1.0 + _erf(x.astype(np.float64) / _SQRT_2))
    out = Tensor(_f32(x * phi), _check=False)

    def bw(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x.astype(np.float64) ** 2)
        a._accumulate(g * _f32(phi + x * pdf))

    _record(out, (a,), bw)
    return out


def softmax(a) -> Tensor:
    """Softmax over the last axis."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    val = e / e.sum(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
    out = Tensor(val, _check=False)

    def bw(g):
        dot = (g * val).sum(axis=-1, keepdims=True)
        a._accumulate(val * (g - dot))

    _record(out, (a,), bw)
    return out


def log_softmax(a) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True, dtype=np.float64))
    val = _f32(shifted - lse)
    out = Tensor(val, _check=False)
    sm = np.exp(val)

    def bw(g):
        tot = g.sum(axis=-1, keepdims=True)
        a._accumulate(g - sm * tot)

    _record(out, (a,), bw)
    return out


def layer_norm(a, gamma=None, beta=None, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis with optional affine params."""
    a = as_tensor(a)
    m = mean(a, axis=-1, keepdims=True)
    d = sub(a, m)
    v = mean(mul(d, d), axis=-1, keepdims=True)
    inv = div(1.0, sqrt(add(v, eps)))
    normed = mul(d, inv)
    if gamma is not None:
        normed = mul(normed, gamma)
    if beta is not None:
        normed = add(normed, beta)
    return normed


# ---------------------------------------------------------------------------
# backward + gradient checking


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad leaf reachable from ``loss``.

    Repeated calls without clearing ``grad`` accumulate.
    """
    if loss.ndim != 0 and loss.size != 1:
        raise ShapeError("backward requires a scalar loss")
    tape = Tape.active()
    if tape is None:
        raise RuntimeError("backward called outside an active Tape")
    loss._accumulate(np.ones_like(loss.data))
    for out, _inputs, bw in reversed(tape.records):
        if out.grad is not None:
            bw(out.grad)
    # intermediates are op outputs; drop their grads so a second backward
    # seeds from 1 again and only leaf grads accumulate
    for out, _inputs, _bw in tape.records:
        out.grad = None


def grad_check(f, x: Tensor, epsilon: float = 1e-3) -> float:
    """Max over coordinates of |autodiff - central diff| / max(1, |central diff|).

    ``f`` must be a scalar-valued function of a single tensor argument.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    x = as_tensor(x)
    xg = Tensor(x.data.copy(), requires_grad=True, _check=False)
    with Tape():
        loss = f(xg)
        backward(loss)
    auto = xg.grad.copy() if xg.grad is not None else np.zeros_like(xg.data)

    flat = xg.data.reshape(-1)
    fd = np.zeros(flat.size, dtype=np.float64)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + epsilon
        step_up = float(flat[i]) - float(orig)  # actually realized step
        up = f(xg)
        fp = up.hi if up.hi is not None else float(up.data)
        flat[i] = orig - epsilon
        step_dn = float(orig) - float(flat[i])
        dn = f(xg)
        fm = dn.hi if dn.hi is not None else float(dn.data)
        flat[i] = orig
        fd[i] = (fp - fm) / (step_up + step_dn)
    fd = fd.reshape(xg.shape)
    denom = np.maximum(1.0, np.abs(fd))
    return float(np.max(np.abs(auto.astype(np.float64) - fd) / denom))
