"""Dense float32 tensors with reverse-mode automatic differentiation.

Forward values live in numpy float32 arrays; reductions accumulate in
float64 before casting back.  Gradients are recorded on an explicit
:class:`Tape` that is active inside a ``with Tape():`` block and replayed
in reverse by :func:`backward`.  Outside a tape (evaluation paths) the
same ops run without recording anything.

A tape takes one :func:`backward`.  Backward consumes the tape as it
runs: each record is popped before its backward step, so the arrays it
saved are freed once that step is done, and each intermediate ``grad`` is
dropped once it has been passed on.  Leaf gradients accumulate across
tapes until ``optim.zero_grads`` clears them.

The Transformer hot path is three fused ops, each one tape record with an
analytic backward: :func:`layer_norm`, :func:`attention` (the whole
multi-head self-attention block) and :func:`ffn` (the GELU feed-forward).
The last two also add the block's residual input, so a pre-LN layer is
four records.  Given weights with a leading model axis, the last two run
M stacked models in lockstep, each with the bits of its own call.
``reshape`` and ``transpose`` return views.  Gradients are
never updated in place, so views and shared gradient arrays are safe.
"""

from __future__ import annotations

import contextvars
import math

import numpy as np

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


_INV_SQRT_2 = np.float32(1.0 / math.sqrt(2.0))
_INV_SQRT_2PI = np.float32(1.0 / math.sqrt(2.0 * math.pi))
# Abramowitz & Stegun 7.1.26: for z >= 0, erfc(z) = t * poly(t) * exp(-z^2)
# with t = 1 / (1 + p z), |error| <= 1.5e-7; the coefficients are halved
# so that the product is Phi(-sqrt(2) z) = erfc(z) / 2
_AS_P = np.float32(0.3275911)
_AS_HALF_COEFFS = tuple(np.float32(c / 2.0) for c in (
    1.061405429, -1.453152027, 1.421413741, -0.284496736, 0.254829592))

# ---------------------------------------------------------------------------
# tape


# one active tape per thread (and per asyncio task): threaded runs never
# record into each other's tapes
_ACTIVE: contextvars.ContextVar["Tape | None"] = contextvars.ContextVar(
    "tsrepr_active_tape", default=None)


class Tape:
    """Ordered record of primitive ops for one backward pass.

    Entries are ``(output, inputs, backward_fn)`` in execution order, so a
    single reverse sweep is a valid topological traversal.  :func:`backward`
    empties ``records`` and marks the tape ``spent``.
    """

    def __init__(self):
        self.records: list[tuple["Tensor", tuple["Tensor", ...], object]] = []
        self.spent = False
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


def _recording_tape(inputs: tuple["Tensor", ...]) -> "Tape | None":
    """The tape an op on ``inputs`` records into, or None when it records
    nothing: no tape is active or no input requires grad."""
    tape = Tape.active()
    if tape is not None and any(t.requires_grad for t in inputs):
        return tape
    return None


def _record(out: "Tensor", inputs: tuple["Tensor", ...], bw) -> None:
    tape = _recording_tape(inputs)
    if tape is not None:
        out.requires_grad = True
        tape.records.append((out, inputs, bw))


# ---------------------------------------------------------------------------
# tensor


class Tensor:
    """Dense row-major float32 array, optionally participating in the tape."""

    __slots__ = ("data", "requires_grad", "grad", "hi", "__weakref__")

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

    def detach(self) -> "Tensor":
        return Tensor(self.data, _check=False)

    def _accumulate(self, g: np.ndarray) -> None:
        # grads are never written in place, so the first one may alias
        # (or be a read-only broadcast of) another op's array
        if g.shape != self.data.shape:
            g = _unbroadcast(g, self.data.shape)
        g = g.astype(np.float32, copy=False)
        self.grad = g if self.grad is None else self.grad + g

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
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g)

    _set_hi(out, a, b, lambda x, y: x + y)
    _record(out, (a, b), bw)
    return out


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data - b.data, _check=False)

    def bw(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(-g)

    _set_hi(out, a, b, lambda x, y: x - y)
    _record(out, (a, b), bw)
    return out


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data, _check=False)

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
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
        if a.requires_grad:
            a._accumulate(g / b.data)
        if b.requires_grad:
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
        if a.requires_grad:
            ga = np.matmul(gg, np.swapaxes(bd, -1, -2))
            a._accumulate(np.squeeze(ga, -2) if a.ndim == 1 else ga)
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(ad, -1, -2), gg)
            b._accumulate(np.squeeze(gb, -1) if b.ndim == 1 else gb)

    _record(out, (a, b), bw)
    return out


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    ax = axes if axes is not None else tuple(reversed(range(a.ndim)))
    out = Tensor(np.transpose(a.data, ax), _check=False)
    inv = np.argsort(ax)

    def bw(g):
        a._accumulate(np.transpose(g, inv))

    _record(out, (a,), bw)
    return out


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    try:
        out = Tensor(a.data.reshape(shape), _check=False)
    except ValueError as e:
        raise ShapeError(str(e)) from None

    def bw(g):
        a._accumulate(g.reshape(a.shape))

    _record(out, (a,), bw)
    return out


def _basic_key(key) -> bool:
    """True when ``key`` holds only ints, slices, Ellipsis and None, so it
    selects each element at most once."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(k is None or k is Ellipsis or isinstance(k, slice)
               or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
               for k in parts)


def tslice(a, key) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.ascontiguousarray(a.data[key]), _check=False)

    def bw(g):
        full = np.zeros_like(a.data)
        g = g.astype(np.float32, copy=False)
        if _basic_key(key):
            # bitwise equal to np.add.at (0 + -0.0 is +0.0; `=` would not be)
            full[key] += g
        else:
            # index arrays may repeat an index
            np.add.at(full, key, g)
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
            if t.requires_grad:
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
        ge = g if axis is None or keepdims else np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(ge, a.shape))

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
        ge = g if axis is None or keepdims else np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(ge / count, a.shape))

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


def _gelu_kernel(x: np.ndarray, slope: bool
                 ) -> tuple[np.ndarray, np.ndarray | None]:
    """Exact GELU ``x * Phi(x)`` of a float32 array and, when ``slope`` is
    set, its derivative (else None); the value's bits do not depend on it.

    Phi comes from the Abramowitz-Stegun erfc of ``|x| / sqrt(2)``, all in
    float32 and branch-free: ``Phi(x) = [x >= 0] - sign(x) Phi(-|x|)``
    keeps the lower tail accurate.
    """
    # three fresh buffers: fresh pages cost more than the arithmetic here
    z = np.abs(x)
    z *= _INV_SQRT_2
    t = z * _AS_P
    t += np.float32(1.0)
    np.reciprocal(t, out=t)
    np.square(z, out=z)
    np.negative(z, out=z)
    e = np.exp(z, out=z)  # exp(-x^2 / 2)
    phi = t * _AS_HALF_COEFFS[0]
    for c in _AS_HALF_COEFFS[1:]:
        phi += c
        phi *= t
    phi *= e  # Phi(-|x|)
    np.copysign(phi, x, out=phi)
    np.subtract(~np.signbit(x), phi, out=phi)  # Phi(x)
    if slope:
        e *= x
        e *= _INV_SQRT_2PI
        e += phi  # Phi(x) + x * pdf(x)
    return np.multiply(x, phi, out=t), e if slope else None


def gelu(a) -> Tensor:
    """Exact GELU: x * Phi(x), computed in float32 (see :func:`_gelu_kernel`)."""
    a = as_tensor(a)
    val, slope = _gelu_kernel(a.data, _recording_tape((a,)) is not None)
    out = Tensor(val, _check=False)

    def bw(g):
        a._accumulate(g * slope)

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
    gamma = None if gamma is None else as_tensor(gamma)
    beta = None if beta is None else as_tensor(beta)
    x = a.data
    d = x - _f32(x.mean(axis=-1, keepdims=True, dtype=np.float64))
    var = _f32(np.mean(d * d, axis=-1, keepdims=True, dtype=np.float64))
    inv = np.float32(1.0) / np.sqrt(var + np.float32(eps))
    normed = d * inv
    val = normed
    if gamma is not None:
        val = val * gamma.data
    if beta is not None:
        val = val + beta.data
    out = Tensor(val, _check=False)

    def bw(g):
        if gamma is not None and gamma.requires_grad:
            gamma._accumulate(g * normed)
        if beta is not None and beta.requires_grad:
            beta._accumulate(g)
        if a.requires_grad:
            gn = g * gamma.data if gamma is not None else g
            m1 = gn.mean(axis=-1, keepdims=True)
            m2 = (gn * normed).mean(axis=-1, keepdims=True)
            a._accumulate(inv * (gn - m1 - normed * m2))

    inputs = tuple(t for t in (a, gamma, beta) if t is not None)
    _record(out, inputs, bw)
    return out


# ---------------------------------------------------------------------------
# fused Transformer blocks


def _tr(m: np.ndarray) -> np.ndarray:
    """Each matrix of a stack transposed; ``m.T`` for one matrix."""
    return m.swapaxes(-1, -2)


def attention(x, wq, wk, wv, wo, bo, n_heads: int, bias=None, *,
              residual) -> Tensor:
    """Residual multi-head self-attention block on (B, N, d) as one tape op.

    ``softmax(q k^T / sqrt(dh) + bias) v`` per head with q, k, v = x wq,
    x wk, x wv, then the output projection ``ctx wo + bo``, added to
    ``residual`` (broadcast to the output).  ``bias`` is a constant additive
    array broadcast against the (B, H, N, N) scores.  Head tensors are kept
    C-contiguous (B, H, N, dh) so every matmul is a BLAS call.

    Stacked models: weights of shape (M, d, d), ``bo`` (M, 1, d), and ``x``
    (M, B, N, d) run M blocks in lockstep; each model's slice gets the bits
    of its own unstacked call, because every product is one BLAS call per
    slice of the same shape.
    """
    x, wq, wk, wv, wo, bo, residual = (
        as_tensor(t) for t in (x, wq, wk, wv, wo, bo, residual))
    lead = wq.shape[:-2]  # (M,) for stacked models, else ()
    if x.ndim != 3 + len(lead):
        raise ShapeError("attention input must be (batch, n, d_model)")
    b, n, d = x.shape[-3:]
    h = n_heads
    if d % h != 0:
        raise ShapeError(f"d_model {d} not divisible by {h} heads")
    dh = d // h
    scale = np.float32(1.0 / math.sqrt(dh))

    def split(m):  # (..., B*N, d) -> (..., B, H, N, dh)
        return np.ascontiguousarray(
            m.reshape(lead + (b, n, h, dh)).swapaxes(-3, -2))

    def merge(m):  # (..., B, H, N, dh) -> (..., B*N, d)
        return np.ascontiguousarray(m.swapaxes(-3, -2)).reshape(
            lead + (b * n, d))

    flat = x.data.reshape(lead + (b * n, d))
    q, k, v = (split(flat @ w.data) for w in (wq, wk, wv))
    scores = q @ _tr(k)
    scores *= scale
    if bias is not None:
        scores += bias
    scores -= scores.max(axis=-1, keepdims=True)
    e = np.exp(scores, out=scores)
    probs = e / _f32(e.sum(axis=-1, keepdims=True, dtype=np.float64))
    ctx = merge(probs @ v)
    val = ctx @ wo.data
    val += bo.data
    val = val.reshape(x.shape)
    val += residual.data
    out = Tensor(val, _check=False)

    def bw(g):
        if residual.requires_grad:
            residual._accumulate(g)
        g = g.reshape(flat.shape)
        if wo.requires_grad:
            wo._accumulate(_tr(ctx) @ g)
        if bo.requires_grad:
            bo._accumulate(g)
        dctx = split(g @ _tr(wo.data))
        dprobs = dctx @ _tr(v)
        dscores = dprobs - (dprobs * probs).sum(axis=-1, keepdims=True)
        dscores *= probs
        dscores *= scale
        grads = (merge(dscores @ k), merge(_tr(dscores) @ q),
                 merge(_tr(probs) @ dctx))
        dx = None
        for w, gm in zip((wq, wk, wv), grads):
            if w.requires_grad:
                w._accumulate(_tr(flat) @ gm)
            if x.requires_grad:
                part = gm @ _tr(w.data)
                dx = part if dx is None else dx + part
        if dx is not None:
            x._accumulate(dx.reshape(x.shape))

    _record(out, (x, wq, wk, wv, wo, bo, residual), bw)
    return out


def ffn(x, w1, b1, w2, b2, *, residual=None) -> Tensor:
    """GELU feed-forward ``gelu(x w1 + b1) w2 + b2`` over the last axis,
    plus ``residual`` when one is given.

    Stacked models: weights of shape (M, d_in, d_out), biases (M, 1, d_out)
    and ``x`` with a leading M axis run M feed-forwards in lockstep, each
    slice with the bits of its own unstacked call.
    """
    x, w1, b1, w2, b2 = (as_tensor(t) for t in (x, w1, b1, w2, b2))
    inputs = (x, w1, b1, w2, b2)
    if residual is not None:
        residual = as_tensor(residual)
        inputs += (residual,)
    lead = w1.shape[:-2]  # (M,) for stacked models, else ()
    flat = x.data.reshape(lead + (-1, x.shape[-1]))
    pre = flat @ w1.data
    pre += b1.data
    act, slope = _gelu_kernel(pre, _recording_tape(inputs) is not None)
    val = act @ w2.data
    val += b2.data
    val = val.reshape(x.shape[:-1] + (w2.shape[-1],))
    if residual is not None:
        val += residual.data
    out = Tensor(val, _check=False)

    def bw(g):
        if residual is not None and residual.requires_grad:
            residual._accumulate(g)
        g = g.reshape(act.shape[:-1] + (w2.shape[-1],))
        if w2.requires_grad:
            w2._accumulate(_tr(act) @ g)
        if b2.requires_grad:
            b2._accumulate(g)
        dpre = g @ _tr(w2.data)
        dpre *= slope
        if w1.requires_grad:
            w1._accumulate(_tr(flat) @ dpre)
        if b1.requires_grad:
            b1._accumulate(dpre)
        if x.requires_grad:
            x._accumulate((dpre @ _tr(w1.data)).reshape(x.shape))

    _record(out, inputs, bw)
    return out


# ---------------------------------------------------------------------------
# backward + gradient checking


def backward(loss: Tensor) -> None:
    """Add to ``grad`` of every requires_grad leaf reachable from ``loss``.

    Consumes the active tape: each record is popped before its backward
    step runs, and each op output's ``grad`` is dropped as it is passed
    on, so saved arrays and intermediate gradients are freed as the sweep
    goes.  A second call on the same tape raises ``RuntimeError``.  Leaf
    grads accumulate across tapes until they are zeroed.
    """
    if loss.ndim != 0 and loss.size != 1:
        raise ShapeError("backward requires a scalar loss")
    tape = Tape.active()
    if tape is None:
        raise RuntimeError("backward called outside an active Tape")
    if tape.spent:
        raise RuntimeError("backward already ran on this Tape")
    tape.spent = True
    records = tape.records
    loss._accumulate(np.ones_like(loss.data))
    while records:
        out, _inputs, bw = records.pop()
        g, out.grad = out.grad, None
        if g is not None:
            bw(g)


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
