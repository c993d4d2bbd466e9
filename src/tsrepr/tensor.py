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

A primitive gives :func:`_op` its value and one vector-Jacobian product
(VJP) per input, ``g -> gradient of that input``.  Backward calls the VJP
of an input only when the input requires grad, in input order, so a
constant operand costs nothing.  ``layer_norm`` and the SIGReg statistic
are primitives too; the fused ``attention`` and ``ffn`` keep one backward
closure each, because their VJPs share intermediates.

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
_ONE_BITS = np.float32(1.0).view(np.int32)
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


def _op(val: np.ndarray, inputs: tuple["Tensor", ...], vjps) -> "Tensor":
    """The output of a primitive with value ``val``; its backward adds
    ``vjps[i](g)`` to each ``inputs[i]`` that requires grad, in order."""
    out = Tensor(val, _check=False)

    def bw(g):
        for t, vjp in zip(inputs, vjps):
            if t.requires_grad:
                t._accumulate(vjp(g))

    # a record is named after its op (``mul.<locals>.<lambda>``), which
    # is what profiles of the tape count
    bw.__qualname__ = vjps[0].__qualname__
    _record(out, inputs, bw)
    return out


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
        # float64 value of a one-element reduction (tsum, mean, the SIGReg
        # statistic), so finite-difference checks are not limited by
        # float32 rounding; arithmetic on it does not carry it
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


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _op(a.data + b.data, (a, b), (lambda g: g, lambda g: g))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _op(a.data - b.data, (a, b), (lambda g: g, lambda g: -g))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _op(a.data * b.data, (a, b),
               (lambda g: g * b.data, lambda g: g * a.data))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if np.any(b.data == 0.0):
        raise DomainError("division by zero")
    return _op(a.data / b.data, (a, b),
               (lambda g: g / b.data,
                lambda g: -g * a.data / (b.data * b.data)))


# ---------------------------------------------------------------------------
# linear algebra / structure


def matmul(a, b) -> Tensor:
    """``a @ b`` for operands of rank >= 2, batched over leading axes."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul requires rank >= 2 operands")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul contraction mismatch: {a.shape} @ {b.shape}")
    return _op(np.matmul(a.data, b.data), (a, b),
               (lambda g: np.matmul(g, np.swapaxes(b.data, -1, -2)),
                lambda g: np.matmul(np.swapaxes(a.data, -1, -2), g)))


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    ax = axes if axes is not None else tuple(reversed(range(a.ndim)))
    return _op(np.transpose(a.data, ax), (a,),
               (lambda g: np.transpose(g, np.argsort(ax)),))


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    try:
        val = a.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(str(e)) from None
    return _op(val, (a,), (lambda g: g.reshape(a.shape),))


def _basic_key(key) -> bool:
    """True when ``key`` holds only ints, slices, Ellipsis and None, so it
    selects each element at most once."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(k is None or k is Ellipsis or isinstance(k, slice)
               or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
               for k in parts)


def tslice(a, key) -> Tensor:
    a = as_tensor(a)

    def vjp(g):
        full = np.zeros_like(a.data)
        g = g.astype(np.float32, copy=False)
        if _basic_key(key):
            # bitwise equal to np.add.at (0 + -0.0 is +0.0; `=` would not be)
            full[key] += g
        else:
            # index arrays may repeat an index
            np.add.at(full, key, g)
        return full

    return _op(np.ascontiguousarray(a.data[key]), (a,), (vjp,))


def concat(tensors, axis: int = 0) -> Tensor:
    ts = tuple(as_tensor(t) for t in tensors)
    try:
        val = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError as e:
        raise ShapeError(str(e)) from None
    # input i's gradient is its block of g along the axis, the view that
    # np.split gives
    ends = np.cumsum([t.shape[axis] for t in ts])
    head = (slice(None),) * (axis % val.ndim)
    return _op(val, ts, [lambda g, block=slice(end - t.shape[axis], end):
                         g[head + (block,)] for t, end in zip(ts, ends)])


# ---------------------------------------------------------------------------
# reductions (float64 accumulators)


def tsum(a, axis=None) -> Tensor:
    a = as_tensor(a)
    val = a.data.sum(axis=axis, dtype=np.float64)
    out = _op(_f32(val), (a,), (lambda g: np.broadcast_to(
        g if axis is None else np.expand_dims(g, axis), a.shape),))
    if np.size(val) == 1:
        out.hi = float(np.asarray(val).reshape(()))
    return out


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    val = a.data.mean(axis=axis, keepdims=keepdims, dtype=np.float64)
    if axis is None:
        count = a.size
    else:
        axes = (axis,) if isinstance(axis, int) else axis
        count = int(np.prod([a.shape[ax] for ax in axes]))
    out = _op(_f32(val), (a,), (lambda g: np.broadcast_to(
        (g if axis is None or keepdims else np.expand_dims(g, axis)) / count,
        a.shape),))
    if np.size(val) == 1:
        out.hi = float(np.asarray(val).reshape(()))
    return out


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data < 0.0):
        raise DomainError("sqrt of negative value")
    val = np.sqrt(a.data)
    return _op(val, (a,),
               (lambda g: g * 0.5 / np.maximum(val, np.float32(1e-12)),))


def cos(a) -> Tensor:
    a = as_tensor(a)
    return _op(np.cos(a.data), (a,), (lambda g: -g * np.sin(a.data),))


def sin(a) -> Tensor:
    a = as_tensor(a)
    return _op(np.sin(a.data), (a,), (lambda g: g * np.cos(a.data),))


def relu(a) -> Tensor:
    a = as_tensor(a)
    return _op(np.maximum(a.data, 0.0), (a,), (lambda g: g * (a.data > 0.0),))


def _gelu_kernel(x: np.ndarray, slope: bool
                 ) -> tuple[np.ndarray, np.ndarray | None]:
    """Exact GELU ``x * Phi(x)`` of a float32 array and, when ``slope`` is
    set, its derivative (else None); the value's bits do not depend on it.

    Phi comes from the Abramowitz-Stegun erfc of ``|x| / sqrt(2)``, all in
    float32 and branch-free: ``Phi(x)`` is ``1 - Phi(-|x|)`` where the sign
    bit of x is clear and ``Phi(-|x|)`` where it is set, which keeps the
    lower tail accurate.  It is computed as ``|c - Phi(-|x|)|``, with c the
    1.0 or 0.0 that int32 ops make from the sign bit of x.
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
    one = np.right_shift(x.view(np.int32), 31, out=t.view(np.int32))
    np.invert(one, out=one)
    one &= _ONE_BITS  # 1.0 where the sign bit of x is clear, else 0.0
    np.subtract(t, phi, out=phi)  # 1 - Phi(-|x|), or -Phi(-|x|) exactly
    np.abs(phi, out=phi)  # Phi(x)
    if slope:
        e *= x
        e *= _INV_SQRT_2PI
        e += phi  # Phi(x) + x * pdf(x)
    return np.multiply(x, phi, out=t), e if slope else None


def gelu(a) -> Tensor:
    """Exact GELU: x * Phi(x), computed in float32 (see :func:`_gelu_kernel`)."""
    a = as_tensor(a)
    val, slope = _gelu_kernel(a.data, _recording_tape((a,)) is not None)
    return _op(val, (a,), (lambda g: g * slope,))


def softmax(a) -> Tensor:
    """Softmax over the last axis."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    val = e / e.sum(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
    return _op(val, (a,), (lambda g: val * (
        g - (g * val).sum(axis=-1, keepdims=True)),))


def log_softmax(a) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True, dtype=np.float64))
    val = _f32(shifted - lse)
    return _op(val, (a,), (
        lambda g: g - np.exp(val) * g.sum(axis=-1, keepdims=True),))


def layer_norm(a, gamma=None, beta=None, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis with optional affine params."""
    a = as_tensor(a)
    gamma = None if gamma is None else as_tensor(gamma)
    beta = None if beta is None else as_tensor(beta)
    x = a.data
    k = x.shape[-1]
    # np.add.reduce(...) / k is np.mean without its wrapper; temporaries
    # are reused in place
    d = x - _f32(np.add.reduce(x, axis=-1, dtype=np.float64, keepdims=True)
                 / k)
    var = _f32(np.add.reduce(d * d, axis=-1, dtype=np.float64,
                             keepdims=True) / k)
    var += np.float32(eps)
    inv = np.reciprocal(np.sqrt(var, out=var), out=var)
    normed = np.multiply(d, inv, out=d)
    if gamma is not None:
        val = normed * gamma.data
        if beta is not None:
            val += beta.data
    else:
        val = normed if beta is None else normed + beta.data

    def da(g):
        # inv * (gn - m1 - normed * m2), g itself left as is; np.mean
        # would divide the float32 sums in float64 and round, which
        # gives the same float32 as dividing in float32
        gn = g * gamma.data if gamma is not None else g
        m1 = np.add.reduce(gn, axis=-1, keepdims=True) / k
        tmp = gn * normed
        m2 = np.add.reduce(tmp, axis=-1, keepdims=True) / k
        dx = np.subtract(gn, m1, out=None if gn is g else gn)
        dx -= np.multiply(normed, m2, out=tmp)
        dx *= inv
        return dx

    parts = [(t, vjp) for t, vjp in ((a, da), (gamma, lambda g: g * normed),
                                     (beta, lambda g: g)) if t is not None]
    return _op(val, *zip(*parts))


# ---------------------------------------------------------------------------
# fused Transformer blocks


def _tr(m: np.ndarray) -> np.ndarray:
    """Each matrix of a stack transposed; ``m.T`` for one matrix."""
    return m.swapaxes(-1, -2)


def _row_max(s: np.ndarray) -> np.ndarray:
    """``s.max(axis=-1, keepdims=True)`` from elementwise ``np.maximum``:
    rows longer than 16 are halved (the halves may share their middle
    column), then the columns left are taken one by one.

    A reduction along a short last axis pays numpy's per-row overhead;
    these are a few calls over whole arrays.  A max is exact, so only the
    sign of a ±0 tie can differ, and ``exp(s - max)`` does not see it.
    """
    while s.shape[-1] > 16:
        n = s.shape[-1]
        h = (n + 1) // 2
        s = np.maximum(s[..., :h], s[..., n - h:])
    m = s[..., :1].copy()
    for j in range(1, s.shape[-1]):
        np.maximum(m, s[..., j:j + 1], out=m)
    return m


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
    scores -= _row_max(scores)
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
