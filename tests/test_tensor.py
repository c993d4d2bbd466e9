"""Autodiff core: forward values, gradients, tape semantics, errors."""

import math
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsrepr import tensor as T
from tsrepr.backbone import (BackboneConfig, _causal_bias, encode,
                             init_encoder, stack_weights)
from tsrepr.tensor import (DomainError, NumericError, ShapeError, Tape,
                           Tensor, backward, grad_check)

RNG = np.random.default_rng(0)


def rand(*shape):
    return RNG.standard_normal(shape).astype(np.float32)


# ---------------------------------------------------------------------------
# forward values


def test_matmul_identity():
    a = rand(3, 3)
    out = T.matmul(Tensor(np.eye(3, dtype=np.float32)), Tensor(a))
    np.testing.assert_allclose(out.data, a, rtol=1e-6)


def test_softmax_rows_sum_to_one():
    x = Tensor(rand(5, 7))
    s = T.softmax(x).data
    np.testing.assert_allclose(s.sum(axis=-1), np.ones(5), atol=1e-6)
    assert np.all(s >= 0)


def test_layer_norm_moments():
    out = T.layer_norm(Tensor(np.array([1.0, 2.0, 3.0]))).data
    assert abs(out.mean()) < 1e-6
    assert abs(out.var() - 1.0) < 1e-4


def test_reshape_transpose_round_trip():
    a = rand(4, 6)
    back = T.transpose(T.transpose(Tensor(a))).data
    np.testing.assert_array_equal(back, a)
    back = T.reshape(T.reshape(Tensor(a), (24,)), (4, 6)).data
    np.testing.assert_array_equal(back, a)


def test_views_share_memory():
    a = Tensor(rand(4, 6))
    assert np.shares_memory(T.reshape(a, (2, 12)).data, a.data)
    assert np.shares_memory(T.transpose(a).data, a.data)


def test_forward_determinism():
    a, b = rand(8, 8), rand(8, 8)
    r1 = T.matmul(T.gelu(Tensor(a)), Tensor(b)).data
    r2 = T.matmul(T.gelu(Tensor(a)), Tensor(b)).data
    assert r1.tobytes() == r2.tobytes()


# ---------------------------------------------------------------------------
# errors


def test_shape_errors():
    with pytest.raises(ShapeError):
        T.matmul(Tensor(rand(2, 3)), Tensor(rand(4, 2)))
    with pytest.raises(ShapeError):
        T.reshape(Tensor(rand(2, 3)), (7,))
    with pytest.raises(ShapeError):
        T.concat([Tensor(rand(2, 3)), Tensor(rand(2, 4))], axis=0)
    for a, b in (((3,), (3, 2)), ((2, 3), (3,))):  # no 1-D operand
        with pytest.raises(ShapeError, match="rank >= 2"):
            T.matmul(Tensor(np.ones(a)), Tensor(np.ones(b)))


def test_only_full_reductions_keep_a_float64_shadow():
    # a local stream, so the shared RNG's later draws do not move
    x = Tensor(np.random.default_rng(1).standard_normal((5, 3)))
    for op, want in ((T.tsum, x.data.sum(dtype=np.float64)),
                     (T.mean, x.data.mean(dtype=np.float64))):
        out = op(x)
        assert out.hi == float(want)
        assert float(out.data) == np.float32(want)
    # scalar arithmetic does not carry the shadow on
    s = T.tsum(x)
    for op in (T.add, T.sub, T.mul, T.div):
        assert op(s, 2.0).hi is None
        assert op(s, s).hi is None


def test_domain_errors():
    with pytest.raises(DomainError):
        T.sqrt(Tensor(np.array([-0.5])))
    with pytest.raises(DomainError):
        T.div(Tensor(np.ones(2)), Tensor(np.array([1.0, 0.0])))


def test_nonfinite_rejected():
    with pytest.raises(NumericError):
        Tensor(np.array([1.0, np.nan]))


def test_backward_requires_scalar_and_tape():
    x = Tensor(rand(3), requires_grad=True)
    with Tape():
        y = T.mul(x, 2.0)
        with pytest.raises(ShapeError):
            backward(y)
    with pytest.raises(RuntimeError):
        backward(T.tsum(x))


# ---------------------------------------------------------------------------
# gradients


def test_sum_gradient_all_ones():
    x = Tensor(rand(4, 3), requires_grad=True)
    with Tape():
        backward(T.tsum(x))
    np.testing.assert_array_equal(x.grad, np.ones((4, 3), np.float32))


def test_square_sum_gradient():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with Tape():
        backward(T.tsum(T.mul(x, x)))
    np.testing.assert_allclose(x.grad, [2.0, 4.0], rtol=1e-6)


def test_grad_accumulates_across_backward_calls():
    # leaf grads accumulate across tapes until they are zeroed
    x = Tensor(np.array([1.0]), requires_grad=True)
    for _ in range(2):
        with Tape():
            backward(T.tsum(x))
    assert x.grad[0] == 2.0


def test_second_backward_on_one_tape_raises():
    x = Tensor(np.array([1.0]), requires_grad=True)
    with Tape():
        loss = T.tsum(T.mul(x, 3.0))
        backward(loss)
        with pytest.raises(RuntimeError):
            backward(loss)
    assert x.grad[0] == 3.0


def test_backward_consumes_tape():
    x = Tensor(rand(4, 3), requires_grad=True)

    def helper():
        h = T.mul(x, x)
        return T.tsum(T.gelu(h)), weakref.ref(h)

    with Tape() as tape:
        loss, ref = helper()
        assert ref() is not None
        backward(loss)
        assert tape.records == []
        assert ref() is None
        assert loss.grad is None
    assert x.grad is not None


def test_backward_frees_activations_as_it_runs():
    # MB-sized activations: 16 windows of 64 patches at d_model 64
    cfg = BackboneConfig(d_model=64, n_layers=2, n_heads=4, patch_len=16,
                         max_patches=64)
    weights = init_encoder(cfg, np.random.default_rng(0))
    windows = rand(16, 64, 16).reshape(16, 64 * 16)
    grad_bytes = sum(t.data.nbytes for t in weights.values())
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with Tape():
            loss = T.mean(T.mul(encode(windows, weights, cfg), 0.5))
            forward_end = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward(loss)
            after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert forward_end - start > 8 * grad_bytes  # activations dominate
    # only the parameter gradients outlive backward
    assert after - start <= grad_bytes + 64 * 1024
    # each record's saved arrays are freed once its step is done, so the
    # peak exceeds the end of the forward pass by no more than the parameter
    # gradients plus 2 MiB, two (B, H, N, N) attention arrays
    assert peak - forward_end <= grad_bytes + 2 * 2**20


def test_no_recording_outside_tape():
    x = Tensor(rand(3), requires_grad=True)
    y = T.mul(x, x)
    with Tape() as tape:
        pass
    assert tape.records == []
    assert y.grad is None


def test_constant_function_zero_error():
    assert grad_check(lambda x: T.tsum(T.mul(x, 0.0)), Tensor(rand(5))) == 0.0


def test_sum_of_squares_grad_check():
    err = grad_check(lambda x: T.tsum(T.mul(x, x)), Tensor(rand(8)), 1e-3)
    assert err < 1e-4


def test_softmax_cross_entropy_grad_check():
    labels = np.array([0, 2, 1])

    def f(x):
        logp = T.log_softmax(x)
        return T.mul(T.mean(logp[np.arange(3), labels]), -1.0)

    err = grad_check(f, Tensor(rand(3, 4)), 1e-3)
    assert err < 1e-3


ATTN_W = [Tensor(0.5 * rand(6, 6)) for _ in range(4)] + [Tensor(rand(6))]
FFN_W = [Tensor(0.5 * rand(6, 12)), Tensor(rand(12)),
         Tensor(0.5 * rand(12, 6)), Tensor(rand(6))]

PRIMITIVES = [
    ("add", lambda x: T.tsum(T.add(x, 0.5))),
    ("sub", lambda x: T.tsum(T.sub(1.5, x))),
    ("mul", lambda x: T.tsum(T.mul(x, 3.0))),
    ("div", lambda x: T.tsum(T.div(x, 2.0))),
    ("matmul", lambda x: T.tsum(T.matmul(x, T.transpose(x)))),
    ("transpose", lambda x: T.tsum(T.mul(T.transpose(x), T.transpose(x)))),
    ("reshape", lambda x: T.tsum(T.mul(T.reshape(x, (-1,)),
                                       T.reshape(x, (-1,))))),
    ("slice", lambda x: T.tsum(T.mul(x[1:, :2], 2.0))),
    ("concat", lambda x: T.tsum(T.mul(T.concat([x, x], axis=0), 0.7))),
    ("mean", lambda x: T.mean(T.mul(x, x))),
    ("sqrt", lambda x: T.tsum(T.sqrt(T.add(T.mul(x, x), 1.0)))),
    ("gelu", lambda x: T.tsum(T.gelu(x))),
    ("relu", lambda x: T.tsum(T.mul(T.relu(x), x))),
    ("cos", lambda x: T.tsum(T.cos(x))),
    ("sin", lambda x: T.tsum(T.sin(x))),
    ("softmax", lambda x: T.tsum(T.mul(T.softmax(x), x))),
    ("log_softmax", lambda x: T.tsum(T.mul(T.log_softmax(x), 0.3))),
    ("layer_norm", lambda x: T.tsum(T.mul(T.layer_norm(x), x))),
    ("attention", lambda x: T.tsum(T.mul(T.attention(
        T.reshape(x, (2, 2, 6)), *ATTN_W, 2, residual=T.reshape(x, (2, 2, 6))),
        0.7))),
    ("ffn", lambda x: T.tsum(T.mul(T.ffn(x, *FFN_W, residual=x), 0.7))),
    ("expand_sum", lambda x: T.tsum(T.mul(T.mean(x, axis=0, keepdims=True), x))),
]


@pytest.mark.parametrize("name,f", PRIMITIVES, ids=[p[0] for p in PRIMITIVES])
def test_primitive_grad_matches_fd(name, f):
    # a fixed seed per case: str hashes change from process to process
    x = Tensor(np.random.default_rng(zlib.crc32(name.encode()))
               .standard_normal((4, 6)).astype(np.float32))
    assert grad_check(f, x, 1e-3) < 1e-3


def test_broadcast_gradient_sums():
    # (1, 3) broadcast against (4, 3): grad on the small operand sums rows
    a = Tensor(rand(1, 3), requires_grad=True)
    b = Tensor(rand(4, 3))
    with Tape():
        backward(T.tsum(T.add(a, b)))
    np.testing.assert_allclose(a.grad, np.full((1, 3), 4.0), rtol=1e-6)


@pytest.mark.parametrize("key,basic", [
    ((slice(1, None), slice(None, 2)), True),
    ((Ellipsis, 0), True),
    ((None, slice(None), np.int64(1), slice(None, None, 2)), True),
    (2, True),
    ((np.array([0, 2, 0]), slice(None)), False),  # row 0 twice
    ((np.arange(3), np.array([1, 1, 0])), False),
])
def test_slice_gradient_matches_add_at(key, basic):
    # basic keys add with `+=`, index arrays with np.add.at; both give the
    # bits of np.add.at, -0.0 included
    assert T._basic_key(key) is basic
    a = Tensor(rand(4, 3, 5), requires_grad=True)
    g = rand(*a.data[key].shape)
    g.reshape(-1)[::3] = -0.0
    with Tape():
        backward(T.tsum(T.mul(a[key], g)))
    expected = np.zeros_like(a.data)
    np.add.at(expected, key, g)
    assert a.grad.tobytes() == expected.tobytes()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=16))
def test_sum_linearity_property(values):
    x = np.asarray(values, dtype=np.float32)
    s = float(T.tsum(Tensor(x)).data)
    assert abs(s - float(x.sum(dtype=np.float64))) <= 1e-4 * max(
        1.0, abs(float(x.sum(dtype=np.float64))))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6))
def test_softmax_shift_invariance(n, d):
    x = np.random.default_rng(n * 7 + d).standard_normal((n, d)).astype(np.float32)
    s1 = T.softmax(Tensor(x)).data
    s2 = T.softmax(Tensor(x + 3.0)).data
    np.testing.assert_allclose(s1, s2, atol=2e-6)


# ---------------------------------------------------------------------------
# fused ops against their composed references


def composed_layer_norm(a, gamma, beta, eps=1e-5):
    m = T.mean(a, axis=-1, keepdims=True)
    d = T.sub(a, m)
    v = T.mean(T.mul(d, d), axis=-1, keepdims=True)
    normed = T.mul(d, T.div(1.0, T.sqrt(T.add(v, eps))))
    return T.add(T.mul(normed, gamma), beta)


def composed_attention(x, residual, wq, wk, wv, wo, bo, n_heads, bias=None):
    b, n, d = x.shape
    dh = d // n_heads

    def heads(t):
        t = T.reshape(T.matmul(flat, t), (b, n, n_heads, dh))
        return T.transpose(t, (0, 2, 1, 3))

    flat = T.reshape(x, (b * n, d))
    q, k, v = heads(wq), heads(wk), heads(wv)
    scores = T.mul(T.matmul(q, T.transpose(k, (0, 1, 3, 2))),
                   1.0 / math.sqrt(dh))
    if bias is not None:
        scores = T.add(scores, bias)
    ctx = T.matmul(T.softmax(scores), v)
    ctx = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (b * n, d))
    return T.add(residual, T.reshape(T.add(T.matmul(ctx, wo), bo), (b, n, d)))


def composed_ffn(x, residual, w1, b1, w2, b2):
    b, n, d = x.shape
    flat = T.reshape(x, (b * n, d))
    h = T.gelu(T.add(T.matmul(flat, w1), b1))
    return T.add(residual,
                 T.reshape(T.add(T.matmul(h, w2), b2), (b, n, w2.shape[1])))


def composed_mlp(x, w1, b1, w2, b2):
    return T.add(T.matmul(T.gelu(T.add(T.matmul(x, w1), b1)), w2), b2)


def fused_attention(x, residual, *weights, n_heads, bias=None):
    return T.attention(x, *weights, n_heads, bias, residual=residual)


def fused_ffn(x, residual, *weights):
    return T.ffn(x, *weights, residual=residual)


def _values_and_grads(op, arrays):
    """Forward value of ``op`` and the gradient of a weighted sum of it."""
    ts = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    with Tape():
        out = op(*ts)
        weight = np.random.default_rng(5).standard_normal(out.shape)
        backward(T.tsum(T.mul(out, weight.astype(np.float32))))
    return out.data, [t.grad for t in ts]


FUSED = [
    pytest.param(T.layer_norm, composed_layer_norm,
                 [rand(3, 5, 8), 1.0 + rand(8), rand(8)], id="layer_norm"),
    pytest.param(lambda *a: fused_attention(*a, n_heads=2),
                 lambda *a: composed_attention(*a, 2),
                 [rand(3, 5, 8), rand(3, 5, 8)]
                 + [0.4 * rand(8, 8) for _ in range(4)] + [rand(8)],
                 id="attention"),
    pytest.param(lambda *a: fused_attention(*a, n_heads=4, bias=_causal_bias(5)),
                 lambda *a: composed_attention(*a, 4, _causal_bias(5)),
                 [rand(3, 5, 8), rand(3, 5, 8)]
                 + [0.4 * rand(8, 8) for _ in range(4)] + [rand(8)],
                 id="attention_causal"),
    pytest.param(fused_ffn, composed_ffn,
                 [rand(3, 5, 8), rand(3, 5, 8), 0.4 * rand(8, 32), rand(32),
                  0.2 * rand(32, 8), rand(8)], id="ffn"),
    pytest.param(T.ffn, composed_mlp,
                 [rand(6, 8), 0.4 * rand(8, 32), rand(32), 0.2 * rand(32, 5),
                  rand(5)], id="ffn_no_residual"),
]


@pytest.mark.parametrize("fused,composed,arrays", FUSED)
def test_fused_matches_composed(fused, composed, arrays):
    val, grads = _values_and_grads(fused, arrays)
    ref_val, ref_grads = _values_and_grads(composed, arrays)
    np.testing.assert_allclose(val, ref_val, rtol=1e-5, atol=1e-5)
    for g, ref in zip(grads, ref_grads):
        np.testing.assert_allclose(g, ref, rtol=1e-4, atol=1e-5)


def test_gelu_matches_exact_erf():
    x = np.concatenate([np.linspace(-9.0, 9.0, 2001),
                        rand(500) * 3.0]).astype(np.float32)
    x64 = x.astype(np.float64)
    erf = np.vectorize(math.erf)
    phi = 0.5 * (1.0 + erf(x64 / math.sqrt(2.0)))
    pdf = np.exp(-0.5 * x64 ** 2) / math.sqrt(2.0 * math.pi)
    xt = Tensor(x, requires_grad=True)
    with Tape():
        out = T.gelu(xt)
        backward(T.tsum(out))
    np.testing.assert_allclose(out.data, x64 * phi, rtol=0, atol=1e-6)
    np.testing.assert_allclose(xt.grad, phi + x64 * pdf, rtol=0, atol=1e-6)


@pytest.mark.parametrize("op,arrays", [
    pytest.param(T.gelu, [np.linspace(-9.0, 9.0, 4001, dtype=np.float32)],
                 id="gelu"),
    pytest.param(fused_ffn, [rand(3, 5, 8), rand(3, 5, 8), 0.4 * rand(8, 32),
                             rand(32), 0.2 * rand(32, 8), rand(8)], id="ffn"),
])
def test_gelu_slope_only_when_recorded(op, arrays, monkeypatch):
    # the GELU derivative is computed only for an op the tape records; the
    # value does not depend on whether it was
    slopes = []
    kernel = T._gelu_kernel

    def spy(x, slope):
        slopes.append(slope)
        return kernel(x, slope)

    monkeypatch.setattr(T, "_gelu_kernel", spy)
    taped, _ = _values_and_grads(op, arrays)
    untaped = op(*[Tensor(a) for a in arrays]).data
    with Tape():
        constant = op(*[Tensor(a) for a in arrays]).data
    assert slopes == [True, False, False]
    assert taped.tobytes() == untaped.tobytes() == constant.tobytes()


# ---------------------------------------------------------------------------
# a leading model axis: stacked weights run M models in lockstep


def _slice_values_and_grads(op, arrays, weight):
    """Forward value of ``op`` and the gradients of ``sum(out * weight)``."""
    ts = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    with Tape():
        out = op(*ts)
        backward(T.tsum(T.mul(out, weight)))
    return out.data, [t.grad for t in ts]


# (op, unstacked shapes); each stacked array is (M,) + its shape padded with
# unit axes to broadcast, the layout of ``backbone.stack_weights``
STACKED = [
    pytest.param(T.layer_norm, [(3, 5, 8), (1, 1, 8), (1, 1, 8)],
                 id="layer_norm"),
    pytest.param(lambda *a: fused_attention(*a, n_heads=2),
                 [(3, 5, 8), (3, 5, 8)] + [(8, 8)] * 4 + [(1, 8)],
                 id="attention"),
    pytest.param(lambda *a: fused_attention(*a, n_heads=4,
                                            bias=_causal_bias(5)),
                 [(3, 5, 8), (3, 5, 8)] + [(8, 8)] * 4 + [(1, 8)],
                 id="attention_causal"),
    pytest.param(fused_ffn, [(3, 5, 8), (3, 5, 8), (8, 32), (1, 32),
                             (32, 8), (1, 8)], id="ffn"),
    pytest.param(T.ffn, [(6, 8), (8, 32), (1, 32), (32, 5), (1, 5)],
                 id="ffn_no_residual"),
]


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("op,shapes", STACKED)
def test_stacked_op_matches_each_model_bitwise(op, shapes, m):
    # each model's slice of a stacked call has the forward bytes and every
    # gradient of the unstacked call on that model's arrays
    rng = np.random.default_rng(m)
    arrays = [(0.4 * rng.standard_normal((m,) + s)).astype(np.float32)
              for s in shapes]
    out_shape = op(*[Tensor(a) for a in arrays]).shape
    weight = rng.standard_normal(out_shape).astype(np.float32)
    val, grads = _slice_values_and_grads(op, arrays, weight)
    for i in range(m):
        # unstacked: biases and norm parameters are plain vectors
        one = [a[i].reshape(a.shape[-1:]) if s[0] == 1 else a[i]
               for a, s in zip(arrays, shapes)]
        ref_val, ref_grads = _slice_values_and_grads(op, one, weight[i])
        assert val[i].tobytes() == ref_val.tobytes(), i
        for k, (g, ref) in enumerate(zip(grads, ref_grads)):
            assert g[i].tobytes() == ref.tobytes(), (i, k)


ENCODE_CFG = BackboneConfig(d_model=16, n_layers=2, n_heads=2, patch_len=4,
                            max_patches=16)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("masked", [False, True])
def test_stacked_encode_matches_each_model_bitwise(m, masked):
    rng = np.random.default_rng(10 + m)
    one = init_encoder(ENCODE_CFG, rng)
    stacked = stack_weights(one, m)
    for t in stacked.values():  # a different model on each slice
        t.data += (0.05 * rng.standard_normal(t.shape)).astype(np.float32)
    windows = rng.standard_normal((5, 24)).astype(np.float32)
    mask = rng.random((5, 6)) < 0.3 if masked else None
    weight = rng.standard_normal((m, 5, 6, 16)).astype(np.float32)

    def run(weights, w):
        with Tape():
            out = encode(windows, weights, ENCODE_CFG, patch_mask=mask)
            backward(T.tsum(T.mul(out, w)))
        return out.data

    val = run(stacked, weight)
    for i in range(m):
        model = {k: Tensor(t.data[i].reshape(one[k].shape), requires_grad=True)
                 for k, t in stacked.items()}
        assert val[i].tobytes() == run(model, weight[i]).tobytes(), i
        for k, t in model.items():
            if t.grad is None:  # the mask token, when nothing is masked
                assert stacked[k].grad is None and not masked, k
                continue
            assert stacked[k].grad[i].tobytes() == (
                t.grad.reshape(stacked[k].shape[1:]).tobytes()), (i, k)


@pytest.mark.parametrize("masked,records", [(False, 14), (True, 18)])
def test_unstacked_encode_record_count(masked, records):
    # a toy encode (two layers) records 3 patch-embedding entries, 2 for
    # the positions, 4 per layer and 1 final norm; a patch mask adds 4
    cfg = BackboneConfig(d_model=32, n_layers=2, n_heads=4, patch_len=16,
                         max_patches=8)
    w = init_encoder(cfg, np.random.default_rng(0))
    x = rand(4, 128)
    with Tape() as tape:
        encode(x, w, cfg, patch_mask=np.eye(4, 8, dtype=bool) if masked
               else None)
    assert len(tape.records) == records
