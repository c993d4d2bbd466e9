"""Autodiff core: forward values, gradients, tape semantics, errors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsrepr import tensor as T
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
    x = Tensor(np.array([1.0]), requires_grad=True)
    with Tape():
        loss = T.tsum(x)
        backward(loss)
        backward(loss)
    assert x.grad[0] == 2.0


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
    ("expand_sum", lambda x: T.tsum(T.mul(T.mean(x, axis=0, keepdims=True), x))),
]


@pytest.mark.parametrize("name,f", PRIMITIVES, ids=[p[0] for p in PRIMITIVES])
def test_primitive_grad_matches_fd(name, f):
    x = Tensor(np.random.default_rng(hash(name) % 2**32)
               .standard_normal((4, 6)).astype(np.float32))
    assert grad_check(f, x, 1e-3) < 1e-3


def test_broadcast_gradient_sums():
    # (1, 3) broadcast against (4, 3): grad on the small operand sums rows
    a = Tensor(rand(1, 3), requires_grad=True)
    b = Tensor(rand(4, 3))
    with Tape():
        backward(T.tsum(T.add(a, b)))
    np.testing.assert_allclose(a.grad, np.full((1, 3), 4.0), rtol=1e-6)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=16))
def test_sum_linearity_property(values):
    x = np.asarray(values, dtype=np.float32)
    s = T.tsum(Tensor(x)).item()
    assert abs(s - float(x.sum(dtype=np.float64))) <= 1e-4 * max(
        1.0, abs(float(x.sum(dtype=np.float64))))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6))
def test_softmax_shift_invariance(n, d):
    x = np.random.default_rng(n * 7 + d).standard_normal((n, d)).astype(np.float32)
    s1 = T.softmax(Tensor(x)).data
    s2 = T.softmax(Tensor(x + 3.0)).data
    np.testing.assert_allclose(s1, s2, atol=2e-6)
