"""Tape-based reverse-mode autodiff in a few lines.

Builds a tiny scalar computation, walks the backward pass, and shows the
finite-difference check that the whole library leans on.
"""

import numpy as np

from tsrepr import tensor as T
from tsrepr.tensor import Tape, Tensor, backward


def main():
    x = Tensor(np.array([1.0, 2.0, 3.0], np.float32), requires_grad=True)
    w = Tensor(np.array([0.5, -1.0, 2.0], np.float32), requires_grad=True)

    with Tape():
        y = T.tsum(T.mul(T.gelu(T.mul(x, w)), 0.1))
        backward(y)
    print("loss       :", float(y.data))
    print("dy/dx      :", x.grad)
    print("dy/dw      :", w.grad)

    # the same check the acceptance suite runs over all six objectives
    err = T.grad_check(
        lambda z: T.tsum(T.mul(T.gelu(z), 0.1)),
        Tensor(np.array([1.0, 2.0, 3.0], np.float32), requires_grad=True))
    print(f"finite-difference rel err: {err:.2e}")

    # a full reduction (tsum, mean) keeps a float64 shadow of its value, so
    # FD stays accurate in fp32; arithmetic on the result does not carry it
    print("float64 shadow:", y.hi)


if __name__ == "__main__":
    main()
