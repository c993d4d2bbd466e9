"""Optimizers and the one-cycle learning-rate schedule.

Both optimizers keep their moments in one flat float32 buffer, laid out in
the order of the parameter dict, and step over it in chunks of at most
``CHUNK`` floats: small tensors are packed into one chunk, their gradients
gathered into a reusable buffer; a large tensor is cut into ranges of
``CHUNK`` C-order elements, so parameters must be C-contiguous.  Each
element goes through the same float32 operations, in the same order, as a
per-tensor loop would apply, so the result is bitwise equal to it; a chunk
costs a dozen numpy calls plus two per packed tensor, where the loop made
a dozen per tensor.  The layout is private: parameters stay separate arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor

Params = dict[str, Tensor]
# floats per chunk: one untiled pass over a paper-shape backbone was
# slower than the per-tensor loop
CHUNK = 1 << 16


def zero_grads(params: Params) -> None:
    for p in params.values():
        p.grad = None


class _FlatState:
    """Per-element optimizer state of ``params`` in flat buffers, and the
    chunked walk that subtracts an update from the parameters."""

    def __init__(self, params: Params, n_state: int, n_scratch: int):
        # a chunk lists pieces (tensor, start, stop, flat offset), ranges of
        # C-order elements: tensors up to CHUNK floats share chunks, a larger
        # one is cut into CHUNK-float ranges, each a chunk of its own
        self._chunks: list[list[tuple]] = []
        fill, off = CHUNK + 1, 0  # no chunk open
        for name, p in params.items():
            if not p.data.flags.c_contiguous:  # reshape(-1) would copy it
                raise ValueError(f"parameter {name!r} is not C-contiguous")
            n = p.data.size
            if n > CHUNK:
                self._chunks += [[(p, a, min(a + CHUNK, n), off + a)]
                                 for a in range(0, n, CHUNK)]
                fill = CHUNK + 1
            else:
                if fill + n > CHUNK:
                    self._chunks.append([])
                    fill = 0
                self._chunks[-1].append((p, 0, n, off))
                fill += n
            off += n
        self.state = [np.zeros(off, np.float32) for _ in range(n_state)]
        cap = min(off, CHUNK)
        self._grad = np.empty(cap, np.float32)
        self._scratch = [np.empty(cap, np.float32) for _ in range(n_scratch)]

    def _runs(self):
        """(run, chunk offset) for the runs of a chunk's pieces that have a
        gradient; a piece without one ends a run and is left untouched."""
        for chunk in self._chunks:
            run = []
            for piece in chunk:
                if piece[0].grad is not None:
                    run.append(piece)
                elif run:
                    yield run, chunk[0][3]
                    run = []
            if run:
                yield run, chunk[0][3]

    def step(self, update) -> None:
        """Per run: call ``update(g, state, scratch)``, where ``g`` is the
        run's float32 gradient and ``state`` and ``scratch`` are views of
        the run's elements in each buffer; it writes the update into
        ``scratch[0]``, which is then subtracted from the parameters."""
        for run, base in self._runs():
            p, a, b, lo = run[0]
            hi = run[-1][3] + run[-1][2] - run[-1][1]
            if len(run) == 1:  # copies only a grad that is not C-contiguous
                g = p.grad.reshape(-1)[a:b]
            else:  # whole tensors, gathered
                for p, _, n, off in run:
                    self._grad[off - base : off - base + n] = p.grad.reshape(-1)
                g = self._grad[lo - base : hi - base]
            update(g, [s[lo:hi] for s in self.state],
                   [s[lo - base : hi - base] for s in self._scratch])
            for p, a, b, off in run:
                data = p.data.reshape(-1)[a:b]
                data -= self._scratch[0][off - base : off - base + b - a]


class MomentumSGD:
    """SGD with heavy-ball momentum 0.9."""

    def __init__(self, params: Params, lr: float = 1e-2):
        self.lr = lr
        self._flat = _FlatState(params, n_state=1, n_scratch=1)

    def step(self, lr: float | None = None) -> None:
        lr = np.float32(self.lr if lr is None else lr)
        m = np.float32(0.9)

        def update(g, state, scratch):
            (v,), (out,) = state, scratch
            v *= m
            v += g
            np.multiply(lr, v, out=out)

        self._flat.step(update)


class Adam:
    """Adam with betas (0.9, 0.999) and eps 1e-8.

    ``lr`` may instead be a sequence of M rates, one per model on the
    leading axis of every parameter (models stacked by
    ``backbone.stack_weights``): each model then steps at its own rate, in
    the same chunked pass, with the bits of M separate optimizers.
    """

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: Params, lr=1e-3):
        self.lr = lr
        self.t = 0
        self._flat = _FlatState(params, n_state=2, n_scratch=2)
        if np.ndim(lr) > 0:  # a float32 rate per element, used like a scalar
            rates = np.asarray(lr, np.float32)
            if any(len(p.data) != len(rates) for p in params.values()):
                raise ValueError(f"{len(rates)} rates, but not as many models"
                                 " on every parameter's leading axis")
            self._flat.state.append(np.concatenate(
                [np.repeat(rates, p.data[0].size) for p in params.values()]))

    def step(self, lr: float | None = None) -> None:
        """One step, at ``lr`` for every model when given."""
        per_model = lr is None and np.ndim(self.lr) > 0
        if not per_model:
            lr = np.float32(self.lr if lr is None else lr)
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t

        def update(g, state, scratch):
            (m, v), (upd, denom) = state[:2], scratch
            m *= self.b1
            m += np.multiply(1.0 - self.b1, g, out=upd)
            v *= self.b2
            np.multiply(1.0 - self.b2, g, out=upd)
            upd *= g
            v += upd
            np.divide(v, bc2, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.eps
            np.divide(m, bc1, out=upd)
            upd /= denom
            upd *= state[2] if per_model else lr

        self._flat.step(update)


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
