"""Sketched isotropic-Gaussian regularization.

Embeddings are projected onto random unit directions; each 1-D projected
sample is compared to the standard normal through its empirical
characteristic function, with the weighted squared residual integrated
over a fixed symmetric grid (Epps-Pulley construction).  The statistic is
differentiable with respect to the embeddings.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor

# the points t at which the characteristic functions are compared
GRID = np.linspace(-5.0, 5.0, 17)


def sample_projections(d_model: int, n_projections: int,
                       step: int) -> np.ndarray:
    """M standard-normal directions, L2-normalized, seeded by the step."""
    if d_model < 1:
        raise ValueError("d_model must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence((0, step)))
    a = rng.normal(size=(n_projections, d_model))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    return a.astype(np.float32)


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    dt = grid[1] - grid[0]
    w = np.full(grid.shape, dt)
    w[0] = w[-1] = dt / 2.0
    return w


def _residuals(proj: np.ndarray, grad: bool = False):
    """Per-projection Epps-Pulley residuals of float64 projections (N, M).

    Residual m is ``N * sum_j w_j |phi_m(t_j) - e^(-t_j^2/2)|^2`` with the
    empirical CF ``phi_m(t) = mean_i exp(i t proj[i, m])`` and weights
    ``w_j = e^(-t_j^2/2) * trapezoid_j`` (the standard normal CF is real).
    With ``grad``, also returns the derivative of the residuals' sum with
    respect to ``proj``.  The grid loop keeps memory at O(N * M).
    """
    n = proj.shape[0]
    # phi(-t) = conj(phi(t)) for real samples, so the summand (and its
    # gradient) is even in t and 0 at t = 0: sum t > 0 at double weight
    positive = GRID > 0.0
    t_pos = GRID[positive]
    target = np.exp(-0.5 * t_pos ** 2)
    weights = 2.0 * target * _trapezoid_weights(GRID)[positive]
    residuals = np.zeros(proj.shape[1])
    dproj = np.zeros_like(proj) if grad else None
    # exp(i t proj) on the uniform grid: each next point is the previous
    # one rotated by exp(i dt proj), far cheaper than float64 trig per point
    e = np.exp(1j * t_pos[0] * proj)
    rotation = np.exp(1j * (GRID[1] - GRID[0]) * proj)
    for j, (t, tg, w) in enumerate(zip(t_pos, target, weights)):
        if j:
            e *= rotation
        cf = e.mean(axis=0)
        cr, ci = cf.real - tg, cf.imag
        residuals += (cr * cr + ci * ci) * w
        if grad:
            dproj += (2.0 * w * t) * (ci * e.real - cr * e.imag)
    return n * residuals, dproj


def epps_pulley_statistic(embeddings, n_projections: int,
                          step: int = 0) -> Tensor:
    """Mean weighted CF residual over M random unit projections.

    One tape op over a float64 kernel; the float32 value carries the
    float64 result in ``hi``.  Differentiable in the embeddings.  The
    embeddings are tested unstandardized, so low variance is penalized.
    """
    z = embeddings if isinstance(embeddings, Tensor) else Tensor(embeddings)
    if z.ndim != 2 or z.shape[0] < 2:
        raise ValueError("embeddings must be (N >= 2, D)")
    directions = sample_projections(z.shape[1], n_projections,
                                    step).astype(np.float64)
    per_projection, dproj = _residuals(
        z.data.astype(np.float64) @ directions.T,
        grad=T._recording_tape((z,)) is not None)
    stat = float(per_projection.mean())
    out = T._op(np.float32(stat), (z,), (lambda g: (dproj @ directions) * (
        float(g) / len(directions)),))
    out.hi = stat
    return out


# ---------------------------------------------------------------------------
# embedding-geometry diagnostics


def sigreg_diagnostics(embeddings: np.ndarray, n_projections: int,
                       step: int = 0) -> dict:
    """Per-projection residuals plus covariance spectrum / effective rank."""
    z = np.asarray(embeddings, dtype=np.float64)
    directions = sample_projections(z.shape[1], n_projections,
                                    step).astype(np.float64)
    residuals, _ = _residuals(z @ directions.T)
    cov = np.cov(z, rowvar=False)
    eigvals = np.linalg.eigvalsh(np.atleast_2d(cov))[::-1]
    pos = np.clip(eigvals, 1e-12, None)
    p = pos / pos.sum()
    effective_rank = float(np.exp(-(p * np.log(p)).sum()))
    return {
        "per_projection_residuals": residuals,
        "statistic": float(residuals.mean()),
        "covariance_eigenvalues": eigvals,
        "effective_rank": effective_rank,
    }
