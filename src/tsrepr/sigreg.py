"""Sketched isotropic-Gaussian regularization.

Embeddings are projected onto random unit directions; each 1-D projected
sample is compared to the standard normal through its empirical
characteristic function, with the weighted squared residual integrated
over a fixed symmetric grid (Epps-Pulley construction).  The statistic is
differentiable with respect to the embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor


@dataclass
class EppsPulleyConfig:
    n_projections: int = 1024
    n_grid: int = 17
    grid_range: float = 5.0
    seed_base: int = 0

    def grid(self) -> np.ndarray:
        return np.linspace(-self.grid_range, self.grid_range, self.n_grid)


def projection_seed(cfg: EppsPulleyConfig, step: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((cfg.seed_base, step)))


def sample_projections(d_model: int, cfg: EppsPulleyConfig,
                       step: int) -> np.ndarray:
    """M standard-normal directions, L2-normalized, seeded by the step."""
    if d_model < 1:
        raise ValueError("d_model must be >= 1")
    rng = projection_seed(cfg, step)
    a = rng.normal(size=(cfg.n_projections, d_model))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    return a.astype(np.float32)


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    dt = grid[1] - grid[0]
    w = np.full(grid.shape, dt)
    w[0] = w[-1] = dt / 2.0
    return w


def epps_pulley_statistic(embeddings, cfg: EppsPulleyConfig,
                          step: int = 0) -> Tensor:
    """Mean weighted CF residual over M random unit projections.

    Differentiable in the embeddings; float32 values with float64
    reduction accumulators (see tensor reductions).  The embeddings are
    tested unstandardized, so low variance is penalized.
    """
    z = embeddings if isinstance(embeddings, Tensor) else Tensor(embeddings)
    if z.ndim != 2 or z.shape[0] < 2:
        raise ValueError("embeddings must be (N >= 2, D)")
    n = z.shape[0]
    directions = sample_projections(z.shape[1], cfg, step)  # (M, D)
    proj = T.matmul(z, T.transpose(Tensor(directions)))     # (N, M)
    grid = cfg.grid()
    weights = np.exp(-0.5 * grid ** 2)
    trapz = _trapezoid_weights(grid)
    target = weights  # standard normal CF is real: e^(-t^2/2)

    residual = None
    for j, t_val in enumerate(grid):
        scaled = T.mul(proj, float(t_val))
        cr = T.mean(T.cos(scaled), axis=0)  # (M,)
        ci = T.mean(T.sin(scaled), axis=0)
        dr = T.sub(cr, float(target[j]))
        sq = T.add(T.mul(dr, dr), T.mul(ci, ci))
        term = T.mul(sq, float(weights[j] * trapz[j]))
        residual = term if residual is None else T.add(residual, term)
    per_projection = T.mul(residual, float(n))  # (M,)
    return T.mean(per_projection)


# ---------------------------------------------------------------------------
# embedding-geometry diagnostics


def sigreg_diagnostics(embeddings: np.ndarray, cfg: EppsPulleyConfig,
                       step: int = 0) -> dict:
    """Per-projection residuals plus covariance spectrum / effective rank."""
    z = np.asarray(embeddings, dtype=np.float64)
    n = z.shape[0]
    directions = sample_projections(z.shape[1], cfg, step).astype(np.float64)
    proj = z @ directions.T
    grid = cfg.grid()
    weights = np.exp(-0.5 * grid ** 2)
    trapz = _trapezoid_weights(grid)
    residuals = np.zeros(directions.shape[0])
    for j, t_val in enumerate(grid):
        cr = np.cos(t_val * proj).mean(axis=0)
        ci = np.sin(t_val * proj).mean(axis=0)
        residuals += ((cr - weights[j]) ** 2 + ci ** 2) * weights[j] * trapz[j]
    residuals *= n
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
