"""Synthetic corpus generation from kernel-composition GP priors.

Univariate series are single draws from a Gaussian process whose
covariance is a random left-folded add/multiply composition of atoms
from a fixed kernel bank.  Multivariate series mix latent univariate
factors through simplex weights (linear coregionalization).
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import tsb

KERNEL_FAMILIES = ("exp_sine_squared", "rbf", "rational_quadratic",
                   "dot_product", "white_noise", "constant")


@dataclass(frozen=True)
class KernelAtom:
    family: str
    params: tuple  # family-specific, scale parameters in sample units

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")


# The 33-atom bank: periodicities cover hourly/daily/weekly/yearly style
# resolutions; all length-type parameters are in sample units and are
# normalized by the series length at evaluation time.
KERNEL_BANK = tuple(
    [KernelAtom("exp_sine_squared", (float(period), 1.0))
     for period in (24, 168, 8766, 96, 672, 7, 365, 52, 12, 4, 30)]
    + [KernelAtom("rbf", (float(ls),)) for ls in (0.5, 1, 2, 5, 10, 20, 50)]
    + [KernelAtom("rational_quadratic", (float(ls), alpha))
       for ls in (1, 5, 20) for alpha in (0.5, 2.0)]
    + [KernelAtom("dot_product", (sigma0,)) for sigma0 in (0.0, 1.0, 2.0)]
    + [KernelAtom("white_noise", (level,)) for level in (0.01, 0.1, 1.0)]
    + [KernelAtom("constant", (value,)) for value in (0.5, 1.0, 5.0)])


@dataclass
class KernelComposition:
    atoms: list[KernelAtom]
    operators: list[str]  # K-1 entries, each "add" | "multiply"

    def __post_init__(self):
        if not 1 <= len(self.atoms) <= 5:
            raise ValueError("composition size must be in [1, 5]")
        if len(self.operators) != len(self.atoms) - 1:
            raise ValueError("need exactly K-1 operators")
        if any(op not in ("add", "multiply") for op in self.operators):
            raise ValueError("operators must be add|multiply")


WEIBULL_SHAPE = 1.5
WEIBULL_SCALE = 4.0
LATENT_CLIP = (1, 10)
DIRICHLET_ALPHA_RANGE = (0.1, 1.0)


@dataclass
class LcmConfig:
    n_channels: int = 160
    series_length: int = 2500
    series_count: int = 4000

    def __post_init__(self):
        if self.n_channels < 1:
            raise ValueError("need n_channels >= 1")


def sample_kernel_composition(rng: np.random.Generator) -> KernelComposition:
    k = int(rng.integers(1, 6))
    atoms = [KERNEL_BANK[int(i)]
             for i in rng.integers(0, len(KERNEL_BANK), size=k)]
    ops = ["add" if rng.random() < 0.5 else "multiply" for _ in range(k - 1)]
    return KernelComposition(atoms, ops)


def _atom_gram(atom: KernelAtom, lag: np.ndarray, t: int) -> np.ndarray:
    """Evaluate one atom on the normalized lag vector ``arange(t) / t``.

    Stationary atoms depend only on |i - j| and return their (t,) values
    per lag; ``dot_product`` returns the full (t, t) gram, because the lag
    vector is also the normalized grid.  Sample-unit parameters are
    divided by the series length.
    """
    fam = atom.family
    if fam == "exp_sine_squared":
        period, ls = atom.params
        arg = np.sin(np.pi * lag / (period / t))
        val = np.exp(-2.0 * (arg / ls) ** 2)
    elif fam == "rbf":
        (ls,) = atom.params
        val = np.exp(-0.5 * (lag / (ls / t)) ** 2)
    elif fam == "rational_quadratic":
        ls, alpha = atom.params
        val = (1.0 + lag ** 2 / (2.0 * alpha * (ls / t) ** 2)) ** (-alpha)
    elif fam == "dot_product":
        (sigma0,) = atom.params
        val = sigma0 ** 2 + lag[:, None] * lag[None, :]
    elif fam == "white_noise":
        (level,) = atom.params
        val = level * (lag == 0)
    elif fam == "constant":
        (value,) = atom.params
        val = np.full(t, value)
    else:  # pragma: no cover
        raise ValueError(fam)
    if not np.all(np.isfinite(val)):
        raise ValueError(f"non-finite kernel value for {atom}")
    return val


def _toeplitz(v: np.ndarray) -> np.ndarray:
    """The symmetric (t, t) matrix with entries ``v[|i - j|]``; a 2-D
    argument is returned as it is."""
    if v.ndim == 2:
        return v
    t = v.shape[0]
    mirrored = np.concatenate([v[:0:-1], v])  # v[t-1], ..., v[0], ..., v[t-1]
    return np.lib.stride_tricks.sliding_window_view(mirrored, t)[::-1].copy()


def gram_matrix(comp: KernelComposition, t: int) -> np.ndarray:
    """T x T covariance on the uniform grid 0..T-1 normalized to [0, 1].

    Stationary atoms are combined as lag vectors and expanded to the
    Toeplitz gram once; an operand that is already (t, t) expands the
    other one first.  Every atom is exactly symmetric, so the result is.
    When t is not a power of two, lag k/t can differ from i/t - j/t by
    one ulp.
    """
    if t < 2:
        raise ValueError("grid needs at least 2 points")
    lag = np.arange(t, dtype=np.float64) / t
    gram = _atom_gram(comp.atoms[0], lag, t)
    for op, atom in zip(comp.operators, comp.atoms[1:]):
        nxt = _atom_gram(atom, lag, t)
        if gram.ndim != nxt.ndim:
            gram, nxt = _toeplitz(gram), _toeplitz(nxt)
        gram = gram + nxt if op == "add" else gram * nxt
    return _toeplitz(gram)


def sample_gp(gram: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One realization x = L xi with L the Cholesky factor of gram+jitter.

    The jitter starts at 1e-6 of the diagonal scale and grows tenfold per
    failed factorization.  It goes on the diagonal of one private copy of
    ``gram``; the caller's array is not modified.  The copy is the
    transpose's contiguous copy, which is Fortran-ordered, so LAPACK takes
    it in with a contiguous copy instead of a strided one; ``gram`` is
    symmetric, so it is the same matrix and the factor has the same bits.
    """
    t = gram.shape[0]
    diag = np.diag(gram)
    scale = max(1.0, float(np.max(diag)))
    jittered = gram.T.copy(order="K")
    j = 1e-6
    while j <= 1e-4 * scale:
        np.fill_diagonal(jittered, diag + j * scale)
        try:
            chol = np.linalg.cholesky(jittered)
            return chol @ rng.standard_normal(t)
        except np.linalg.LinAlgError:
            j *= 10.0
    raise FloatingPointError("Cholesky failed after jitter escalation")


def sample_univariate(rng: np.random.Generator, t: int) -> np.ndarray:
    comp = sample_kernel_composition(rng)
    return sample_gp(gram_matrix(comp, t), rng)


def sample_multivariate_lcm(cfg: LcmConfig, rng: np.random.Generator
                            ) -> np.ndarray:
    """(C, T) channels mixed from J latent GP factors via simplex weights.

    J is round(Weibull(WEIBULL_SHAPE) * WEIBULL_SCALE) clipped to
    LATENT_CLIP; the Dirichlet concentration is uniform on
    DIRICHLET_ALPHA_RANGE."""
    j = int(np.clip(round(rng.weibull(WEIBULL_SHAPE) * WEIBULL_SCALE),
                    *LATENT_CLIP))
    factors = np.stack([sample_univariate(rng, cfg.series_length)
                        for _ in range(j)])  # (J, T)
    alpha = rng.uniform(*DIRICHLET_ALPHA_RANGE)
    weights = rng.dirichlet(np.full(j, alpha), size=cfg.n_channels)  # (C, J)
    return weights @ factors


def _standardize(x: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    sd = x.std(axis=-1, keepdims=True)
    return ((x - mu) / np.maximum(sd, eps)).astype(np.float32)


def standardized_series(entropy, t: int) -> np.ndarray:
    """One standardized univariate GP draw of length ``t``, from the RNG
    stream seeded by ``entropy`` (a SeedSequence entropy value)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    return _standardize(sample_univariate(rng, t))


def generate_corpus(cfg: LcmConfig, univariate: bool, out_dir,
                    n_workers: int = 1, seed: int = 0,
                    shard_size: int = 512) -> tsb.Manifest:
    """Write N standardized series, (N, T) or (N, C, T), as a
    ``tsb.write_dataset`` directory whose ``train_end`` is the length.

    Per-series RNG streams derive from (seed, index), so shard bytes are
    independent of worker count and schedule.
    """
    n = cfg.series_count

    def make(i: int) -> np.ndarray:
        if univariate:
            return standardized_series((seed, i), cfg.series_length)
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        return _standardize(sample_multivariate_lcm(cfg, rng))

    channels = () if univariate else (cfg.n_channels,)
    rows = np.empty((n, *channels, cfg.series_length), dtype=np.float32)
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        for i, series in enumerate(pool.map(make, range(n))):
            rows[i] = series
    digest = hashlib.sha256(repr((cfg, univariate)).encode()).hexdigest()
    return tsb.write_dataset(out_dir, rows, {
        "seed": seed, "n_channels": 1 if univariate else cfg.n_channels,
        "config_digest": digest[:16]}, shard_size)
