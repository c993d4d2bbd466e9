"""Teacher/student view construction and augmentation families.

The wavelet pipeline builds a "clean" teacher view by soft-thresholding
detail coefficients and a "hard" student view by injecting coefficient
noise and zeroing a fraction of the finest band.  Daubechies filters are
generated by spectral factorization; the transform uses periodized
circular convolution, which makes the analysis operator orthogonal and
the round trip exact to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .tensor import ShapeError

# ---------------------------------------------------------------------------
# Daubechies filters


@lru_cache(maxsize=None)
def daubechies_filter(order: int) -> np.ndarray:
    """Orthonormal db-N scaling filter (length 2N), sum = sqrt(2)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if order == 1:
        return np.array([1.0, 1.0]) / math.sqrt(2.0)
    p = order
    # P(y) = sum_k C(p-1+k, k) y^k with y = (2 - z - 1/z)/4; roots of
    # z^(p-1) P(y(z)) come in reciprocal pairs -- keep those inside the circle.
    coeffs_y = [math.comb(p - 1 + k, k) for k in range(p)]
    poly = np.zeros(2 * p - 1)
    y_pow = np.array([1.0])  # y^0 in z, centered at degree p-1
    base = np.array([-0.25, 0.5, -0.25])  # (2 - z - 1/z)/4 times z
    for k, c in enumerate(coeffs_y):
        offset = (p - 1) - k
        poly[offset : offset + len(y_pow)] += c * y_pow
        y_pow = np.convolve(y_pow, base)
    roots = np.roots(poly[::-1])
    inside = roots[np.abs(roots) < 1.0]
    h = np.array([1.0], dtype=complex)
    for _ in range(p):
        h = np.convolve(h, [1.0, 1.0])  # (1 + z)^p
    for r in inside:
        h = np.convolve(h, [1.0, -r])
    h = np.real(h)
    h *= math.sqrt(2.0) / h.sum()
    return h


def wavelet_filters(family: str) -> tuple[np.ndarray, np.ndarray]:
    """(scaling, wavelet) decomposition filters for a 'dbN' family name."""
    if not family.startswith("db"):
        raise ValueError(f"unsupported wavelet family {family!r}")
    order = int(family[2:])
    h = daubechies_filter(order)
    g = (h[::-1] * np.power(-1.0, np.arange(len(h)))).copy()
    return h, g


# ---------------------------------------------------------------------------
# periodized DWT


@dataclass
class DwtConfig:
    family: str = "db4"
    level: int = 3
    teacher_sigma: float = 0.3
    student_noise_range: tuple[float, float] = (0.1, 0.3)
    zero_out_fraction: float = 0.0

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("level must be >= 1")
        if not 0.0 <= self.zero_out_fraction <= 1.0:
            raise ValueError("zero_out_fraction must be in [0, 1]")


@dataclass
class Pyramid:
    """Multi-level coefficients: details[0] is the coarsest band,
    details[-1] the finest."""

    approx: np.ndarray
    details: list[np.ndarray]
    family: str

    @property
    def level(self) -> int:
        return len(self.details)

    @property
    def length(self) -> int:
        return self.approx.shape[-1] * (2 ** self.level)


def _window_index(n: int, taps: int) -> np.ndarray:
    """(n/2, taps) table: sample (2i + k) mod n meets tap k at output i."""
    return (2 * np.arange(n // 2)[:, None] + np.arange(taps)[None, :]) % n


def _analysis_step(x: np.ndarray, h: np.ndarray, g: np.ndarray):
    win = x[..., _window_index(x.shape[-1], len(h))]
    # tap by tap, not ``win @ h``: BLAS gemv sums in an order that depends
    # on the row count, so a row alone would not match the same row batched
    a, d = win[..., 0] * h[0], win[..., 0] * g[0]
    for k in range(1, len(h)):
        a += win[..., k] * h[k]
        d += win[..., k] * g[k]
    return a, d


def _synthesis_step(a: np.ndarray, d: np.ndarray, h: np.ndarray,
                    g: np.ndarray) -> np.ndarray:
    half = a.shape[-1]
    # x[..., p, r] is output sample 2p + r.  Tap k = 2q + r of coefficient
    # i adds to sample 2(i + q) + r, wrapping when i + q >= half.  Falling
    # taps, the in-range terms of every tap before the wrapped ones, sum each
    # sample's terms by rising i: the float64 order of np.add.at over the
    # window table, whenever half >= len(h) / 2.
    taps = [(*divmod(k, 2), a * h[k] + d * g[k])
            for k in reversed(range(len(h)))]
    x = np.zeros(a.shape + (2,))
    for q, r, term in taps:
        s = q % half
        x[..., s:, r] += term[..., :half - s]
    for q, r, term in taps:
        s = q % half
        x[..., :s, r] += term[..., half - s:]
    return x.reshape(a.shape[:-1] + (2 * half,))


def dwt_forward(signal: np.ndarray, cfg: DwtConfig) -> Pyramid:
    """Periodized multi-level DWT along the last axis of a (..., T) array."""
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim == 0:
        raise ShapeError("dwt_forward expects a (..., T) signal")
    h, g = wavelet_filters(cfg.family)
    n = signal.shape[-1]
    if n < len(h):
        raise ShapeError(f"signal length {n} < filter length {len(h)}")
    if n % (2 ** cfg.level) != 0:
        raise ShapeError(
            f"signal length {n} not divisible by 2^level = {2 ** cfg.level}"
        )
    details: list[np.ndarray] = []
    a = signal
    for _ in range(cfg.level):
        a, d = _analysis_step(a, h, g)
        details.append(d)
    details.reverse()  # coarsest first
    return Pyramid(a, details, cfg.family)


def dwt_inverse(pyr: Pyramid) -> np.ndarray:
    h, g = wavelet_filters(pyr.family)
    a = pyr.approx
    for d in pyr.details:
        if d.shape != a.shape:
            raise ShapeError("inconsistent band lengths in pyramid")
        a = _synthesis_step(a, d, h, g)
    return a


def max_dwt_level(length: int, requested: int) -> int:
    """Deepest level <= requested for which ``length`` splits evenly."""
    lvl = 0
    while lvl < requested and length % 2 == 0 and length >= 2:
        length //= 2
        lvl += 1
    if lvl == 0:
        raise ShapeError("signal length does not admit even one DWT level")
    return lvl


def soft_threshold(x: np.ndarray, tau: float | np.ndarray) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)


def teacher_view(signal: np.ndarray, cfg: DwtConfig) -> np.ndarray:
    """Clean view of each (..., T) row: MAD-scaled soft threshold on all
    detail bands.

    tau = teacher_sigma * median(|finest detail|) / 0.6745 per row
    (universal threshold convention); the approximation band is untouched.
    """
    pyr = dwt_forward(signal, cfg)
    finest = pyr.details[-1]
    tau = (cfg.teacher_sigma * np.median(np.abs(finest), axis=-1,
                                         keepdims=True) / 0.6745)
    pyr.details = [soft_threshold(d, tau) for d in pyr.details]
    return dwt_inverse(pyr).astype(np.float32)


def student_view(signal: np.ndarray, cfg: DwtConfig,
                 rng: np.random.Generator) -> np.ndarray:
    """Hard view of each (..., T) row: uniform coefficient noise plus
    finest-band zero-out.

    ``rng`` is drawn row by row in the order one call per row would use:
    the amplitude, one noise draw per band (coarsest first), then the
    zero-out choice, so a batch gets exactly the views of its rows taken one
    at a time.
    """
    pyr = dwt_forward(signal, cfg)
    finest = pyr.details[-1]
    lo, hi = cfg.student_noise_range
    k = int(round(cfg.zero_out_fraction * finest.shape[-1]))
    for row in np.ndindex(finest.shape[:-1]):
        amp = rng.uniform(lo, hi)
        if amp > 0.0:
            for d in pyr.details:
                d[row] += rng.uniform(-amp, amp, size=d.shape[-1])
        if k > 0:
            finest[row][rng.choice(finest.shape[-1], size=k,
                                   replace=False)] = 0.0
    return dwt_inverse(pyr).astype(np.float32)


# ---------------------------------------------------------------------------
# view pairs


@dataclass
class ViewPair:
    teacher_view: np.ndarray
    student_view: np.ndarray
    provenance: dict = field(default_factory=dict)


def make_view_pair(batch: np.ndarray, cfg: DwtConfig, rng: np.random.Generator,
                   extra: "list[TransformSpec] | None" = None) -> ViewPair:
    """Build (teacher, student) views for a (B, T) batch.

    The teacher view is the soft-thresholded reconstruction; the student
    view carries coefficient noise and zero-out.  ``extra`` stochastic
    transforms are applied to the teacher/global view only.
    """
    batch = np.asarray(batch, dtype=np.float32)
    if batch.ndim != 2:
        raise ShapeError("make_view_pair expects a (B, T) batch")
    lvl = max_dwt_level(batch.shape[1], cfg.level)
    eff = DwtConfig(cfg.family, lvl, cfg.teacher_sigma,
                    cfg.student_noise_range, cfg.zero_out_fraction)
    teacher = teacher_view(batch, eff)
    student = student_view(batch, eff, rng)
    prov = {"family": cfg.family, "level": lvl,
            "teacher_sigma": cfg.teacher_sigma,
            "zero_out_fraction": cfg.zero_out_fraction, "extra": []}
    if extra:
        for spec in extra:
            teacher = stochastic_suite(teacher, spec, rng)
            prov["extra"].append((spec.family, spec.magnitude))
    return ViewPair(teacher, student, prov)


# ---------------------------------------------------------------------------
# stochastic transform families


STOCHASTIC_FAMILIES = ("jitter", "amp_scale", "channel_dropout", "fft_mask")


@dataclass
class TransformSpec:
    family: str
    magnitude: float

    def __post_init__(self):
        if self.family not in STOCHASTIC_FAMILIES:
            raise ValueError(f"unknown transform family {self.family!r}")


DEFAULT_STOCHASTIC = [
    TransformSpec("jitter", 0.05),
    TransformSpec("amp_scale", 0.2),       # u ~ U[0.8, 1.2]
    TransformSpec("channel_dropout", 0.2),
    TransformSpec("fft_mask", 0.3),
]


def stochastic_suite(batch: np.ndarray, spec: TransformSpec,
                     rng: np.random.Generator) -> np.ndarray:
    """Apply one stochastic family to a (B, T) batch of flattened channels."""
    batch = np.asarray(batch, dtype=np.float32)
    if batch.ndim != 2:
        raise ShapeError("stochastic_suite expects a (B, T) batch")
    m = spec.magnitude
    if m == 0.0:
        return batch.copy()
    if spec.family == "jitter":
        return batch + rng.normal(0.0, m, size=batch.shape).astype(np.float32)
    if spec.family == "amp_scale":
        u = rng.uniform(1.0 - m, 1.0 + m, size=(batch.shape[0], 1))
        return (batch * u).astype(np.float32)
    if spec.family == "channel_dropout":
        keep = rng.random(batch.shape[0]) >= m
        return (batch * keep[:, None]).astype(np.float32)
    if spec.family == "fft_mask":
        spectrum = np.fft.rfft(batch, axis=-1)
        n_bins = spectrum.shape[-1]
        k = int(round(m * n_bins))
        if k > 0:
            for row in spectrum:
                row[rng.choice(n_bins, size=k, replace=False)] = 0.0
        return np.fft.irfft(spectrum, n=batch.shape[1], axis=-1).astype(np.float32)
    raise ValueError(f"{spec.family} is not a stochastic family")
