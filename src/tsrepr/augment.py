"""Teacher/student view construction and the fixed stochastic transforms.

The wavelet pipeline builds a "clean" teacher view by soft-thresholding
detail coefficients and a "hard" student view by injecting uniform noise
into every detail band.  Both come from one periodized db4 transform of
up to ``LEVEL`` levels.  Daubechies filters are generated by spectral
factorization; the transform uses periodized circular convolution, which
makes the analysis operator orthogonal and the round trip exact to
machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

FAMILY = "db4"                # wavelet of both views
LEVEL = 3                     # deepest level; shorter windows take fewer
TEACHER_SIGMA = 0.3           # teacher soft-threshold scale
STUDENT_NOISE = (0.1, 0.3)    # range of the student's per-row noise amplitude


@dataclass
class Pyramid:
    """Multi-level coefficients: details[0] is the coarsest band,
    details[-1] the finest."""

    approx: np.ndarray
    details: list[np.ndarray]
    family: str


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


def dwt_forward(signal: np.ndarray, level: int, family: str) -> Pyramid:
    """Periodized ``level``-level DWT along the last axis of a (..., T)
    array."""
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim == 0:
        raise ShapeError("dwt_forward expects a (..., T) signal")
    if level < 1:
        raise ValueError("level must be >= 1")
    h, g = wavelet_filters(family)
    n = signal.shape[-1]
    if n < len(h):
        raise ShapeError(f"signal length {n} < filter length {len(h)}")
    if n % (2 ** level) != 0:
        raise ShapeError(
            f"signal length {n} not divisible by 2^level = {2 ** level}"
        )
    details: list[np.ndarray] = []
    a = signal
    for _ in range(level):
        a, d = _analysis_step(a, h, g)
        details.append(d)
    details.reverse()  # coarsest first
    return Pyramid(a, details, family)


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


def _teacher_details(pyr: Pyramid) -> list[np.ndarray]:
    tau = (TEACHER_SIGMA * np.median(np.abs(pyr.details[-1]), axis=-1,
                                     keepdims=True) / 0.6745)
    return [soft_threshold(d, tau) for d in pyr.details]


def _student_details(pyr: Pyramid, rng: np.random.Generator
                     ) -> list[np.ndarray]:
    # one rng.random call takes, row by row, the doubles of one
    # rng.uniform(lo, hi) amplitude and one rng.uniform(-amp, amp) draw per
    # band, coarsest first; uniform(low, high) is low + (high - low) * u,
    # and for (-amp, amp) that is exactly 2 * amp * u - amp
    sizes = [d.shape[-1] for d in pyr.details]
    u = rng.random(pyr.approx.shape[:-1] + (1 + sum(sizes),))
    lo, hi = STUDENT_NOISE
    amp = lo + (hi - lo) * u[..., :1]
    noise = 2 * amp * u[..., 1:] - amp
    cuts = np.cumsum(sizes)[:-1]
    return [d + n for d, n in zip(pyr.details, np.split(noise, cuts, axis=-1))]


def teacher_view(pyr: Pyramid) -> np.ndarray:
    """Clean view of each row of ``pyr``, which it leaves as is: MAD-scaled
    soft threshold on all detail bands.

    tau = TEACHER_SIGMA * median(|finest detail|) / 0.6745 per row
    (universal threshold convention); the approximation band is untouched.
    """
    return dwt_inverse(Pyramid(pyr.approx, _teacher_details(pyr), pyr.family)
                       ).astype(np.float32)


def student_view(pyr: Pyramid, rng: np.random.Generator) -> np.ndarray:
    """Hard view of each row of ``pyr``: uniform noise in every detail
    band, added to copies, so the pyramid is left as is.

    ``rng`` is drawn row by row: an amplitude from ``STUDENT_NOISE``, then
    one noise draw per band (coarsest first), so a batch gets exactly the
    views of its rows taken one at a time.
    """
    return dwt_inverse(Pyramid(pyr.approx, _student_details(pyr, rng),
                               pyr.family)).astype(np.float32)


# ---------------------------------------------------------------------------
# view pairs


@dataclass
class ViewPair:
    teacher_view: np.ndarray
    student_view: np.ndarray


def make_view_pair(batch: np.ndarray, rng: np.random.Generator,
                   stochastic: bool = False) -> ViewPair:
    """Build (teacher, student) views for a (B, T) batch.

    The teacher view is the soft-thresholded reconstruction; the student
    view carries coefficient noise.  With ``stochastic`` the teacher/global
    view also goes through :func:`stochastic_transforms`.  The bits are
    those of :func:`teacher_view` and :func:`student_view` on the batch's
    pyramid.
    """
    batch = np.asarray(batch, dtype=np.float32)
    if batch.ndim != 2:
        raise ShapeError("make_view_pair expects a (B, T) batch")
    # one transform serves both views, and one inverse rebuilds both: the
    # synthesis works row by row, so stacking the two keeps each one's bits
    pyr = dwt_forward(batch, max_dwt_level(batch.shape[1], LEVEL), FAMILY)
    bands = zip(_teacher_details(pyr), _student_details(pyr, rng))
    teacher, student = dwt_inverse(Pyramid(
        np.broadcast_to(pyr.approx, (2,) + pyr.approx.shape),
        [np.stack(pair) for pair in bands], pyr.family)).astype(np.float32)
    if stochastic:
        teacher = stochastic_transforms(teacher, rng)
    return ViewPair(teacher, student)


def stochastic_transforms(batch: np.ndarray,
                          rng: np.random.Generator) -> np.ndarray:
    """Perturb a float32 (B, T) batch, each row a flattened channel.

    In this order: Gaussian jitter (sigma 0.05), a per-row amplitude scale
    u ~ U[0.8, 1.2], row dropout (rate 0.2), then zeroing round(0.3 * bins)
    distinct rfft bins of each row.
    """
    batch = batch + rng.normal(0.0, 0.05, size=batch.shape).astype(np.float32)
    u = rng.uniform(1.0 - 0.2, 1.0 + 0.2, size=(batch.shape[0], 1))
    batch = (batch * u).astype(np.float32)
    keep = rng.random(batch.shape[0]) >= 0.2
    batch = (batch * keep[:, None]).astype(np.float32)
    spectrum = np.fft.rfft(batch, axis=-1)
    n_bins = spectrum.shape[-1]
    k = int(round(0.3 * n_bins))
    if k > 0:
        for row in spectrum:
            row[rng.choice(n_bins, size=k, replace=False)] = 0.0
    return np.fft.irfft(spectrum, n=batch.shape[1], axis=-1).astype(np.float32)
