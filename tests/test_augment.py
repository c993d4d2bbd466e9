"""Wavelet view construction and the transform families."""

import numpy as np
import pytest

from tsrepr import augment as A
from tsrepr.tensor import ShapeError


# ---------------------------------------------------------------------------
# filters


@pytest.mark.parametrize("order", range(1, 9))
def test_daubechies_filters_orthonormal(order):
    h = A.daubechies_filter(order)
    assert len(h) == 2 * order
    assert abs(h.sum() - np.sqrt(2)) < 1e-10
    for lag in range(1, order):
        assert abs(np.dot(h[: -2 * lag], h[2 * lag :])) < 1e-9
    assert abs(np.dot(h, h) - 1.0) < 1e-10


def test_wavelet_filter_orthogonality():
    h, g = A.wavelet_filters("db4")
    assert abs(np.dot(h, g)) < 1e-10
    with pytest.raises(ValueError):
        A.wavelet_filters("sym4")


# ---------------------------------------------------------------------------
# transform oracles


def test_haar_constant_signal():
    pyr = A.dwt_forward(np.array([1.0, 1.0, 1.0, 1.0]),
                        A.DwtConfig(family="db1", level=1))
    np.testing.assert_allclose(pyr.approx, [np.sqrt(2), np.sqrt(2)],
                               atol=1e-12)
    np.testing.assert_allclose(pyr.details[0], [0.0, 0.0], atol=1e-12)


def test_haar_zeroed_details_give_pair_means():
    pyr = A.dwt_forward(np.array([1.0, 2.0, 3.0, 4.0]),
                        A.DwtConfig(family="db1", level=1))
    pyr.details[0][:] = 0.0
    np.testing.assert_allclose(A.dwt_inverse(pyr), [1.5, 1.5, 3.5, 3.5],
                               atol=1e-10)


def test_zero_pyramid_zero_signal():
    pyr = A.dwt_forward(np.zeros(64), A.DwtConfig(family="db4", level=2))
    np.testing.assert_allclose(A.dwt_inverse(pyr), np.zeros(64), atol=1e-12)


def test_db4_level3_band_structure():
    pyr = A.dwt_forward(np.random.default_rng(0).standard_normal(256),
                        A.DwtConfig(family="db4", level=3))
    assert pyr.level == 3
    assert [d.shape[0] for d in pyr.details] == [32, 64, 128]
    assert pyr.approx.shape[0] == 32
    assert pyr.length == 256


@pytest.mark.parametrize("order", range(1, 9))
@pytest.mark.parametrize("level", range(1, 5))
def test_perfect_reconstruction(order, level):
    rng = np.random.default_rng(order * 10 + level)
    n = 16 * (2 ** level)
    cfg = A.DwtConfig(family=f"db{order}", level=level)
    for _ in range(5):
        x = rng.standard_normal(n)
        back = A.dwt_inverse(A.dwt_forward(x, cfg))
        assert np.abs(back - x).max() < 1e-6


@pytest.mark.parametrize("family,level", [("db1", 3), ("db2", 2),
                                          ("db4", 3), ("db8", 4)])
def test_batched_dwt_matches_rows(family, level):
    # the last axis is transformed; leading axes are independent rows
    cfg = A.DwtConfig(family=family, level=level)
    x = np.random.default_rng(level).standard_normal((2, 3, 336))
    pyr = A.dwt_forward(x, cfg)
    assert pyr.length == x.shape[-1]
    back = A.dwt_inverse(pyr)
    assert back.shape == x.shape
    assert np.abs(back - x).max() < 1e-9
    for i in np.ndindex(x.shape[:-1]):
        row = A.dwt_forward(x[i], cfg)
        np.testing.assert_allclose(pyr.approx[i], row.approx, rtol=0,
                                   atol=1e-12)
        for band, row_band in zip(pyr.details, row.details):
            np.testing.assert_allclose(band[i], row_band, rtol=0, atol=1e-12)
        np.testing.assert_allclose(back[i], A.dwt_inverse(row), rtol=0,
                                   atol=1e-12)


def scatter_synthesis(a, d, h, g):
    """One synthesis level as a scatter-add over the window table."""
    n = 2 * a.shape[0]
    x = np.zeros(n)
    np.add.at(x, A._window_index(n, len(h)), a[:, None] * h + d[:, None] * g)
    return x


@pytest.mark.parametrize("order", [1, 2, 4, 8])
def test_synthesis_sums_in_scatter_order(order):
    # bitwise whenever a band is at least half the filter long
    h, g = A.wavelet_filters(f"db{order}")
    rng = np.random.default_rng(order)
    for half in (order, order + 1, 21, 64):
        a, d = rng.standard_normal((2, 3, half))
        got = A._synthesis_step(a, d, h, g)
        for i in range(3):
            assert got[i].tobytes() == scatter_synthesis(a[i], d[i], h,
                                                         g).tobytes()


def test_dwt_shape_errors():
    with pytest.raises(ShapeError):
        A.dwt_forward(np.zeros(66), A.DwtConfig(family="db1", level=2))
    with pytest.raises(ShapeError):
        A.dwt_forward(np.zeros(4), A.DwtConfig(family="db4", level=1))
    pyr = A.dwt_forward(np.zeros(32), A.DwtConfig(family="db1", level=1))
    pyr.details[0] = np.zeros(7)
    with pytest.raises(ShapeError):
        A.dwt_inverse(pyr)


# ---------------------------------------------------------------------------
# views


def test_soft_threshold_values():
    assert A.soft_threshold(np.array([0.2]), 0.3)[0] == 0.0
    assert abs(A.soft_threshold(np.array([0.5]), 0.3)[0] - 0.2) < 1e-12
    assert abs(A.soft_threshold(np.array([-0.5]), 0.3)[0] + 0.2) < 1e-12


def test_teacher_view_matches_pyramid_oracle():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(128)
    cfg = A.DwtConfig(family="db4", level=3, teacher_sigma=0.3)
    got = A.teacher_view(x, cfg)
    pyr = A.dwt_forward(x, cfg)
    tau = 0.3 * np.median(np.abs(pyr.details[-1])) / 0.6745
    pyr.details = [A.soft_threshold(d, tau) for d in pyr.details]
    np.testing.assert_allclose(got, A.dwt_inverse(pyr).astype(np.float32),
                               atol=1e-6)
    # deterministic
    assert A.teacher_view(x, cfg).tobytes() == got.tobytes()


def test_teacher_energy_monotone():
    rng = np.random.default_rng(2)
    cfg = A.DwtConfig(family="db2", level=2)
    for _ in range(20):
        x = rng.standard_normal(64)
        before = A.dwt_forward(x, cfg)
        after = A.dwt_forward(A.teacher_view(x, cfg).astype(np.float64), cfg)
        e0 = sum(float(np.sum(d ** 2)) for d in before.details)
        e1 = sum(float(np.sum(d ** 2)) for d in after.details)
        assert e1 <= e0 + 1e-6


def test_student_view_matches_zeroed_pyramid_oracle():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(64)
    cfg = A.DwtConfig(family="db2", level=2, student_noise_range=(0.0, 0.0),
                      zero_out_fraction=1.0)
    got = A.student_view(x, cfg, np.random.default_rng(0))
    pyr = A.dwt_forward(x, cfg)
    pyr.details[-1][:] = 0.0
    np.testing.assert_allclose(got, A.dwt_inverse(pyr).astype(np.float32),
                               atol=1e-6)


def test_student_view_noop_limit_and_determinism():
    x = np.random.default_rng(4).standard_normal(64)
    cfg = A.DwtConfig(family="db3", level=1, student_noise_range=(0.0, 0.0),
                      zero_out_fraction=0.0)
    np.testing.assert_allclose(A.student_view(x, cfg,
                                              np.random.default_rng(0)),
                               x.astype(np.float32), atol=1e-6)
    cfg2 = A.DwtConfig(family="db3", level=1)
    a = A.student_view(x, cfg2, np.random.default_rng(7))
    b = A.student_view(x, cfg2, np.random.default_rng(7))
    assert a.tobytes() == b.tobytes()


def test_make_view_pair_shapes_and_level_reduction():
    batch = np.random.default_rng(5).standard_normal((3, 40)).astype(np.float32)
    pair = A.make_view_pair(batch, A.DwtConfig(level=3),
                            np.random.default_rng(0))
    assert pair.teacher_view.shape == batch.shape
    assert pair.student_view.shape == batch.shape
    assert pair.provenance["level"] == 3  # 40 = 8 * 5: three halvings


def rowwise_view_pair(batch, cfg, rng, extra=None):
    """make_view_pair composed one row at a time, sharing one rng."""
    lvl = A.max_dwt_level(batch.shape[1], cfg.level)
    eff = A.DwtConfig(cfg.family, lvl, cfg.teacher_sigma,
                      cfg.student_noise_range, cfg.zero_out_fraction)
    teacher = np.stack([A.teacher_view(row, eff) for row in batch])
    student = np.stack([A.student_view(row, eff, rng) for row in batch])
    for spec in extra or []:
        teacher = A.stochastic_suite(teacher, spec, rng)
    return teacher, student


@pytest.mark.parametrize("cfg,extra", [
    (A.DwtConfig(), None),
    (A.DwtConfig(), A.DEFAULT_STOCHASTIC),
    (A.DwtConfig(family="db2", zero_out_fraction=0.25), None),
    (A.DwtConfig(student_noise_range=(0.0, 0.0), zero_out_fraction=0.5),
     None),
], ids=["default", "stochastic", "zero_out", "no_noise"])
def test_make_view_pair_matches_rowwise_bitwise(cfg, extra):
    # a batch draws the rng stream of B one-row calls in row order
    batch = np.random.default_rng(12).standard_normal((9, 96)).astype(
        np.float32)
    rng_batch, rng_rows = np.random.default_rng(4), np.random.default_rng(4)
    pair = A.make_view_pair(batch, cfg, rng_batch, extra=extra)
    teacher, student = rowwise_view_pair(batch, cfg, rng_rows, extra)
    assert pair.teacher_view.dtype == pair.student_view.dtype == np.float32
    assert pair.teacher_view.tobytes() == teacher.tobytes()
    assert pair.student_view.tobytes() == student.tobytes()
    assert rng_batch.random() == rng_rows.random()


# ---------------------------------------------------------------------------
# stochastic suite


def test_stochastic_magnitude_zero_identity():
    batch = np.random.default_rng(6).standard_normal((2, 32)).astype(np.float32)
    for family in A.STOCHASTIC_FAMILIES:
        out = A.stochastic_suite(batch, A.TransformSpec(family, 0.0),
                                 np.random.default_rng(0))
        np.testing.assert_allclose(out, batch, atol=1e-4)


def test_fft_mask_round_trip_at_zero_percent():
    batch = np.random.default_rng(7).standard_normal((2, 64)).astype(np.float32)
    out = A.stochastic_suite(batch, A.TransformSpec("fft_mask", 1e-9),
                             np.random.default_rng(0))
    assert np.abs(out - batch).max() < 1e-5


def test_fft_mask_matches_rowwise_reference():
    batch = np.random.default_rng(8).standard_normal((5, 64)).astype(np.float32)
    out = A.stochastic_suite(batch, A.TransformSpec("fft_mask", 0.3),
                             np.random.default_rng(1))
    rng = np.random.default_rng(1)
    spectrum = np.fft.rfft(batch, axis=-1)
    for row in spectrum:
        row[rng.choice(33, size=10, replace=False)] = 0.0
    want = np.fft.irfft(spectrum, n=64, axis=-1).astype(np.float32)
    assert out.tobytes() == want.tobytes()


def test_amp_scale_range():
    batch = np.ones((200, 4), dtype=np.float32)
    out = A.stochastic_suite(batch, A.TransformSpec("amp_scale", 0.2),
                             np.random.default_rng(0))
    assert out.min() >= 0.8 - 1e-6 and out.max() <= 1.2 + 1e-6


def test_channel_dropout_zeroes_rows():
    batch = np.ones((500, 4), dtype=np.float32)
    out = A.stochastic_suite(batch, A.TransformSpec("channel_dropout", 0.2),
                             np.random.default_rng(0))
    zeroed = np.all(out == 0.0, axis=1)
    kept = np.all(out == 1.0, axis=1)
    assert np.all(zeroed | kept)
    assert 0.1 < zeroed.mean() < 0.3


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        A.TransformSpec("zoom", 0.5)
