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
    pyr = A.dwt_forward(np.array([1.0, 1.0, 1.0, 1.0]), 1, "db1")
    np.testing.assert_allclose(pyr.approx, [np.sqrt(2), np.sqrt(2)],
                               atol=1e-12)
    np.testing.assert_allclose(pyr.details[0], [0.0, 0.0], atol=1e-12)


def test_haar_zeroed_details_give_pair_means():
    pyr = A.dwt_forward(np.array([1.0, 2.0, 3.0, 4.0]), 1, "db1")
    pyr.details[0][:] = 0.0
    np.testing.assert_allclose(A.dwt_inverse(pyr), [1.5, 1.5, 3.5, 3.5],
                               atol=1e-10)


def test_zero_pyramid_zero_signal():
    pyr = A.dwt_forward(np.zeros(64), 2, "db4")
    np.testing.assert_allclose(A.dwt_inverse(pyr), np.zeros(64), atol=1e-12)


def test_db4_level3_band_structure():
    pyr = A.dwt_forward(np.random.default_rng(0).standard_normal(256), 3,
                        "db4")
    assert [d.shape[0] for d in pyr.details] == [32, 64, 128]
    assert pyr.approx.shape[0] == 32


@pytest.mark.parametrize("order", range(1, 9))
@pytest.mark.parametrize("level", range(1, 5))
def test_perfect_reconstruction(order, level):
    rng = np.random.default_rng(order * 10 + level)
    n = 16 * (2 ** level)
    for _ in range(5):
        x = rng.standard_normal(n)
        back = A.dwt_inverse(A.dwt_forward(x, level, f"db{order}"))
        assert np.abs(back - x).max() < 1e-6


@pytest.mark.parametrize("family,level", [("db1", 3), ("db2", 2),
                                          ("db4", 3), ("db8", 4)])
def test_batched_dwt_matches_rows(family, level):
    # the last axis is transformed; leading axes are independent rows
    x = np.random.default_rng(level).standard_normal((2, 3, 336))
    pyr = A.dwt_forward(x, level, family)
    assert pyr.approx.shape[-1] * 2 ** level == x.shape[-1]
    back = A.dwt_inverse(pyr)
    assert back.shape == x.shape
    assert np.abs(back - x).max() < 1e-9
    for i in np.ndindex(x.shape[:-1]):
        row = A.dwt_forward(x[i], level, family)
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
        A.dwt_forward(np.zeros(66), 2, "db1")
    with pytest.raises(ShapeError):
        A.dwt_forward(np.zeros(4), 1, "db4")
    pyr = A.dwt_forward(np.zeros(32), 1, "db1")
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
    pyr = A.dwt_forward(x, 3, "db4")
    got = A.teacher_view(pyr)
    tau = 0.3 * np.median(np.abs(pyr.details[-1])) / 0.6745
    want = A.Pyramid(pyr.approx, [A.soft_threshold(d, tau)
                                  for d in pyr.details], pyr.family)
    np.testing.assert_allclose(got, A.dwt_inverse(want).astype(np.float32),
                               atol=1e-6)
    # deterministic
    assert A.teacher_view(pyr).tobytes() == got.tobytes()


def test_teacher_energy_monotone():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.standard_normal(64)
        before = A.dwt_forward(x, 2, "db2")
        after = A.dwt_forward(A.teacher_view(before).astype(np.float64), 2,
                              "db2")
        e0 = sum(float(np.sum(d ** 2)) for d in before.details)
        e1 = sum(float(np.sum(d ** 2)) for d in after.details)
        assert e1 <= e0 + 1e-6


def test_student_view_matches_noisy_pyramid_oracle():
    # per row: one amplitude in [0.1, 0.3), then one uniform draw per
    # detail band, coarsest first
    x = np.random.default_rng(3).standard_normal((3, 64))
    pyr = A.dwt_forward(x, 3, "db4")
    kept = [d.copy() for d in pyr.details]
    got = A.student_view(pyr, np.random.default_rng(0))
    rng = np.random.default_rng(0)
    for i in range(3):
        amp = rng.uniform(0.1, 0.3)
        row = A.Pyramid(pyr.approx[i], [
            d[i] + rng.uniform(-amp, amp, size=d.shape[-1])
            for d in pyr.details], "db4")
        assert got[i].tobytes() == A.dwt_inverse(row).astype(
            np.float32).tobytes()
    # the pyramid is left as is
    assert all(a.tobytes() == b.tobytes() for a, b in zip(pyr.details, kept))


def test_make_view_pair_shapes_and_level_reduction():
    # 36 = 4 * 9: two halvings, so the views cut LEVEL to level 2
    batch = np.random.default_rng(5).standard_normal((3, 36)).astype(np.float32)
    assert A.max_dwt_level(36, A.LEVEL) == 2
    assert A.max_dwt_level(40, 5) == 3
    pair = A.make_view_pair(batch, np.random.default_rng(0))
    assert pair.teacher_view.shape == batch.shape
    assert pair.student_view.shape == batch.shape
    pyr = A.dwt_forward(batch, 2, "db4")
    assert pair.teacher_view.tobytes() == A.teacher_view(pyr).tobytes()
    assert pair.student_view.tobytes() == A.student_view(
        pyr, np.random.default_rng(0)).tobytes()


def rowwise_view_pair(batch, rng, stochastic=False):
    """make_view_pair composed one row at a time, sharing one rng."""
    lvl = A.max_dwt_level(batch.shape[1], A.LEVEL)
    pyrs = [A.dwt_forward(row, lvl, A.FAMILY) for row in batch]
    teacher = np.stack([A.teacher_view(pyr) for pyr in pyrs])
    student = np.stack([A.student_view(pyr, rng) for pyr in pyrs])
    if stochastic:
        teacher = A.stochastic_transforms(teacher, rng)
    return teacher, student


@pytest.mark.parametrize("stochastic", [False, True],
                         ids=["default", "stochastic"])
def test_make_view_pair_matches_rowwise_bitwise(stochastic):
    # a batch draws the rng stream of B one-row calls in row order
    batch = np.random.default_rng(12).standard_normal((9, 96)).astype(
        np.float32)
    rng_batch, rng_rows = np.random.default_rng(4), np.random.default_rng(4)
    pair = A.make_view_pair(batch, rng_batch, stochastic=stochastic)
    teacher, student = rowwise_view_pair(batch, rng_rows, stochastic)
    assert pair.teacher_view.dtype == pair.student_view.dtype == np.float32
    assert pair.teacher_view.tobytes() == teacher.tobytes()
    assert pair.student_view.tobytes() == student.tobytes()
    assert rng_batch.random() == rng_rows.random()


def test_make_view_pair_transforms_once(monkeypatch):
    # both views come from one pyramid and are rebuilt by one inverse over
    # the stacked teacher and student bands; the student changes copies of
    # its bands, so the teacher and the pyramid are unaffected
    calls = []
    forward, inverse = A.dwt_forward, A.dwt_inverse

    def spy(signal, level, family):
        calls.append(signal.shape)
        return forward(signal, level, family)

    def spy_inverse(pyr):
        calls.append(("inverse", pyr.approx.shape))
        return inverse(pyr)

    batch = np.random.default_rng(3).standard_normal((5, 64)).astype(
        np.float32)
    want = rowwise_view_pair(batch, np.random.default_rng(2))
    monkeypatch.setattr(A, "dwt_forward", spy)
    monkeypatch.setattr(A, "dwt_inverse", spy_inverse)
    pair = A.make_view_pair(batch, np.random.default_rng(2))
    assert calls == [(5, 64), ("inverse", (2, 5, 8))]
    assert pair.teacher_view.tobytes() == want[0].tobytes()
    assert pair.student_view.tobytes() == want[1].tobytes()


# ---------------------------------------------------------------------------
# stochastic transforms


def reference_stochastic(batch, rng):
    """The four teacher-view transforms, each on its own, row by row."""
    b, t = batch.shape
    jittered = batch + rng.normal(0.0, 0.05, size=(b, t)).astype(np.float32)
    scale = rng.uniform(0.8, 1.2, size=b)
    scaled = np.stack([(row.astype(np.float64) * s).astype(np.float32)
                       for row, s in zip(jittered, scale)])
    drop = rng.random(b) < 0.2
    dropped = np.stack([np.zeros(t, np.float32) if d else row
                        for row, d in zip(scaled, drop)])
    n_bins = t // 2 + 1
    out = []
    for row in dropped:
        spectrum = np.fft.rfft(row)
        spectrum[rng.choice(n_bins, size=round(0.3 * n_bins),
                            replace=False)] = 0.0
        out.append(np.fft.irfft(spectrum, n=t).astype(np.float32))
    return np.stack(out), scale, drop


def library_and_reference(batch, seed):
    """stochastic_transforms and the reference, each from rng ``seed``."""
    rng_lib, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    out = A.stochastic_transforms(batch, rng_lib)
    want, scale, drop = reference_stochastic(batch, rng_ref)
    assert out.dtype == np.float32
    assert out.tobytes() == want.tobytes()
    assert rng_lib.random() == rng_ref.random()
    return out, scale, drop


def test_fft_mask_matches_rowwise_reference():
    # odd and even lengths: the rfft has t // 2 + 1 bins either way
    for t in (64, 63):
        batch = np.random.default_rng(8).standard_normal((5, t)).astype(
            np.float32)
        out, _, _ = library_and_reference(batch, seed=1)
        assert out.shape == batch.shape


def test_amp_scale_range():
    batch = np.ones((200, 4), dtype=np.float32)
    _, scale, _ = library_and_reference(batch, seed=0)
    assert scale.min() >= 0.8 and scale.max() <= 1.2
    assert scale.max() - scale.min() > 0.3


def test_channel_dropout_zeroes_rows():
    batch = np.random.default_rng(8).standard_normal((500, 64)).astype(
        np.float32)
    out, _, drop = library_and_reference(batch, seed=0)
    zeroed = np.all(out == 0.0, axis=1)
    np.testing.assert_array_equal(zeroed, drop)
    assert 0.1 < zeroed.mean() < 0.3
