"""Gaussianity statistic: oracles, seeding, sensitivity, gradients."""

import numpy as np
import pytest

from tsrepr import sigreg as S
from tsrepr import tensor as T
from tsrepr.tensor import Tape, Tensor, backward

M = 64  # random projection directions


# ---------------------------------------------------------------------------
# component oracles


def test_trapezoid_weights_sum_to_span():
    grid = S.GRID
    assert abs(S._trapezoid_weights(grid).sum() - 10.0) < 1e-10


def zero_sample_statistic(n: int) -> float:
    """Closed form of the statistic when every projected sample is zero.

    The empirical CF is identically (1, 0), so the residual integral is
    the same for every direction: N * trapz(|1 - e^(-t^2/2)|^2 e^(-t^2/2)).
    """
    grid = S.GRID
    w = np.exp(-0.5 * grid ** 2)
    integrand = (1.0 - w) ** 2 * w
    return float(n * np.sum(integrand * S._trapezoid_weights(grid)))


def test_zero_sample_closed_form():
    # all-zero embeddings hit the closed form exactly
    z = np.zeros((32, 8), dtype=np.float32)
    got = float(S.epps_pulley_statistic(z, M).data)
    want = zero_sample_statistic(32)
    assert abs(got - want) / want < 1e-5


def test_projections_unit_norm_and_seeded():
    a = S.sample_projections(16, M, step=3)
    b = S.sample_projections(16, M, step=3)
    c = S.sample_projections(16, M, step=4)
    np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-5)
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()


def test_statistic_nonnegative_and_deterministic():
    rng = np.random.default_rng(2)
    for _ in range(5):
        z = rng.standard_normal((64, 8)).astype(np.float32)
        s1 = float(S.epps_pulley_statistic(z, M, step=1).data)
        s2 = float(S.epps_pulley_statistic(z, M, step=1).data)
        assert s1 >= 0.0
        assert s1 == s2


def test_small_sample_rejected():
    with pytest.raises(ValueError):
        S.epps_pulley_statistic(np.zeros((1, 4), np.float32), M)
    with pytest.raises(ValueError):
        S.epps_pulley_statistic(np.zeros(4, np.float32), M)


# ---------------------------------------------------------------------------
# distributional behavior


def test_rotation_invariance_in_expectation():
    # the statistic averages over random directions, so a fixed rotation of
    # the cloud should not move its across-seed mean by much
    rng = np.random.default_rng(3)
    z = rng.standard_normal((256, 8)).astype(np.float32)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    zr = (z @ q.astype(np.float32)).astype(np.float32)
    vals, vals_r = [], []
    for step in range(60):
        vals.append(float(S.epps_pulley_statistic(z, M, step=step).data))
        vals_r.append(float(S.epps_pulley_statistic(zr, M, step=step).data))
    m, mr = np.mean(vals), np.mean(vals_r)
    assert abs(m - mr) / m < 0.10


def test_monotone_sensitivity_to_variance_inflation():
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        z = rng.standard_normal((512, 8)).astype(np.float32)
        base = float(S.epps_pulley_statistic(z, M, step=seed).data)
        wide = float(S.epps_pulley_statistic(z * 3.0, M, step=seed).data)
        if wide > base:
            hits += 1
    assert hits == 10


def test_shift_increases_statistic():
    rng = np.random.default_rng(4)
    z = rng.standard_normal((512, 8)).astype(np.float32)
    base = float(S.epps_pulley_statistic(z, M).data)
    shifted = float(S.epps_pulley_statistic(z + 3.0, M).data)
    assert shifted > base


# ---------------------------------------------------------------------------
# gradients


def test_gradient_matches_finite_differences():
    m = 4
    rng = np.random.default_rng(6)
    z0 = rng.standard_normal((8, 4)).astype(np.float32)

    def loss(z):
        return S.epps_pulley_statistic(z, m, step=0)

    z = Tensor(z0.copy(), requires_grad=True)
    with Tape():
        out = loss(z)
        backward(out)
    err = T.grad_check(loss, Tensor(z0.copy(), requires_grad=True),
                       epsilon=1e-2)
    assert err < 1e-2
    assert np.isfinite(z.grad).all()
    assert np.abs(z.grad).max() > 0.0


def composed_statistic(z, m, step=0):
    """The statistic built from primitive tape ops, one grid point at a time."""
    directions = S.sample_projections(z.shape[1], m, step)
    proj = T.matmul(z, T.transpose(Tensor(directions)))
    grid = S.GRID
    target = np.exp(-0.5 * grid ** 2)
    trapz = S._trapezoid_weights(grid)
    residual = None
    for j, t_val in enumerate(grid):
        scaled = T.mul(proj, float(t_val))
        dr = T.sub(T.mean(T.cos(scaled), axis=0), float(target[j]))
        ci = T.mean(T.sin(scaled), axis=0)
        term = T.mul(T.add(T.mul(dr, dr), T.mul(ci, ci)),
                     float(target[j] * trapz[j]))
        residual = term if residual is None else T.add(residual, term)
    return T.mean(T.mul(residual, float(z.shape[0])))


def test_fused_statistic_matches_composed():
    m = 16
    z0 = np.random.default_rng(10).standard_normal((24, 6)).astype(np.float32)
    results = []
    for op in (S.epps_pulley_statistic, composed_statistic):
        z = Tensor(z0.copy(), requires_grad=True)
        with Tape() as tape:
            out = op(z, m, 3)
            n_records = len(tape.records)  # backward empties the tape
            backward(out)
        results.append((float(out.data), z.grad, n_records))
    (fused, g_fused, n_fused), (ref, g_ref, _) = results
    assert n_fused == 1
    assert abs(fused - ref) / ref < 1e-5
    np.testing.assert_allclose(g_fused, g_ref, rtol=1e-3, atol=1e-6)


def full_grid_residuals(proj):
    """Residuals and their gradient summed over every grid point, the
    negative half and t = 0 included, with exp(i t proj) taken afresh."""
    grid = S.GRID
    target = np.exp(-0.5 * grid ** 2)
    weights = target * S._trapezoid_weights(grid)
    residuals = np.zeros(proj.shape[1])
    dproj = np.zeros_like(proj)
    for t, tg, w in zip(grid, target, weights):
        e = np.exp(1j * t * proj)
        cf = e.mean(axis=0)
        cr, ci = cf.real - tg, cf.imag
        residuals += (cr * cr + ci * ci) * w
        dproj += (2.0 * w * t) * (ci * e.real - cr * e.imag)
    return proj.shape[0] * residuals, dproj


@pytest.mark.parametrize("n_grid", [17, 16])
def test_residuals_match_full_grid(n_grid, monkeypatch):
    # an even point count puts no grid point at t = 0
    monkeypatch.setattr(S, "GRID", np.linspace(-5.0, 5.0, n_grid))
    rng = np.random.default_rng(11)
    proj = rng.standard_normal((200, 32)) * rng.uniform(0.2, 3.0, size=32)
    got, dgot = S._residuals(proj, grad=True)
    want, dwant = full_grid_residuals(proj)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    np.testing.assert_allclose(dgot, dwant, rtol=0,
                               atol=1e-12 * np.abs(dwant).max())


def test_gradient_pushes_collapsed_cloud_apart():
    # near-zero embeddings: descending the statistic should spread them out
    m = 16
    z0 = (np.random.default_rng(7).standard_normal((64, 8)) * 1e-2)
    z = Tensor(z0.astype(np.float32), requires_grad=True)
    for _ in range(50):
        z.grad = None
        with Tape():
            backward(S.epps_pulley_statistic(z, m, step=0))
        z.data -= 0.5 * z.grad
    assert z.data.std() > 5 * z0.std()


# ---------------------------------------------------------------------------
# diagnostics


def test_diagnostics_shapes_and_consistency():
    rng = np.random.default_rng(8)
    z = rng.standard_normal((256, 8)).astype(np.float32)
    d = S.sigreg_diagnostics(z, M, step=0)
    assert d["per_projection_residuals"].shape == (M,)
    assert abs(d["statistic"] - d["per_projection_residuals"].mean()) < 1e-12
    assert len(d["covariance_eigenvalues"]) == 8
    assert d["covariance_eigenvalues"][0] >= d["covariance_eigenvalues"][-1]
    assert 1.0 <= d["effective_rank"] <= 8.0 + 1e-9
    # isotropic cloud: effective rank close to full
    assert d["effective_rank"] > 7.0
    # the tape op and the diagnostics share one float64 kernel
    auto = S.epps_pulley_statistic(z, M, step=0).hi
    assert abs(auto - d["statistic"]) / d["statistic"] < 1e-12


def test_diagnostics_detect_collapse():
    rng = np.random.default_rng(9)
    flat = np.outer(rng.standard_normal(256),
                    rng.standard_normal(8)).astype(np.float32)
    d = S.sigreg_diagnostics(flat, M)
    assert d["effective_rank"] < 1.5
