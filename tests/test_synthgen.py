"""Kernel compositions, GP sampling, and corpus generation."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tsrepr import harness as H, synthgen as G, tsb


def test_bank_size_and_families():
    bank = G.KERNEL_BANK
    assert len(bank) == 33
    assert {a.family for a in bank} == set(G.KERNEL_FAMILIES)


def test_atom_validation():
    with pytest.raises(ValueError):
        G.KernelAtom("matern", (1.0,))


def test_composition_validation():
    atom = G.KernelAtom("rbf", (1.0,))
    with pytest.raises(ValueError):
        G.KernelComposition([atom] * 6, ["add"] * 5)
    with pytest.raises(ValueError):
        G.KernelComposition([atom, atom], [])
    with pytest.raises(ValueError):
        G.KernelComposition([atom, atom], ["xor"])


def test_sampled_composition_sizes():
    rng = np.random.default_rng(0)
    sizes = {len(G.sample_kernel_composition(rng).atoms) for _ in range(300)}
    assert sizes == {1, 2, 3, 4, 5}


def test_gram_rbf_oracle():
    # single RBF: K(i, j) = exp(-0.5 ((i - j)/ls)^2) in sample units
    comp = G.KernelComposition([G.KernelAtom("rbf", (5.0,))], [])
    gram = G.gram_matrix(comp, 32)
    i, j = np.meshgrid(np.arange(32), np.arange(32), indexing="ij")
    want = np.exp(-0.5 * ((i - j) / 5.0) ** 2)
    np.testing.assert_allclose(gram, want, atol=1e-12)


def test_gram_add_multiply_oracle():
    rbf = G.KernelAtom("rbf", (3.0,))
    const = G.KernelAtom("constant", (2.0,))
    k_rbf = G.gram_matrix(G.KernelComposition([rbf], []), 16)
    added = G.gram_matrix(G.KernelComposition([rbf, const], ["add"]), 16)
    scaled = G.gram_matrix(G.KernelComposition([rbf, const], ["multiply"]), 16)
    np.testing.assert_allclose(added, k_rbf + 2.0, atol=1e-12)
    np.testing.assert_allclose(scaled, k_rbf * 2.0, atol=1e-12)


def test_periodic_kernel_periodicity():
    comp = G.KernelComposition(
        [G.KernelAtom("exp_sine_squared", (8.0, 1.0))], [])
    gram = G.gram_matrix(comp, 64)
    np.testing.assert_allclose(gram[0, 8], 1.0, atol=1e-10)
    np.testing.assert_allclose(gram[0, 16], 1.0, atol=1e-10)


def test_compositions_stay_psd():
    rng = np.random.default_rng(1)
    for _ in range(200):
        comp = G.sample_kernel_composition(rng)
        gram = G.gram_matrix(comp, 24)
        assert np.allclose(gram, gram.T)
        assert np.linalg.eigvalsh(gram).min() >= -1e-8


def test_sample_gp_statistics():
    comp = G.KernelComposition([G.KernelAtom("constant", (1.0,)),
                                G.KernelAtom("white_noise", (1.0,))], ["add"])
    gram = G.gram_matrix(comp, 16)
    rng = np.random.default_rng(2)
    draws = np.stack([G.sample_gp(gram, rng) for _ in range(4000)])
    np.testing.assert_allclose(draws.var(axis=0), np.diag(gram),
                               rtol=0.1)


def test_sample_gp_handles_near_singular():
    # rank-1 constant kernel requires jitter escalation, not failure
    gram = np.ones((32, 32))
    x = G.sample_gp(gram, np.random.default_rng(3))
    assert np.isfinite(x).all()


def test_lcm_shape_and_mixing():
    cfg = G.LcmConfig(n_channels=6, series_length=64, series_count=1)
    out = G.sample_multivariate_lcm(cfg, np.random.default_rng(4))
    assert out.shape == (6, 64)
    assert np.isfinite(out).all()


def test_lcm_validation():
    with pytest.raises(ValueError):
        G.LcmConfig(n_channels=0)


def test_latent_count_respects_clip(monkeypatch):
    # one univariate draw per latent factor
    draws = []
    sample_univariate = G.sample_univariate

    def spy(rng, t):
        draws.append(t)
        return sample_univariate(rng, t)

    monkeypatch.setattr(G, "sample_univariate", spy)
    cfg = G.LcmConfig(n_channels=2, series_length=8)
    rng = np.random.default_rng(5)
    counts = set()
    for _ in range(200):
        before = len(draws)
        assert G.sample_multivariate_lcm(cfg, rng).shape == (2, 8)
        counts.add(len(draws) - before)
    # round(Weibull(1.5) * 4) is 0 about one time in 23 and above 10
    # about one time in 70, so 200 draws meet both ends of the clip
    assert (min(counts), max(counts)) == G.LATENT_CLIP


def test_dirichlet_rows_sum_to_one():
    rng = np.random.default_rng(6)
    for _ in range(50):
        alpha = rng.uniform(0.1, 1.0)
        w = rng.dirichlet(np.full(5, alpha), size=16)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-6)


# ---------------------------------------------------------------------------
# corpus plumbing


def small_cfg(n=20, t=48):
    return G.LcmConfig(n_channels=3, series_length=t, series_count=n)


def test_generate_corpus_round_trip(tmp_path):
    man = G.generate_corpus(small_cfg(), univariate=True,
                            out_dir=tmp_path / "c", seed=7, shard_size=8)
    assert man.shards == ["shard_00000.tsb", "shard_00001.tsb",
                          "shard_00002.tsb"]
    assert man.counts == [8, 8, 4]
    assert (tmp_path / "c" / "manifest.txt").read_bytes() == (
        b"series_length=48\ntrain_end=48\nchecksum=f1ca4c6f49e33ac8\n"
        b"seed=7\nn_channels=1\nconfig_digest=01fc790b49edaa0f\n"
        b"shard=shard_00000.tsb:8\nshard=shard_00001.tsb:8\n"
        b"shard=shard_00002.tsb:4\n")
    fields, data = tsb.read_dataset(tmp_path / "c")
    assert fields == man.fields
    assert data.shape == (20, 48)
    assert data.dtype == np.float32
    np.testing.assert_allclose(data.mean(axis=-1), 0.0, atol=1e-5)
    np.testing.assert_allclose(data.std(axis=-1), 1.0, atol=1e-3)


def test_corpus_bytes_independent_of_workers(tmp_path):
    cfg = small_cfg(n=12)
    G.generate_corpus(cfg, True, tmp_path / "a", n_workers=1, seed=9,
                      shard_size=4)
    G.generate_corpus(cfg, True, tmp_path / "b", n_workers=4, seed=9,
                      shard_size=4)
    for name in ["shard_00000.tsb", "shard_00001.tsb", "shard_00002.tsb"]:
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "manifest.txt").read_text() == \
           (tmp_path / "b" / "manifest.txt").read_text()


def test_corpus_seed_changes_bytes(tmp_path):
    cfg = small_cfg(n=4)
    G.generate_corpus(cfg, True, tmp_path / "a", seed=1)
    G.generate_corpus(cfg, True, tmp_path / "b", seed=2)
    assert (tmp_path / "a" / "shard_00000.tsb").read_bytes() != \
           (tmp_path / "b" / "shard_00000.tsb").read_bytes()


def test_multivariate_corpus_shape(tmp_path):
    cfg = G.LcmConfig(n_channels=3, series_length=32, series_count=5)
    man = G.generate_corpus(cfg, univariate=False, out_dir=tmp_path / "m",
                            seed=3)
    fields, data = tsb.read_dataset(tmp_path / "m")
    assert data.shape == (5, 3, 32)
    assert fields["n_channels"] == man.fields["n_channels"] == "3"


# ---------------------------------------------------------------------------
# the lag-vector gram against the full-grid reference


def reference_atom_gram(atom, grid, t):
    """The full-grid evaluator: every atom on the T x T distance grid."""
    x = grid[:, None]
    dist = np.abs(x - grid[None, :])
    fam = atom.family
    if fam == "exp_sine_squared":
        period, ls = atom.params
        arg = np.sin(np.pi * dist / (period / t))
        val = np.exp(-2.0 * (arg / ls) ** 2)
    elif fam == "rbf":
        (ls,) = atom.params
        val = np.exp(-0.5 * (dist / (ls / t)) ** 2)
    elif fam == "rational_quadratic":
        ls, alpha = atom.params
        val = (1.0 + dist ** 2 / (2.0 * alpha * (ls / t) ** 2)) ** (-alpha)
    elif fam == "dot_product":
        (sigma0,) = atom.params
        val = sigma0 ** 2 + x * grid[None, :]
    elif fam == "white_noise":
        (level,) = atom.params
        val = level * np.eye(grid.shape[0])
    else:
        (value,) = atom.params
        val = np.full((grid.shape[0], grid.shape[0]), value)
    return val


def reference_gram(comp, t):
    grid = np.arange(t, dtype=np.float64) / t
    gram = reference_atom_gram(comp.atoms[0], grid, t)
    for op, atom in zip(comp.operators, comp.atoms[1:]):
        nxt = reference_atom_gram(atom, grid, t)
        gram = gram + nxt if op == "add" else gram * nxt
    return 0.5 * (gram + gram.T)


def sampled_compositions(n, seed):
    rng = np.random.default_rng(seed)
    comps = [G.sample_kernel_composition(rng) for _ in range(n)]
    families = [{a.family for a in c.atoms} for c in comps]
    # both the full-grid atom and the lag-0-only atom are covered
    assert any("dot_product" in f for f in families)
    assert any("white_noise" in f for f in families)
    return comps


@pytest.mark.parametrize("t", [16, 64, 512])
def test_gram_bitwise_equal_to_full_grid_reference(t):
    # with t a power of two, i/t - j/t is exactly (i - j)/t
    for comp in sampled_compositions(200, 20):
        got = G.gram_matrix(comp, t)
        assert got.tobytes() == reference_gram(comp, t).tobytes(), comp
        assert np.array_equal(got, got.T)


@pytest.mark.parametrize("t", [24, 336])
def test_gram_close_to_full_grid_reference(t):
    # otherwise lag k/t and i/t - j/t can differ by one ulp; the difference
    # is measured against the gram's largest entry
    for comp in sampled_compositions(200, 21):
        got = G.gram_matrix(comp, t)
        want = reference_gram(comp, t)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want), comp
        assert np.array_equal(got, got.T)


def test_sample_gp_leaves_gram_unchanged():
    gram = np.ones((32, 32))  # rank 1: the jitter must escalate
    before = gram.copy()
    G.sample_gp(gram, np.random.default_rng(3))
    assert np.array_equal(gram, before)


@pytest.mark.parametrize("atom", [G.KernelAtom("constant", (np.inf,)),
                                  G.KernelAtom("dot_product", (np.inf,))])
def test_non_finite_atom_raises(atom):
    rbf = G.KernelAtom("rbf", (2.0,))
    with pytest.raises(ValueError, match="non-finite"):
        G.gram_matrix(G.KernelComposition([rbf, atom], ["add"]), 16)


# ---------------------------------------------------------------------------
# golden bytes of the GP stream, recorded with numpy 2.4.6 on x86-64 with
# AVX-512 and one BLAS thread; float64 exp/sin and LAPACK Cholesky make them
# specific to the numpy build and CPU dispatch, and multi-threaded OpenBLAS
# blocks the T=512 Cholesky differently, so that case runs in a child process
# with BLAS pinned to one thread


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


GOLDEN_CORPUS_SCRIPT = """
import hashlib
from tsrepr import harness as H
cfg = H.RunConfig(synthetic_family="gp", corpus_series=8, corpus_length=512)
series = H._pretrain_corpus(cfg, 1).series
print(hashlib.sha256(series.tobytes()).hexdigest())
"""


def test_golden_pretrain_gp_corpus():
    src = str(Path(H.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", GOLDEN_CORPUS_SCRIPT],
                         env=env, capture_output=True, text=True, timeout=120,
                         check=True)
    assert out.stdout.strip() == (
        "0ba6323359bf8792c2c660b35b7e6ece29feef8b6ea11a64e488d350f3e69d20")


def test_golden_generate_corpus_shards(tmp_path):
    cfg = G.LcmConfig(series_length=64, series_count=12)
    G.generate_corpus(cfg, True, tmp_path, seed=5, shard_size=8)
    assert sha256((tmp_path / "shard_00000.tsb").read_bytes()) == (
        "24012d59157ba3d21dcae3e625727ce607cff19d71e7ba2b95b5a145429e86e4")
    assert sha256((tmp_path / "shard_00001.tsb").read_bytes()) == (
        "f8b53d3d59fe561e6b085c309682fd65c0b5eff2aa37660d2ac51404daf4e95f")
