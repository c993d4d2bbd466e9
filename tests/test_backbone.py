"""Patch-Transformer encoder: shapes, masking, causality, EMA, checkpoints."""

import numpy as np
import pytest

from tsrepr import backbone as B
from tsrepr.tensor import ShapeError

CFG = B.BackboneConfig(d_model=32, n_layers=2, n_heads=4, patch_len=8,
                       max_patches=16, n_predictor_layers=1)
RNG = np.random.default_rng(0)


def make_weights(cfg=CFG, seed=0):
    return B.init_encoder(cfg, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# plumbing


def test_default_head_counts():
    assert B.BackboneConfig(d_model=128).n_heads == 16
    assert B.BackboneConfig(d_model=256).n_heads == 8
    with pytest.raises(ValueError):
        B.BackboneConfig(d_model=100, n_heads=7)


@pytest.mark.parametrize("field", ["patch_len", "d_model", "n_heads",
                                   "n_layers", "n_predictor_layers",
                                   "max_patches", "ffn_ratio"])
@pytest.mark.parametrize("value", [0, -1])
def test_integer_fields_must_be_positive(field, value):
    # n_heads=0 used to raise ZeroDivisionError in the divisibility test,
    # and d_model=0 or max_patches=0 were accepted
    with pytest.raises(ValueError, match=field):
        B.BackboneConfig(**{field: value})


def test_instance_norm_moments():
    x = RNG.standard_normal((4, 64)).astype(np.float32) * 5 + 3
    normed, mu, sigma = B.instance_norm(x)
    np.testing.assert_allclose(normed.mean(axis=1), 0, atol=1e-5)
    np.testing.assert_allclose(normed.std(axis=1), 1, atol=1e-3)
    np.testing.assert_allclose(normed * sigma + mu, x, rtol=1e-4, atol=1e-4)


def test_from_windows_cuts_patches():
    x = np.arange(2 * 19, dtype=np.float64).reshape(2, 19)
    pb = B.patchify(x, 8)  # trailing 3 samples dropped
    assert pb.shape == (2, 2, 8) and pb.dtype == np.float32
    np.testing.assert_array_equal(pb[1, 1], x[1, 8:16])
    with pytest.raises(ShapeError):
        B.patchify(x[:, :7], 8)


# ---------------------------------------------------------------------------
# encoding


def batch(b=2, n=4, cfg=CFG, seed=1):
    """(b, n * patch_len) windows of n patches each."""
    vals = np.random.default_rng(seed).standard_normal(
        (b, n, cfg.patch_len)).astype(np.float32)
    return vals.reshape(b, n * cfg.patch_len)


def test_encode_shape_and_determinism():
    w = make_weights()
    out1 = B.encode(batch(), w, CFG).data
    out2 = B.encode(batch(), w, CFG).data
    assert out1.shape == (2, 4, CFG.d_model)
    assert out1.tobytes() == out2.tobytes()


def test_batch_permutation_no_cross_sample_leakage():
    w = make_weights()
    pb = batch(b=4)
    out = B.encode(pb, w, CFG).data
    perm = np.array([2, 0, 3, 1])
    out_p = B.encode(pb[perm], w, CFG).data
    np.testing.assert_allclose(out_p, out[perm], atol=1e-5)


def test_causal_no_future_leakage():
    cfg = B.BackboneConfig(d_model=32, n_layers=2, n_heads=4, patch_len=8,
                           max_patches=16, causal=True)
    w = make_weights(cfg)
    pb = batch(b=1, cfg=cfg)
    base = B.encode(pb, w, cfg).data.copy()
    vals = pb.copy()
    p = cfg.patch_len
    vals[0, 2 * p : 3 * p] += 1.0  # patch 2; positions 0,1 must not move
    out = B.encode(vals, w, cfg).data
    np.testing.assert_array_equal(out[0, :2], base[0, :2])
    assert np.abs(out[0, 2:] - base[0, 2:]).max() > 1e-6


def test_noncausal_sees_future():
    w = make_weights()
    pb = batch(b=1)
    base = B.encode(pb, w, CFG).data.copy()
    vals = pb.copy()
    p = CFG.patch_len
    vals[0, 3 * p : 4 * p] += 1.0
    out = B.encode(vals, w, CFG).data
    assert np.abs(out[0, 0] - base[0, 0]).max() > 1e-7


def test_mask_token_replaces_embedding():
    w = make_weights()
    pb = batch(b=1, n=4)
    mask = np.zeros((1, 4), dtype=bool)
    mask[0, 1] = True
    out_m = B.encode(pb, w, CFG, patch_mask=mask).data
    vals = pb.copy()
    p = CFG.patch_len
    vals[0, p : 2 * p] = RNG.standard_normal(p)
    out_m2 = B.encode(vals, w, CFG, patch_mask=mask).data
    np.testing.assert_array_equal(out_m, out_m2)  # masked content irrelevant


def test_shape_validation():
    w = make_weights()
    with pytest.raises(ShapeError):
        B.encode(np.zeros((1, 99 * CFG.patch_len), np.float32), w, CFG)


def test_predictor_shape():
    from tsrepr.tensor import Tensor
    w = B.init_predictor(CFG, np.random.default_rng(3))
    lat = Tensor(RNG.standard_normal((2, 4, CFG.d_model)).astype(np.float32))
    out = B.run_predictor(lat, w, CFG)
    assert out.shape == (2, 4, CFG.d_model)


# ---------------------------------------------------------------------------
# EMA


def test_ema_limits_and_contraction():
    t = make_weights(seed=1)
    s = make_weights(seed=2)
    t1 = B.clone_weights(t)
    B.ema_update(t1, s, 1.0)
    assert B.weights_hash(t1) == B.weights_hash(t)  # momentum 1: unchanged
    t0 = B.clone_weights(t)
    B.ema_update(t0, s, 0.0)
    assert B.weights_hash(t0) == B.weights_hash(s)  # momentum 0: copy
    # geometric contraction toward the fixed student
    tc = B.clone_weights(t)
    d_prev = None
    for _ in range(5):
        B.ema_update(tc, s, 0.9)
        d = max(np.abs(tc[k].data - s[k].data).max() for k in tc)
        if d_prev is not None:
            assert d <= 0.9 * d_prev + 1e-6
        d_prev = d


def test_ema_validation():
    t, s = make_weights(seed=1), make_weights(seed=2)
    with pytest.raises(ValueError):
        B.ema_update(t, s, 1.5)
    s2 = dict(s)
    s2.pop("pos")
    with pytest.raises(ShapeError):
        B.ema_update(t, s2, 0.5)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_bit_identical_outputs(tmp_path):
    cfg = B.BackboneConfig(d_model=256, n_layers=8, patch_len=16,
                           max_patches=24)
    w = B.init_encoder(cfg, np.random.default_rng(5))
    pb = np.random.default_rng(6).standard_normal(
        (1, 4, 16)).astype(np.float32).reshape(1, 64)
    before = B.encode(pb, w, cfg).data
    path = tmp_path / "bb.tsbc"
    B.save_backbone(path, w, cfg, objective="mae", seed=9)
    w2, cfg2, header = B.load_backbone(path)
    assert header["objective"] == "mae" and header["seed"] == 9
    assert cfg2 == cfg
    after = B.encode(pb, w2, cfg2).data
    assert before.tobytes() == after.tobytes()
    assert B.weights_hash(w) == B.weights_hash(w2)
