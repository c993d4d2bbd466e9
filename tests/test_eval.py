"""Probing, forecasting metrics, anomaly pipeline, and exports."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from tsrepr import backbone as B, evaluate as E
from tsrepr.backbone import (BackboneConfig, encode, init_encoder,
                             instance_norm, weights_hash)
from tsrepr.tensor import ShapeError, Tensor

CFG = BackboneConfig(d_model=16, n_layers=1, n_heads=2, patch_len=8,
                     max_patches=8)


def make_backbone(seed=0):
    return init_encoder(CFG, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# forecast metrics


def test_forecast_metric_trivials():
    a = np.random.default_rng(0).standard_normal((5, 7))
    assert E.forecast_metrics(a, a) == (0.0, 0.0)
    mse, mae = E.forecast_metrics(a + 1.0, a)
    assert abs(mse - 1.0) < 1e-12 and abs(mae - 1.0) < 1e-12
    mse2, mae2 = E.forecast_metrics(np.array([[2.0, -2.0]]),
                                    np.array([[0.0, 0.0]]))
    assert mse2 == 4.0 and mae2 == 2.0


def test_forecast_metric_two_pass_reference():
    rng = np.random.default_rng(1)
    p, t = rng.standard_normal((64, 12)), rng.standard_normal((64, 12))
    mse, mae = E.forecast_metrics(p, t)
    acc_sq = acc_abs = 0.0
    for i, j in itertools.product(range(64), range(12)):
        acc_sq += (p[i, j] - t[i, j]) ** 2
        acc_abs += abs(p[i, j] - t[i, j])
    assert abs(mse - acc_sq / 768) < 1e-7
    assert abs(mae - acc_abs / 768) < 1e-7


def test_forecast_metric_errors():
    with pytest.raises(ShapeError):
        E.forecast_metrics(np.zeros((2, 3)), np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        E.forecast_metrics(np.zeros((0, 3)), np.zeros((0, 3)))


# ---------------------------------------------------------------------------
# thresholding


def test_percentile_threshold_flags_top_score():
    train = np.arange(1.0, 51.0)
    test = np.arange(51.0, 101.0)
    flags = E.threshold_by_percentile(train, test, 1.0)
    # 1..100 pooled: 99th-percentile cut keeps only the maximum
    assert flags.sum() == 1 and flags[-1]


def test_percentile_threshold_tie_inclusive():
    train = np.zeros(90)
    test = np.full(10, 5.0)
    flags = E.threshold_by_percentile(train, test, 5.0)
    assert flags.all()  # every tied score at the threshold is flagged


def test_percentile_threshold_fraction():
    rng = np.random.default_rng(2)
    pool = rng.standard_normal(10_000)
    train, test = pool[:5000], pool[5000:]
    for p in (0.5, 1.0, 5.0):
        n_total = (np.concatenate([train, test]) >=
                   np.quantile(pool, 1 - p / 100)).sum()
        want = int(round(p / 100 * 10_000))
        assert abs(n_total - want) <= 1
        flags = E.threshold_by_percentile(train, test, p)
        assert 0 < flags.sum() <= n_total


def test_percentile_threshold_errors():
    with pytest.raises(ValueError):
        E.threshold_by_percentile(np.ones(5), np.ones(5), 0.0)
    with pytest.raises(ShapeError):
        E.threshold_by_percentile(np.ones(0), np.ones(5), 1.0)


# ---------------------------------------------------------------------------
# point adjustment


def point_adjust_oracle(preds, labels):
    out = list(preds)
    for start in range(len(labels)):
        if labels[start] and (start == 0 or not labels[start - 1]):
            end = start
            while end < len(labels) and labels[end]:
                end += 1
            if any(preds[start:end]):
                for k in range(start, end):
                    out[k] = True
    return np.array(out, dtype=bool)


def test_point_adjust_hand_cases():
    np.testing.assert_array_equal(
        E.point_adjust(np.array([0, 1, 0], bool), np.array([1, 1, 1], bool)),
        [True, True, True])
    np.testing.assert_array_equal(
        E.point_adjust(np.array([0, 0, 0], bool), np.array([1, 1, 0], bool)),
        [False, False, False])
    # labels all zero: predictions unchanged
    preds = np.array([1, 0, 1], bool)
    np.testing.assert_array_equal(
        E.point_adjust(preds, np.zeros(3, bool)), preds)
    # two segments, only the hit one fills
    np.testing.assert_array_equal(
        E.point_adjust(np.array([0, 1, 0, 0, 0, 0], bool),
                       np.array([1, 1, 0, 0, 1, 1], bool)),
        [True, True, False, False, False, False])


def test_point_adjust_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        preds = rng.random(n) < 0.3
        labels = rng.random(n) < 0.4
        np.testing.assert_array_equal(E.point_adjust(preds, labels),
                                      point_adjust_oracle(preds, labels))


def test_point_adjust_never_decreases_f1():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(5, 60))
        preds = rng.random(n) < 0.25
        labels = rng.random(n) < 0.35
        _, _, before = E.f1_score(preds, labels)
        _, _, after = E.f1_score(E.point_adjust(preds, labels), labels)
        assert after >= before - 1e-12


def test_point_adjust_shape_error():
    with pytest.raises(ShapeError):
        E.point_adjust(np.zeros(3, bool), np.zeros(4, bool))


# ---------------------------------------------------------------------------
# F1


def test_f1_hand_case():
    preds = np.array([1, 1, 1, 0, 0], bool)
    labels = np.array([1, 1, 0, 1, 0], bool)
    precision, recall, f1 = E.f1_score(preds, labels)
    assert abs(precision - 2 / 3) < 1e-12
    assert abs(recall - 2 / 3) < 1e-12
    assert abs(f1 - 2 / 3) < 1e-12


def test_f1_degenerate_conventions():
    zeros = np.zeros(4, bool)
    assert E.f1_score(zeros, zeros) == (0.0, 0.0, 0.0)
    assert E.f1_score(np.ones(4, bool), zeros)[2] == 0.0
    assert E.f1_score(zeros, np.ones(4, bool))[2] == 0.0


# ---------------------------------------------------------------------------
# probes


def toy_classification(n=160, t=64, seed=5):
    """Two classes separated by a large constant offset."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    x = rng.standard_normal((n, t)).astype(np.float32)
    ramp = np.linspace(-1, 1, t, dtype=np.float32)
    x += np.where(y[:, None] == 1, ramp, -ramp) * 8.0
    return x, y


def test_linear_probe_separable_through_random_backbone():
    w = make_backbone()
    x, y = toy_classification()
    spec = E.ProbeSpec(mode="linear", task="classify", epochs=80,
                       lrs=(1e-2,), seed=1)
    res = E.probe_train(w, CFG, spec, x, y)
    acc = E.classify_head_eval(w, CFG, res.head, spec, x, y)
    assert acc > 0.95


def test_frozen_probe_leaves_backbone_untouched():
    w = make_backbone()
    before = weights_hash(w)
    x, y = toy_classification(n=40)
    E.probe_train(w, CFG, E.ProbeSpec(task="classify", epochs=2), x, y)
    assert weights_hash(w) == before


def test_finetune_updates_backbone():
    # fine-tuning trains a copy: the caller's weights stay put, so every
    # grid lr and task starts from the same backbone
    w = make_backbone()
    before = weights_hash(w)
    x, y = toy_classification(n=40)
    res = E.probe_train(w, CFG, E.ProbeSpec(mode="finetune", task="classify",
                                            epochs=2, batch_size=16), x, y)
    assert weights_hash(res.backbone) != before
    assert weights_hash(w) == before


def test_probe_reads_caller_arrays_through_read_only_views(monkeypatch):
    # a probe sees read-only views: a write raises, a rebinding stays in
    # the probe, and the caller's dict, arrays and flags are never touched
    w = make_backbone()
    w["pos.alias"] = Tensor(w["pos"].data, _check=False)  # same array
    w["pos.view"] = Tensor(w["pos"].data[:2], _check=False)
    w["embed.b"].data.flags.writeable = False  # read-only before the call
    tensors = {k: (t, t.data, t.data.flags.writeable) for k, t in w.items()}
    before = weights_hash(w)
    x, y = toy_classification(n=40)
    spec = E.ProbeSpec(task="classify", epochs=1)

    def unchanged():
        assert w.keys() == tensors.keys()
        for k, (t, data, flag) in tensors.items():
            assert w[k] is t and t.data is data, k
            assert data.flags.writeable == flag, k
        assert weights_hash(w) == before

    E.probe_train(w, CFG, spec, x, y)
    unchanged()

    real = E.frozen_features

    def writes(weights, *args):
        weights["layer0.ffn.w1"].data[0, 0] += 1.0
        return real(weights, *args)

    monkeypatch.setattr(E, "frozen_features", writes)
    with pytest.raises(ValueError, match="read-only"):
        E.probe_train(w, CFG, spec, x, y)
    unchanged()

    def rebinds(weights, *args):
        weights["pos"].data = weights["pos"].data + 1.0
        weights["embed.b"] = Tensor(np.ones_like(weights["embed.b"].data))
        return real(weights, *args)

    monkeypatch.setattr(E, "frozen_features", rebinds)
    E.probe_train(w, CFG, spec, x, y)
    unchanged()


@pytest.mark.parametrize("mode", ["linear", "finetune"])
def test_probe_does_not_hash_weights(monkeypatch, mode):
    calls = []

    def spy(weights):
        calls.append(len(weights))
        return ""

    monkeypatch.setattr(B, "weights_hash", spy)
    monkeypatch.setattr(E, "weights_hash", spy, raising=False)
    x, y = toy_classification(n=40)
    E.probe_train(make_backbone(), CFG,
                  E.ProbeSpec(mode=mode, task="classify", epochs=1), x, y)
    assert calls == []


def test_finetune_returns_best_epoch_backbone():
    # at this lr the validation loss bottoms out before the last epoch; the
    # returned backbone and head must together score that best validation
    w = make_backbone()
    x, y = toy_classification(n=40)
    spec = E.ProbeSpec(mode="finetune", task="classify", epochs=6,
                       batch_size=16, lrs=(0.03,))
    res = E.probe_train(w, CFG, spec, x, y)
    vals = [h["val_loss"] for h in res.history]
    assert int(np.argmin(vals)) < len(vals) - 1
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 31)))
    val_idx = rng.permutation(len(x))[: round(E.VAL_FRACTION * len(x))]
    logits = E.predict_head(res.backbone, CFG, res.head, spec,
                            x[val_idx]).astype(np.float64)
    logp = logits - logits.max(axis=1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
    ce = -logp[np.arange(len(val_idx)), y[val_idx]].mean()
    assert abs(ce - res.best_val) / res.best_val < 1e-4


def test_uniform_random_classifier_accuracy():
    # argmax of seeded random logits over 4 balanced classes: 0.25 +- 0.02
    rng = np.random.default_rng(6)
    logits = rng.standard_normal((10_000, 4))
    labels = rng.integers(0, 4, size=10_000)
    acc = float(np.mean(np.argmax(logits, axis=1) == labels))
    assert abs(acc - 0.25) < 0.02


def test_accuracy_scale_invariance():
    w = make_backbone()
    x, y = toy_classification(n=40)
    spec = E.ProbeSpec(task="classify", epochs=2)
    res = E.probe_train(w, CFG, spec, x, y)
    acc1 = E.classify_head_eval(w, CFG, res.head, spec, x, y)
    for t in res.head.values():
        t.data *= 7.0  # positive rescale of logits cannot change argmax
    acc2 = E.classify_head_eval(w, CFG, res.head, spec, x, y)
    assert acc1 == acc2


def test_single_sample_accuracy_binary():
    w = make_backbone()
    x, y = toy_classification(n=40)
    spec = E.ProbeSpec(task="classify", epochs=1)
    res = E.probe_train(w, CFG, spec, x, y)
    acc = E.classify_head_eval(w, CFG, res.head, spec, x[:1], y[:1])
    assert acc in (0.0, 1.0)


def test_unseen_class_rejected():
    w = make_backbone()
    x, y = toy_classification(n=40)
    spec = E.ProbeSpec(task="classify", epochs=1)
    res = E.probe_train(w, CFG, spec, x, y)
    with pytest.raises(ShapeError):
        E.classify_head_eval(w, CFG, res.head, spec, x[:4],
                             np.array([0, 1, 2, 0]))


def test_probe_input_validation():
    w = make_backbone()
    with pytest.raises(ShapeError):
        E.probe_train(w, CFG, E.ProbeSpec(task="classify"),
                      np.zeros((3, 64), np.float32), np.zeros(4, int))
    with pytest.raises(ValueError):
        E.ProbeSpec(mode="zero-shot")
    with pytest.raises(ValueError):
        E.ProbeSpec(task="imputation")


@pytest.mark.parametrize("kwargs", [
    {"epochs": 0}, {"batch_size": 0}, {"batch_size": -4},
    {"lrs": (float("nan"),)}, {"lrs": (-1.0,)}, {"lrs": (0.0,)},
    {"lrs": (1e-3, float("inf"))}],
    ids=["epochs_0", "batch_0", "batch_neg", "lr_nan", "lr_neg", "lr_0",
         "lr_inf"])
def test_probe_spec_rejects_untrainable_settings(kwargs):
    # unchecked, epochs=0 returned an untrained head with best_val inf,
    # batch_size=0 failed inside range(), a nan rate left the head
    # untrained and a negative one trained uphill
    with pytest.raises(ValueError):
        E.ProbeSpec(task="classify", **kwargs)


def test_forecast_probe_learns_constant_map():
    # predicting the window mean of a smooth series should beat the zero head
    rng = np.random.default_rng(7)
    n, t, h = 120, 64, 8
    phase = rng.uniform(0, 2 * np.pi, n)
    grid = np.arange(t + h)
    series = np.sin(0.3 * grid[None, :] + phase[:, None]).astype(np.float32)
    x, y = series[:, :t], series[:, t:]
    # targets in the same normalized frame the head predicts in
    mu = x.mean(axis=1, keepdims=True)
    sd = x.std(axis=1, keepdims=True) + 1e-8
    yn = ((y - mu) / sd).astype(np.float32)
    w = make_backbone()
    spec = E.ProbeSpec(mode="linear", task="forecast", epochs=60,
                       lrs=(1e-2,), seed=2)
    res = E.probe_train(w, CFG, spec, x, yn)
    preds = E.predict_head(w, CFG, res.head, spec, x)
    mse, _ = E.forecast_metrics(preds, yn)
    zero_mse, _ = E.forecast_metrics(np.zeros_like(yn), yn)
    assert mse < 0.5 * zero_mse


def probe_targets(task, x, labels):
    n_p = x.shape[1] // CFG.patch_len
    return {"classify": labels,
            "forecast": x[:, :4] * 0.1,
            "anomaly": instance_norm(x)[0].reshape(len(x), n_p, CFG.patch_len),
            }[task]


@pytest.mark.parametrize("mode", ["linear", "mlp", "finetune"])
@pytest.mark.parametrize("task", ["classify", "forecast", "anomaly"])
def test_probe_train_shared_features_bitwise(monkeypatch, mode, task):
    # a grid call encodes a frozen backbone once for all its lrs, yet trains
    # the heads the single-lr calls train, bit for bit, and returns the one
    # with the lowest best_val
    monkeypatch.setattr(E, "HIDDEN", 32)
    w = make_backbone()
    x, labels = toy_classification(n=40)
    y = probe_targets(task, x, labels)
    lrs = (3e-3, 1e-2, 3e-2)
    spec = E.ProbeSpec(mode=mode, task=task, epochs=3, batch_size=16,
                       seed=4, lrs=lrs)
    singles = [E.probe_train(w, CFG, replace(spec, lrs=(lr,)), x, y)
               for lr in lrs]
    ref = min(singles, key=lambda r: r.best_val)
    got = E.probe_train(w, CFG, spec, x, y)
    assert got.best_val == ref.best_val
    assert got.history == ref.history
    for name, want in (("head", ref.head), ("backbone", ref.backbone)):
        have = getattr(got, name)
        assert have.keys() == want.keys()
        for k in want:
            assert have[k].data.tobytes() == want[k].data.tobytes(), (name, k)
    # a frozen mode returns read-only views of the caller's arrays, a
    # fine-tune writable copies
    assert got.backbone.keys() == w.keys()
    frozen = mode != "finetune"
    for k, t in got.backbone.items():
        assert np.shares_memory(t.data, w[k].data) == frozen, k
        assert t.data.flags.writeable != frozen, k


def test_probe_default_lr_is_per_task():
    w = make_backbone()
    x, labels = toy_classification(n=40)
    for task, lr in E.DEFAULT_LR.items():
        y = probe_targets(task, x, labels)
        spec = E.ProbeSpec(task=task, epochs=2, seed=1)
        got = E.probe_train(w, CFG, spec, x, y)
        ref = E.probe_train(w, CFG, replace(spec, lrs=(lr,)), x, y)
        assert got.history == ref.history


@pytest.mark.parametrize("d", [32, 256])
@pytest.mark.parametrize("n_patches", [1, 6, 8, 21, 32])
def test_encode_tiles_match_one_encode(monkeypatch, d, n_patches):
    # chunks of about TILE FFN activations, never under 8 token rows
    # unless the whole input is, give the bits of one encode of the stack
    cfg = BackboneConfig(d_model=d, n_layers=2, n_heads=4, patch_len=4,
                         max_patches=32)
    rng = np.random.default_rng(d + n_patches)
    w = init_encoder(cfg, rng)
    chunk = max(1, E.TILE // (n_patches * cfg.ffn_ratio * d))
    sizes = []

    def spy(windows, *args):
        sizes.append(windows.shape[0])
        return encode(windows, *args)

    monkeypatch.setattr(E, "encode", spy)
    for n in sorted({1, max(1, chunk - 1), chunk, chunk + 1, 3 * chunk + 1}):
        x = rng.standard_normal((n, n_patches * cfg.patch_len)
                                ).astype(np.float32)
        sizes.clear()
        got = E._encode_batched(x, w, cfg)
        whole = encode(x, w, cfg).data
        assert got.tobytes() == whole.tobytes(), n
        assert sum(sizes) == n and set(sizes[:-1]) <= {chunk}
        assert min(sizes) * n_patches >= min(E.MIN_ROWS, n * n_patches)


# ---------------------------------------------------------------------------
# anomaly pipeline


def anomaly_scores_per_window(weights, cfg, head, series):
    """Reference: one instance norm, encode and head forward per window."""
    series = np.asarray(series, dtype=np.float32)
    win = cfg.patch_len * min(cfg.max_patches, 32)
    t = series.shape[0]
    scores = np.zeros(t, dtype=np.float64)
    starts = list(range(0, max(t - win + 1, 1), win))
    if t > win and starts[-1] + win < t:
        starts.append(t - win)
    covered = np.zeros(t, dtype=bool)
    for s in starts:
        chunk = series[s : s + win]
        usable = (chunk.shape[0] // cfg.patch_len) * cfg.patch_len
        if usable == 0:
            continue
        chunk = chunk[:usable]
        xn, _, _ = instance_norm(chunk[None, :])
        lat = encode(xn, weights, cfg).data[0]  # (N, d)
        recon = E._head_forward(head, Tensor(lat, _check=False)).data
        err = (recon.reshape(-1) - xn[0]) ** 2
        sl = slice(s, s + usable)
        new = ~covered[sl]
        scores[sl][new] = err[new]
        covered[sl] = True
    return scores


@pytest.mark.parametrize("d", [32, 256])
@pytest.mark.parametrize("t", [10, 300, 1000, 4096, 6144])
@pytest.mark.parametrize("mode", ["linear", "mlp"])
def test_anomaly_scores_match_per_window_reference(monkeypatch, d, t, mode):
    # one batched encode over all windows, the right-aligned tail included,
    # gives the bits of one encode per window
    monkeypatch.setattr(E, "HIDDEN", 64)
    cfg = BackboneConfig(d_model=d, n_layers=2, n_heads=4, patch_len=16,
                         max_patches=64)
    rng = np.random.default_rng(t + d)
    w = init_encoder(cfg, rng)
    spec = E.ProbeSpec(mode=mode, task="anomaly")
    head = E._init_head(spec, d, cfg.patch_len, rng)
    series = (np.sin(np.arange(t) * 0.05) + 0.3 * rng.standard_normal(t)
              ).astype(np.float32)
    got = E.anomaly_scores(w, cfg, head, series)
    ref = anomaly_scores_per_window(w, cfg, head, series)
    assert got.tobytes() == ref.tobytes()


def test_anomaly_scores_cover_series_and_localize():
    rng = np.random.default_rng(8)
    w = make_backbone()
    t = CFG.patch_len * CFG.max_patches * 3 + 11  # partial tail window
    base = np.sin(np.arange(t) * 0.2).astype(np.float32)
    x_train = np.stack([base[: CFG.patch_len * CFG.max_patches]
                        for _ in range(8)])
    n_p = x_train.shape[1] // CFG.patch_len
    targets = E.instance_norm(x_train)[0].reshape(8, n_p, CFG.patch_len)
    spec = E.ProbeSpec(mode="linear", task="anomaly", epochs=30, seed=3)
    res = E.probe_train(w, CFG, spec, x_train, targets)
    clean = E.anomaly_scores(w, CFG, res.head, base)
    assert clean.shape == (t,)
    assert np.isfinite(clean).all() and (clean >= 0).all()
    corrupted = base.copy()
    corrupted[200] += 30.0
    scores = E.anomaly_scores(w, CFG, res.head, corrupted)
    assert abs(int(np.argmax(scores)) - 200) <= CFG.patch_len
