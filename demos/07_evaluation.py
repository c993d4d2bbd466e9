"""Frozen-backbone evaluation: linear probes for classification and
reconstruction-based anomaly scoring with point-adjusted F1.

The backbone is never updated during probing; only a small head trains on
top of frozen features, so every objective is compared on equal footing.
"""

import numpy as np

from tsrepr import evaluate as E
from tsrepr import harness as H
from tsrepr.backbone import BackboneConfig, init_encoder, weights_hash


def main():
    bb = BackboneConfig(d_model=32, n_layers=2, n_heads=4, patch_len=16,
                        max_patches=8)
    weights = init_encoder(bb, np.random.default_rng(0))
    before = weights_hash(weights)

    # classification: linear probe on mean-pooled latents
    rng = np.random.default_rng(1)
    x, y = H.toy_classification(rng, n_per_class=40, length=128)
    spec = E.ProbeSpec(mode="linear", task="classify", epochs=10, seed=0)
    res = E.probe_train(weights, bb, spec, x[:100], y[:100])
    acc = E.classify_head_eval(weights, bb, res.head, spec, x[100:], y[100:])
    print(f"probe accuracy: {acc:.3f} (best val loss {res.best_val:.3f})")
    print("backbone untouched:", weights_hash(weights) == before)

    # anomaly: per-point reconstruction error -> percentile threshold ->
    # point adjustment -> F1
    train, test, labels = H.toy_anomaly(np.random.default_rng(2),
                                        train_len=2048, test_len=2048,
                                        n_segments=5)
    aspec = E.ProbeSpec(mode="linear", task="anomaly", epochs=10, seed=0)
    win = bb.patch_len * bb.max_patches
    xw = train[: (len(train) // win) * win].reshape(-1, win)
    from tsrepr.backbone import instance_norm
    xn, _, _ = instance_norm(xw)
    ares = E.probe_train(weights, bb, aspec, xw,
                         xn.reshape(len(xw), -1, bb.patch_len))
    s_train = E.anomaly_scores(weights, bb, ares.head, train)
    s_test = E.anomaly_scores(weights, bb, ares.head, test)
    preds = E.threshold_by_percentile(s_train, s_test, percentile=2.0)
    adjusted = E.point_adjust(preds, labels)
    p, r, f1 = E.f1_score(adjusted, labels)
    print(f"anomaly precision {p:.3f} recall {r:.3f} f1 {f1:.3f}")


if __name__ == "__main__":
    main()
