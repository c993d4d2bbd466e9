"""End-to-end acceptance checks, one test per shipped criterion.

Each test prints a single PASS/FAIL line so the suite doubles as a
checklist: ``pytest tests/test_acceptance.py -s`` gives ten lines.
"""

import time

import numpy as np

from tsrepr import augment as A
from tsrepr import evaluate as E
from tsrepr import harness as H
from tsrepr import objectives as O
from tsrepr import sigreg as S
from tsrepr import synthgen as G
from tsrepr import tensor as T
from tsrepr.backbone import (
    BackboneConfig,
    encode,
    instance_norm,
    weights_hash,
)
from tsrepr.tensor import Tape, backward

BB = BackboneConfig(d_model=32, n_layers=2, n_heads=4, patch_len=16,
                    max_patches=8)


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion {criterion:2d}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. all six objective losses agree with central finite differences


def test_criterion_01_six_loss_gradient_check():
    t0 = time.time()
    batch = np.random.default_rng(1).standard_normal((4, 128)).astype(
        np.float32)
    eps = 1e-3
    worst_overall = 0.0
    per_objective = {}
    for objective in O.OBJECTIVES:
        pcfg = O.PretrainConfig(objective=objective, backbone=BB,
                                sigreg_projections=8, dino_prototypes=32)
        state = O.ObjectiveState(pcfg, np.random.default_rng(0))

        def loss_value():
            if state.center is not None:
                state.center[:] = 0.0  # EMA center mutates between calls
            return O.compute_loss(state, batch,
                                  np.random.default_rng(42), step=0).total

        with Tape():
            out = loss_value()
            backward(out)
        grads = {k: (v.grad.copy() if v.grad is not None
                     else np.zeros_like(v.data))
                 for k, v in state.trainable().items()}

        coord_rng = np.random.default_rng(7)
        worst = 0.0
        for k, v in state.trainable().items():
            flat = v.data.reshape(-1)
            idxs = coord_rng.choice(flat.size, size=min(6, flat.size),
                                    replace=False)
            for i in idxs:
                orig = flat[i]
                flat[i] = np.float32(orig + eps)
                step_up = float(flat[i]) - float(orig)
                up = loss_value()
                fp = up.hi if up.hi is not None else float(up.data)
                flat[i] = np.float32(orig - eps)
                step_dn = float(orig) - float(flat[i])
                dn = loss_value()
                fm = dn.hi if dn.hi is not None else float(dn.data)
                flat[i] = orig
                fd = (fp - fm) / (step_up + step_dn)
                auto = grads[k].reshape(-1)[i]
                worst = max(worst, abs(auto - fd) / max(1.0, abs(fd)))
        per_objective[objective] = worst
        worst_overall = max(worst_overall, worst)
    elapsed = time.time() - t0
    _report(1, worst_overall < 1e-2 and elapsed < 300,
            f"max FD rel err {worst_overall:.2e} < 1e-2 over "
            f"{len(per_objective)} objectives in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 2. DWT perfect reconstruction and view construction vs pyramid oracles


def test_criterion_02_dwt_reconstruction_and_views():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        order = int(rng.integers(1, 9))
        level = int(rng.integers(1, 5))
        n = 16 * (2 ** level)
        x = rng.standard_normal(n)
        back = A.dwt_inverse(A.dwt_forward(x, level, f"db{order}"))
        worst = max(worst, float(np.abs(back - x).max()))

    # teacher view: soft-threshold every detail band at the MAD-derived tau
    x = rng.standard_normal(128)
    pyr = A.dwt_forward(x, 3, "db4")
    teacher = A.teacher_view(pyr).tobytes()
    tau = 0.3 * np.median(np.abs(pyr.details[-1])) / 0.6745
    pyr.details = [A.soft_threshold(d, tau) for d in pyr.details]
    teacher_exact = (teacher
                     == A.dwt_inverse(pyr).astype(np.float32).tobytes())

    # student view as lejepa and dino train on it: per row, an amplitude
    # u ~ U[0.1, 0.3), then U[-u, u] noise on each detail band, coarsest
    # first, all drawn from the one rng
    y = rng.standard_normal((3, 64)).astype(np.float32)
    spyr = A.dwt_forward(y, 3, "db4")
    replay = np.random.default_rng(0)
    for i in range(y.shape[0]):
        amp = replay.uniform(0.1, 0.3)
        for d in spyr.details:
            d[i] += replay.uniform(-amp, amp, size=d.shape[-1])
    student = A.make_view_pair(y, np.random.default_rng(0)).student_view
    student_exact = (student.tobytes()
                     == A.dwt_inverse(spyr).astype(np.float32).tobytes())

    _report(2, worst < 1e-6 and teacher_exact and student_exact,
            f"100-signal PR err {worst:.1e} < 1e-6; teacher/student views "
            f"match pyramid oracles bitwise")


# ---------------------------------------------------------------------------
# 3. SIGReg statistic separates non-Gaussian clouds; gradient is correct


def test_criterion_03_sigreg_separation_and_gradient():
    m = 256  # random projection directions
    hits_shift = hits_scale = 0
    for seed in range(20):
        rng = np.random.default_rng(500 + seed)
        z = rng.standard_normal((4096, 16)).astype(np.float32)
        base = float(S.epps_pulley_statistic(z, m, step=seed).data)
        shifted = z + 3.0
        scaled = z.copy()
        scaled[:, 0] *= 3.0
        if float(S.epps_pulley_statistic(shifted, m, step=seed).data) > base:
            hits_shift += 1
        if float(S.epps_pulley_statistic(scaled, m, step=seed).data) > base:
            hits_scale += 1

    z0 = np.random.default_rng(6).standard_normal((8, 4)).astype(np.float32)
    err = T.grad_check(lambda z: S.epps_pulley_statistic(z, 4, step=0),
                       T.Tensor(z0, requires_grad=True), epsilon=1e-2)
    _report(3, hits_shift == 20 and hits_scale == 20 and err < 1e-2,
            f"shift {hits_shift}/20, coord-scale {hits_scale}/20 separations; "
            f"grad FD rel err {err:.2e} < 1e-2")


# ---------------------------------------------------------------------------
# 4. Le-JEPA: SIGReg weight controls embedding collapse


def _lejepa_embedding_std(lam: float) -> float:
    corpus = O.ArrayCorpus(np.random.default_rng(0)
                           .standard_normal((500, 256)).astype(np.float32))
    cfg = O.PretrainConfig(objective="lejepa", epochs=10, batch_size=32,
                           steps_per_epoch=20, window_len=128, seed=2003,
                           backbone=BB, lejepa_lambda=lam,
                           sigreg_projections=64, lr=0.025)
    res = O.pretrain(corpus, cfg)
    x = corpus.sample_windows(np.random.default_rng(99), 128, 128)
    xn, _, _ = instance_norm(x)
    lat = encode(xn, res.state.encoder, res.state.cfg).data.mean(axis=1)
    return float(lat.std(axis=0).mean())


def test_criterion_04_lejepa_collapse_control():
    t0 = time.time()
    with_reg = _lejepa_embedding_std(0.008)
    without = _lejepa_embedding_std(0.0)
    elapsed = time.time() - t0
    _report(4, with_reg > 0.1 and without < 0.01 and elapsed < 600,
            f"per-dim embedding std {with_reg:.3f} > 0.1 with SIGReg, "
            f"{without:.4f} < 0.01 without, in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 5. every objective trains: loss halves, deterministic, teachers frozen


def test_criterion_05_all_objectives_train():
    corpus = O.ArrayCorpus(H.toy_pretrain_corpus(np.random.default_rng(0),
                                                 100, 256))
    settings = {"mae": {}, "jepa": {}, "lejepa": {},
                "ntp": {"lr": 2e-3}, "diffusion": {"lr": 2e-3},
                "dino": {"lr": 1e-3, "ema": 0.9}}
    ratios = {}
    deterministic = True
    for name, kw in settings.items():
        pcfg = O.PretrainConfig(objective=name, epochs=20, batch_size=32,
                                steps_per_epoch=20, window_len=128, seed=2003,
                                lr=kw.get("lr"), backbone=BB,
                                ema_momentum=kw.get("ema", 0.996),
                                sigreg_projections=64, dino_prototypes=64)
        res = O.pretrain(corpus, pcfg)
        best = min(h["train_loss"] for h in res.history)
        ratios[name] = best / res.initial_loss
        rerun = O.pretrain(corpus, pcfg)
        deterministic &= (weights_hash(res.best_weights)
                          == weights_hash(rerun.best_weights))

    teachers_frozen = True
    batch = np.random.default_rng(1).standard_normal((4, 128)).astype(
        np.float32)
    for name in ("jepa", "dino"):
        pcfg = O.PretrainConfig(objective=name, backbone=BB,
                                dino_prototypes=32)
        state = O.ObjectiveState(pcfg, np.random.default_rng(0))
        with Tape():
            lb = O.compute_loss(state, batch, np.random.default_rng(8), 0)
            backward(lb.total)
        teachers_frozen &= all(t.grad is None for t in state.teacher.values())

    worst = max(ratios.values())
    _report(5, worst < 0.5 and deterministic and teachers_frozen,
            f"worst best/initial loss ratio {worst:.3f} < 0.5 across "
            f"{len(ratios)} objectives; seed-deterministic; "
            f"teacher grads exactly absent")


# ---------------------------------------------------------------------------
# 6. synthetic generator: PSD kernels, calibrated GP draws, reproducibility


def test_criterion_06_synthetic_generator(tmp_path):
    rng = np.random.default_rng(10)
    min_eig = np.inf
    for _ in range(1000):
        comp = G.sample_kernel_composition(rng)
        gram = G.gram_matrix(comp, 64)
        min_eig = min(min_eig, float(np.linalg.eigvalsh(gram).min()))

    draw_rng = np.random.default_rng(11)
    eye = np.eye(64)
    pooled = np.concatenate([G.sample_gp(eye, draw_rng)
                             for _ in range(10_000 // 64 + 1)])
    pooled_std = float(pooled.std())

    mix_rng = np.random.default_rng(12)
    lcm = G.LcmConfig(n_channels=5, series_length=32, series_count=1)
    sums_ok = True
    for _ in range(50):
        alpha = mix_rng.uniform(*G.DIRICHLET_ALPHA_RANGE)
        w = mix_rng.dirichlet(np.full(3, alpha), size=lcm.n_channels)
        sums_ok &= bool(np.abs(w.sum(axis=1) - 1.0).max() < 1e-6)

    cfg = G.LcmConfig(n_channels=1, series_length=64, series_count=20)
    m1 = G.generate_corpus(cfg, True, tmp_path / "w1", n_workers=1, seed=5,
                           shard_size=8)
    m3 = G.generate_corpus(cfg, True, tmp_path / "w3", n_workers=3, seed=5,
                           shard_size=8)
    same_bytes = all(
        (tmp_path / "w1" / s1).read_bytes() == (tmp_path / "w3" / s3).read_bytes()
        for s1, s3 in zip(m1.shards, m3.shards))

    _report(6, min_eig >= -1e-8 and 0.98 <= pooled_std <= 1.02
            and sums_ok and same_bytes,
            f"1000 composed grams min eig {min_eig:.1e} >= -1e-8; identity-"
            f"cov GP pooled std {pooled_std:.3f}; mixing rows sum to 1; "
            f"corpus bytes identical across worker counts")


# ---------------------------------------------------------------------------
# 7. anomaly metric pipeline against brute-force oracles


def test_criterion_07_anomaly_metric_oracles():
    def brute_point_adjust(preds, labels):
        out = preds.copy()
        i = 0
        while i < len(labels):
            if labels[i]:
                j = i
                while j < len(labels) and labels[j]:
                    j += 1
                if out[i:j].any():
                    out[i:j] = True
                i = j
            else:
                i += 1
        return out

    rng = np.random.default_rng(20)
    pa_ok = True
    for _ in range(200):
        n = int(rng.integers(5, 40))
        preds = rng.random(n) < 0.3
        labels = rng.random(n) < 0.3
        pa_ok &= bool(np.array_equal(E.point_adjust(preds, labels),
                                     brute_point_adjust(preds, labels)))

    scores = np.arange(1.0, 101.0)
    top1 = E.threshold_by_percentile(scores[:50], scores[50:], 1.0)
    top10 = E.threshold_by_percentile(scores[:50], scores[50:], 10.0)
    thr_ok = (top1.sum() == 1 and bool(top1[-1])
              and top10.sum() == 10 and top10[-10:].all())

    def f1_of(preds, labels):
        return E.f1_score(preds, labels)[2]

    monotone_ok = True
    for _ in range(500):
        n = int(rng.integers(5, 40))
        preds = rng.random(n) < 0.3
        labels = rng.random(n) < 0.3
        monotone_ok &= (f1_of(E.point_adjust(preds, labels), labels)
                        >= f1_of(preds, labels) - 1e-12)

    _report(7, pa_ok and thr_ok and monotone_ok,
            "point-adjust matches brute force x200; percentile thresholds "
            "match hand quantiles; PA never lowers F1 x500")


# ---------------------------------------------------------------------------
# 8. baseline and pretrained share the eval path; frozen probes freeze


def test_criterion_08_shared_eval_path_and_freezing(tmp_path):
    common = dict(seeds=(1,), d_model=16, n_layers=1, n_heads=2, patch_len=8,
                  max_patches=16, epochs=1, batch_size=4, steps_per_epoch=2,
                  window_len=64, corpus_series=8, corpus_length=128,
                  probe_epochs=2, context_len=32, horizon=8,
                  output_root=str(tmp_path), tasks=("classify", "forecast"))
    rows = {}
    for obj in ("none", "mae"):
        recs = H.run_experiment(H.RunConfig(run_id=f"cmp_{obj}",
                                            objective=obj, **common))
        rows[obj] = sorted({(r.task, r.dataset, r.metric, r.seed)
                            for r in recs})
    same_schema = rows["none"] == rows["mae"]

    from tsrepr.backbone import init_encoder
    bb = BackboneConfig(d_model=16, n_layers=1, n_heads=2, patch_len=8,
                        max_patches=8)
    weights = init_encoder(bb, np.random.default_rng(0))
    before = weights_hash(weights)
    x = np.random.default_rng(1).standard_normal((24, 64)).astype(np.float32)
    y = (np.arange(24) % 2).astype(np.int64)
    E.probe_train(weights, bb, E.ProbeSpec(task="classify", epochs=3), x, y)
    frozen = weights_hash(weights) == before

    _report(8, same_schema and frozen,
            "baseline and pretrained emit identical metric schemas through "
            "one eval path; frozen probe leaves backbone hash unchanged")


# ---------------------------------------------------------------------------
# 9. pretraining beats the random baseline on the toy suite


def test_criterion_09_pretraining_beats_baseline(tmp_path):
    t0 = time.time()
    common = dict(data_source="synthetic", synthetic_family="sines",
                  seeds=(2003, 123, 456, 789, 1337),
                  d_model=32, n_layers=2, n_heads=4, patch_len=16,
                  max_patches=8, epochs=16, batch_size=32, steps_per_epoch=10,
                  window_len=128, corpus_series=100, corpus_length=256,
                  probe_mode="linear", probe_epochs=20,
                  anomaly_percentile=2.0, output_root=str(tmp_path),
                  tasks=("classify", "anomaly", "forecast"))
    means = {}
    for obj in ("none", "jepa"):
        recs = H.run_experiment(H.RunConfig(run_id=f"toy_{obj}",
                                            objective=obj, **common))
        means[obj] = {(r.task, r.metric): r.value
                      for r in recs if r.seed == "mean"}
    acc_gap = (means["jepa"][("classify", "accuracy")]
               - means["none"][("classify", "accuracy")])
    f1_gap = (means["jepa"][("anomaly", "f1")]
              - means["none"][("anomaly", "f1")])
    elapsed = time.time() - t0
    _report(9, acc_gap >= 0.05 and f1_gap >= 0.05 and elapsed < 1800,
            f"jepa vs random-init over 5 seeds: accuracy +{acc_gap*100:.1f} "
            f"pts, anomaly F1 +{f1_gap*100:.1f} pts (both >= 5) in "
            f"{elapsed:.0f}s; forecasting not required to win")


# ---------------------------------------------------------------------------
# 10. identical configurations reproduce bitwise


def test_criterion_10_bitwise_reproducibility(tmp_path):
    def run(root):
        cfg = H.RunConfig(run_id="repro", objective="mae", seeds=(7,),
                          d_model=16, n_layers=1, n_heads=2, patch_len=8,
                          max_patches=16, epochs=2, batch_size=4,
                          steps_per_epoch=2, window_len=64, corpus_series=8,
                          corpus_length=128, probe_epochs=2, context_len=32,
                          horizon=8, output_root=str(root),
                          tasks=("classify", "anomaly", "forecast"))
        H.run_experiment(cfg)
        run_dir = cfg.run_dir()
        ckpts = sorted((run_dir / "checkpoints").glob("*.tsbc"))
        return ((run_dir / "metrics.csv").read_bytes(),
                [p.read_bytes() for p in ckpts])

    metrics_a, ckpts_a = run(tmp_path / "a")
    metrics_b, ckpts_b = run(tmp_path / "b")
    _report(10, metrics_a == metrics_b and ckpts_a == ckpts_b
            and len(ckpts_a) > 0,
            "two identical runs: metrics.csv and all checkpoints "
            "bitwise-identical")
