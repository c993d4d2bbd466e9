"""Masking, diffusion schedule, the six losses, and the pretraining loop."""

import numpy as np
import pytest

from tsrepr import augment, objectives as O
from tsrepr.backbone import BackboneConfig, weights_hash
from tsrepr.tensor import ShapeError, Tape, backward

TINY = BackboneConfig(d_model=16, n_layers=1, n_heads=2, patch_len=8,
                      max_patches=8, n_predictor_layers=1)


def make_state(objective, seed=0, cfg=TINY, **kw):
    pcfg = O.PretrainConfig(objective=objective, backbone=cfg,
                            sigreg_projections=8, dino_prototypes=32, **kw)
    return O.ObjectiveState(pcfg, np.random.default_rng(seed))


def make_batch(b=4, t=64, seed=1):
    return np.random.default_rng(seed).standard_normal((b, t)).astype(
        np.float32)


# ---------------------------------------------------------------------------
# masking


def test_random_mask_ratio_and_coverage():
    rng = np.random.default_rng(0)
    mask = O.sample_mask("random", rng, b=16, n=20)
    assert mask.shape == (16, 20)
    # exactly round(0.4 * 20) = 8 per row
    np.testing.assert_array_equal(mask.sum(axis=1), 8)
    assert (~mask).sum(axis=1).min() >= 1


def test_multi_block_mask_structure():
    rng = np.random.default_rng(1)
    for _ in range(20):
        mask = O.sample_mask("multi_block", rng, b=4, n=16)
        for row in mask:
            assert row.sum() == 8  # 2 blocks x 4 patches
            # runs of True form at most 2 contiguous segments
            edges = np.diff(row.astype(int))
            assert (edges == 1).sum() + int(row[0]) <= 2


def test_mask_validation():
    with pytest.raises(ValueError):
        O.sample_mask("diagonal", np.random.default_rng(0), 2, 8)


def test_mask_block_overflow_raises():
    with pytest.raises(ShapeError):
        O.sample_mask("multi_block", np.random.default_rng(0), b=1, n=2)


# ---------------------------------------------------------------------------
# diffusion schedule


def test_schedule_monotonicity():
    abar = O.ALPHA_BAR
    assert abar.shape == (1000,)
    betas = 1.0 - abar / np.concatenate([[1.0], abar[:-1]])
    np.testing.assert_allclose(betas, np.linspace(1e-4, 0.02, 1000),
                               rtol=1e-9)
    assert np.all(np.diff(abar) < 0) and 0.0 < abar[-1] and abar[0] < 1.0
    snr = abar / (1.0 - abar)
    assert np.all(np.diff(snr) < 0)


def test_corruption_variance_monte_carlo():
    # Var[x_t] = abar * Var[x] + (1 - abar), here with Var[x] = 4; the 1000
    # steps are pooled into 10 bins of 100, whose variance is the mean of
    # the per-step variances of the elements drawn into the bin
    rng = np.random.default_rng(2)
    vals = rng.standard_normal((8000, 4, 8)).astype(np.float32)
    vals *= 2.0 / vals.std()
    noised, t_idx, eps = O.corrupt_patches(vals, rng)
    assert noised.shape == vals.shape and eps.shape == vals.shape
    assert t_idx.min() >= 0 and t_idx.max() == len(O.ALPHA_BAR) - 1
    for lo in range(0, 1000, 100):
        sel = (t_idx >= lo) & (t_idx < lo + 100)
        abar = O.ALPHA_BAR[t_idx[sel]]
        want = np.mean(abar * 4.0 + (1.0 - abar))
        assert abs(noised[sel].var() - want) / want < 0.05


# ---------------------------------------------------------------------------
# loss breakdowns


@pytest.mark.parametrize("objective", O.OBJECTIVES)
def test_breakdown_recombines(objective):
    state = make_state(objective)
    batch = make_batch()
    with Tape():
        lb = O.compute_loss(state, batch, np.random.default_rng(3), step=0)
    assert np.isfinite(lb.value())
    lam = state.pcfg.lejepa_lambda
    weights = {"variance": O.VICREG_VAR_WEIGHT,
               "covariance": O.VICREG_COV_WEIGHT,
               "invariance": 1.0 - lam, "sigreg": lam}
    weighted = sum(weights.get(k, 1.0) * v for k, v in lb.components.items())
    assert abs(lb.value() - weighted) < 1e-5 * max(1.0, abs(lb.value()))


def test_mae_offset_oracle():
    # decoder forced to output zeros: loss is the mean masked square,
    # which for an all-ones batch is exactly 1
    state = make_state("mae")
    state.heads["w"].data[:] = 0.0
    state.heads["b"].data[:] = 0.0
    batch = np.ones((4, 64), dtype=np.float32)
    lb = O.mae_loss(state, batch, np.random.default_rng(4))
    assert abs(lb.value() - 1.0) < 1e-6


def test_ntp_perfect_prediction_zero_loss():
    state = make_state("ntp")
    batch = np.zeros((2, 64), dtype=np.float32)
    state.heads["w"].data[:] = 0.0
    state.heads["b"].data[:] = 0.0
    lb = O.ntp_loss(state, batch)
    assert lb.value() < 1e-10


def test_ntp_too_short_raises():
    state = make_state("ntp")  # 4-patch horizon
    with pytest.raises(ShapeError):
        O.ntp_loss(state, make_batch(t=32))


def test_lejepa_lambda_endpoints():
    x = make_batch(b=8)
    pair_same = augment.ViewPair(x, x.copy())
    lb0 = O.lejepa_loss(make_state("lejepa", lejepa_lambda=0.0), pair_same)
    assert lb0.value() < 1e-10  # identical views, invariance only
    state = make_state("lejepa", lejepa_lambda=1.0)
    pair = augment.make_view_pair(x, np.random.default_rng(5))
    lb1 = O.lejepa_loss(state, pair)
    z_g = lb1.components["sigreg"]
    assert abs(lb1.value() - z_g) < 1e-6  # pure statistic at lambda 1
    with pytest.raises(ValueError):
        make_state("lejepa", lejepa_lambda=1.5)


def test_dino_uniform_teacher_floor():
    # teacher distribution uniform over K: CE >= entropy = log K
    state = make_state("dino")
    for k in state.heads:  # the teacher's projector
        state.teacher[k].data[:] = 0.0
    pair = augment.make_view_pair(make_batch(b=4), np.random.default_rng(6))
    lb = O.dino_loss(state, pair)
    assert lb.value() >= np.log(32) - 1e-4


def test_jepa_variance_hinge_detects_collapse():
    state = make_state("jepa")
    # zeroing the embedding projection collapses all latents
    state.encoder["embed.w"].data[:] = 0.0
    state.encoder["embed.b"].data[:] = 0.0
    lb = O.jepa_loss(state, make_batch(), np.random.default_rng(7))
    assert lb.components["variance"] > 0.5  # hinge near margin 1


@pytest.mark.parametrize("objective", ("jepa", "dino"))
def test_teacher_receives_no_gradient(objective):
    state = make_state(objective)
    batch = make_batch()
    with Tape():
        lb = O.compute_loss(state, batch, np.random.default_rng(8), step=0)
        backward(lb.total)
    for t in state.teacher.values():
        assert t.grad is None
    # the student side does get gradients
    grads = [v.grad for v in state.trainable().values() if v.grad is not None]
    assert any(np.abs(g).max() > 0 for g in grads)


@pytest.mark.parametrize("objective", O.OBJECTIVES)
def test_every_loss_backpropagates(objective):
    state = make_state(objective)
    with Tape():
        lb = O.compute_loss(state, make_batch(), np.random.default_rng(9), 0)
        backward(lb.total)
    g = state.encoder["embed.w"].grad
    assert g is not None and np.isfinite(g).all()


@pytest.mark.parametrize("objective", ("mae", "ntp"))
def test_constant_operands_get_no_gradient(objective):
    # masks, targets and the causal bias do not require grad, so backward
    # neither computes nor stores a gradient for them
    toy = BackboneConfig(d_model=32, n_layers=2, n_heads=4, patch_len=16,
                         max_patches=8)
    state = make_state(objective, cfg=toy)
    with Tape() as tape:
        lb = O.compute_loss(state, make_batch(8, 128), np.random.default_rng(3),
                            step=0)
        # backward consumes the tape, so collect the inputs first
        inputs = {id(t): t for _out, ins, _bw in tape.records for t in ins}
        backward(lb.total)
    constants = [t for t in inputs.values() if not t.requires_grad]
    assert constants
    assert all(t.grad is None for t in constants)


def test_causality_forced_for_autoregressive_objectives():
    assert make_state("ntp").cfg.causal
    assert make_state("diffusion").cfg.causal
    assert not make_state("mae").cfg.causal


def test_ema_step_moves_teacher_toward_student():
    for objective in ("jepa", "dino"):
        state = make_state(objective, ema_momentum=0.9)
        params = state.trainable()
        student = {k: params[k] for k in state.teacher}
        before = {k: v.data.copy() for k, v in state.teacher.items()}
        for v in student.values():
            v.data += 1.0
        state.ema_step()
        for k, v in state.teacher.items():
            np.testing.assert_allclose(
                v.data, 0.9 * before[k] + 0.1 * student[k].data, atol=1e-5)


# ---------------------------------------------------------------------------
# corpus and pretraining


def test_corpus_window_sampling():
    series = np.arange(40, dtype=np.float32).reshape(4, 10)
    corpus = O.ArrayCorpus(series)
    wins = corpus.sample_windows(np.random.default_rng(10), 8, 5)
    assert wins.shape == (8, 5)
    for w in wins:  # each window is a contiguous slice of one series
        np.testing.assert_allclose(np.diff(w), 1.0)
    rng = np.random.default_rng(10)  # rows, then offsets, from one rng
    rows, offs = rng.integers(0, 4, size=8), rng.integers(0, 6, size=8)
    want = np.stack([series[r, o : o + 5] for r, o in zip(rows, offs)])
    assert wins.tobytes() == want.tobytes()
    with pytest.raises(ShapeError):
        corpus.sample_windows(np.random.default_rng(0), 2, 11)
    with pytest.raises(ShapeError):
        O.ArrayCorpus(np.zeros(5, np.float32))


def _tiny_pretrain(objective, seed=2003):
    corpus = O.ArrayCorpus(np.random.default_rng(11).standard_normal(
        (16, 96)).astype(np.float32))
    cfg = O.PretrainConfig(
        objective=objective, epochs=2, batch_size=4, steps_per_epoch=2,
        window_len=64, seed=seed, backbone=TINY, sigreg_projections=8,
        dino_prototypes=32)
    return O.pretrain(corpus, cfg)


@pytest.mark.parametrize("objective", O.OBJECTIVES)
def test_pretrain_runs_and_records(objective):
    res = _tiny_pretrain(objective)
    assert len(res.history) == 2
    assert np.isfinite(res.final_loss) and np.isfinite(res.best_val)
    assert set(res.best_weights) == set(res.state.encoder)


def test_validation_runs_without_tape(monkeypatch):
    taped = []
    compute_loss = O.compute_loss

    def spy(state, batch, rng, step):
        taped.append(Tape.active() is not None)
        return compute_loss(state, batch, rng, step)

    monkeypatch.setattr(O, "compute_loss", spy)
    _tiny_pretrain("mae")
    # per epoch: two training steps on a tape, then validation without one
    assert taped == [True, True, False] * 2


def test_pretrain_deterministic():
    h1 = weights_hash(_tiny_pretrain("mae").best_weights)
    h2 = weights_hash(_tiny_pretrain("mae").best_weights)
    h3 = weights_hash(_tiny_pretrain("mae", seed=5).best_weights)
    assert h1 == h2
    assert h1 != h3


def test_pretrain_rejects_unknown_objective():
    # checked when the config is built, before any pretraining
    for bad in (dict(objective="cpc"),
                dict(objective="lejepa", lejepa_lambda=1.5),
                dict(epochs=0), dict(batch_size=0), dict(lr=-1.0),
                dict(lr=0.0), dict(lr=float("nan")),
                # -3 once trained no step and returned normally
                dict(steps_per_epoch=-3)):
        with pytest.raises(ValueError):
            O.PretrainConfig(**bad)


@pytest.mark.parametrize("field, value", [
    ("ema_momentum", 1.5), ("ema_momentum", -0.1),
    ("sigreg_projections", 0), ("dino_prototypes", 0)])
def test_pretrain_config_rejects_ablation_values_the_loss_cannot_run(
        field, value):
    # each once failed only at the first training step, after the state
    # was built
    with pytest.raises(ValueError, match=field):
        O.PretrainConfig(**{field: value})


@pytest.mark.parametrize("objective", O.OBJECTIVES)
def test_pretrain_config_rejects_windows_the_loss_cannot_use(objective):
    # mae and diffusion need 2 patches, jepa more than its mask blocks, ntp
    # more than its horizon; lejepa and dino views need an even length
    # (no wavelet level otherwise).  Each used to fail only in the loss.
    fewest = {"mae": 2, "diffusion": 2, "jepa": O.N_BLOCKS + 1,
              "ntp": O.NTP_HORIZON + 1}.get(objective, 1)
    p = TINY.patch_len
    bad = [(fewest - 1) * p] if fewest > 1 else [p - 1, 3 * p + 1]
    for window in bad:
        with pytest.raises(ValueError):
            O.PretrainConfig(objective=objective, window_len=window,
                             backbone=TINY)
    # the shortest accepted window trains
    corpus = O.ArrayCorpus(np.random.default_rng(11).standard_normal(
        (8, 64)).astype(np.float32))
    cfg = O.PretrainConfig(
        objective=objective, epochs=1, batch_size=4, steps_per_epoch=1,
        window_len=fewest * p, backbone=TINY, sigreg_projections=8,
        dino_prototypes=32)
    assert np.isfinite(O.pretrain(corpus, cfg).final_loss)


@pytest.mark.parametrize("objective,length", [
    ("ntp", 32), ("lejepa", 33), ("dino", 33), ("jepa", 16), ("mae", 8),
    ("diffusion", 8)])
def test_pretrain_rejects_short_corpus_before_any_work(objective, length,
                                                       monkeypatch):
    # pretrain cuts min(window_len, corpus length): the cut window gets
    # PretrainConfig's check before the state draws its weights.  Unchecked,
    # each of these fails only in the loss of the first step.
    def no_state(*args):
        raise AssertionError("state built for a window the loss cannot use")

    monkeypatch.setattr(O, "ObjectiveState", no_state)
    corpus = O.ArrayCorpus(np.zeros((8, length), np.float32))
    cfg = O.PretrainConfig(objective=objective, window_len=128, backbone=TINY,
                           epochs=1, steps_per_epoch=1, batch_size=4)
    with pytest.raises(ValueError):
        O.pretrain(corpus, cfg)
