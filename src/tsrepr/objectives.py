"""The six pretraining losses and the shared pretraining loop.

Objectives: mae, ntp, diffusion (generative, signal-space targets) and
jepa, lejepa, dino (latent alignment).  Each loss returns a
:class:`LossBreakdown`: the total and its unweighted components.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import augment, optim, sigreg
from . import tensor as T
from .backbone import (
    BackboneConfig,
    Weights,
    clone_weights,
    encode,
    ema_update,
    init_encoder,
    init_linear,
    init_predictor,
    instance_norm,
    linear,
    patchify,
    run_predictor,
    save_backbone,
)
from .tensor import NumericError, ShapeError, Tape, Tensor, backward

OBJECTIVES = ("mae", "ntp", "diffusion", "jepa", "lejepa", "dino")
DEFAULT_SEEDS = (2003, 123, 456, 789, 1337)


# ---------------------------------------------------------------------------
# masking and the diffusion schedule


MASK_RATIO = 0.4    # random masks: share of patches masked per row
N_BLOCKS = 2        # multi-block masks: contiguous blocks per row ...
BLOCK_RATIO = 0.25  # ... each this share of the patches


def sample_mask(kind: str, rng: np.random.Generator, b: int,
                n: int) -> np.ndarray:
    """(B, N) boolean mask of ``kind`` random (mae) or multi_block (jepa);
    every row has >= 1 masked and >= 1 visible."""
    mask = np.zeros((b, n), dtype=bool)
    if kind == "random":
        k = min(max(1, int(round(MASK_RATIO * n))), n - 1)
        for i in range(b):
            mask[i, rng.choice(n, size=k, replace=False)] = True
        return mask
    if kind != "multi_block":
        raise ValueError(f"unknown mask kind {kind!r}")
    blk = max(1, int(round(BLOCK_RATIO * n)))
    if N_BLOCKS * blk >= n:
        raise ShapeError("mask blocks exceed sequence length")
    for i in range(b):
        for _ in range(100):
            row = np.zeros(n, dtype=bool)
            ok = True
            for _b in range(N_BLOCKS):
                start = rng.integers(0, n - blk + 1)
                if row[start : start + blk].any():
                    ok = False
                    break
                row[start : start + blk] = True
            if ok:
                mask[i] = row
                break
        else:
            raise ShapeError("could not place non-overlapping mask blocks")
    return mask


# cumulative signal share of the 1000-step linear beta schedule 1e-4 .. 0.02
ALPHA_BAR = np.cumprod(1.0 - np.linspace(1e-4, 0.02, 1000))


# ---------------------------------------------------------------------------
# loss breakdown


@dataclass
class LossBreakdown:
    total: Tensor
    components: dict[str, float]

    def value(self) -> float:
        return float(self.total.data)


def _single(total: Tensor, name: str) -> LossBreakdown:
    return LossBreakdown(total, {name: float(total.data)})


# ---------------------------------------------------------------------------
# objective state (backbone + objective-specific heads)


NTP_HORIZON = 4                # patches each ntp position predicts
VICREG_VAR_WEIGHT = 1.0        # jepa variance hinge weight
VICREG_COV_WEIGHT = 0.04       # jepa off-diagonal covariance weight
DINO_STUDENT_TEMP = 0.1
DINO_TEACHER_TEMP = 0.04
DINO_CENTER_MOMENTUM = 0.9


class ObjectiveState:
    """The weights of one objective, one flat dict per role: ``encoder``;
    ``heads``, every other trainable weight (the mae and ntp ``w``/``b``
    layer, the diffusion decoder's and dino projector's ``w1``..``b2``,
    jepa's ``pred.*`` predictor); ``teacher``, the EMA copy of the weights
    the teacher runs (jepa: the encoder, dino: encoder and projector).
    ``cfg`` is the backbone config with the objective's causal flag."""

    def __init__(self, pcfg: PretrainConfig, rng: np.random.Generator):
        obj = pcfg.objective
        self.cfg = replace(pcfg.backbone, causal=(obj in ("ntp", "diffusion")))
        self.pcfg = pcfg
        self.encoder: Weights = init_encoder(self.cfg, rng)
        self.heads: Weights = {}
        self.teacher: Weights | None = None
        self.center: np.ndarray | None = None
        d = self.cfg.d_model
        p = self.cfg.patch_len
        if obj == "mae":
            self.heads = init_linear(rng, d, p)
        elif obj == "ntp":
            self.heads = init_linear(rng, d, NTP_HORIZON * p)
        elif obj == "diffusion":
            self.heads = {**init_linear(rng, 2 * d, d, "1"),
                          **init_linear(rng, d, p, "2")}
        elif obj == "jepa":
            self.heads = init_predictor(self.cfg, rng)
            self.teacher = clone_weights(self.encoder)
        elif obj == "dino":
            k = pcfg.dino_prototypes
            self.heads = {**init_linear(rng, d, d, "1"),
                          **init_linear(rng, d, k, "2")}
            self.teacher = clone_weights(self.trainable())
            self.center = np.zeros(k, dtype=np.float32)

    def trainable(self) -> Weights:
        return {**self.encoder, **self.heads}

    def ema_step(self) -> None:
        if self.teacher is not None:
            ema_update(self.teacher, self.trainable(), self.pcfg.ema_momentum)


def _pool(latents: Tensor) -> Tensor:
    return T.mean(latents, axis=1)


def _gelu_mlp(x: Tensor, w: Weights) -> Tensor:
    """``gelu(x w1 + b1) w2 + b2`` over the last axis, one tape record."""
    return T.ffn(x, w["w1"], w["b1"], w["w2"], w["b2"])


# ---------------------------------------------------------------------------
# generative losses


def mae_loss(state: ObjectiveState, batch: np.ndarray,
             rng: np.random.Generator) -> LossBreakdown:
    patches = patchify(batch, state.cfg.patch_len)
    b, n, p = patches.shape
    pm = sample_mask("random", rng, b, n)
    latents = encode(batch, state.encoder, state.cfg, patch_mask=pm)
    recon = linear(T.reshape(latents, (b * n, state.cfg.d_model)),
                   state.heads)
    recon = T.reshape(recon, (b, n, p))
    diff = T.sub(recon, patches)
    sq = T.mul(diff, diff)
    masked_sq = T.mul(sq, pm[:, :, None].astype(np.float32))
    total = T.div(T.tsum(masked_sq), float(pm.sum() * p))
    return _single(total, "reconstruction")


def ntp_loss(state: ObjectiveState, batch: np.ndarray) -> LossBreakdown:
    h = NTP_HORIZON
    patches = patchify(batch, state.cfg.patch_len)
    b, n, p = patches.shape
    if n - h < 1:
        raise ShapeError(f"no positions with {h} future patches (n={n})")
    latents = encode(batch, state.encoder, state.cfg)
    valid = n - h  # positions 0..n-h-1 predict the next h patches
    pred = linear(
        T.reshape(latents[:, :valid], (b * valid, state.cfg.d_model)),
        state.heads)
    pred = T.reshape(pred, (b, valid, h, p))
    targets = np.stack(
        [patches[:, j + 1 : j + 1 + h] for j in range(valid)], axis=1)
    diff = T.sub(pred, targets)
    total = T.mean(T.mul(diff, diff))
    return _single(total, "forecast")


def corrupt_patches(values: np.ndarray, rng: np.random.Generator):
    """Forward corruption x_t = sqrt(abar_t) x + sqrt(1-abar_t) eps."""
    b, n, p = values.shape
    t_idx = rng.integers(0, len(ALPHA_BAR), size=(b, n))
    abar = ALPHA_BAR[t_idx][:, :, None].astype(np.float32)
    eps = rng.standard_normal((b, n, p)).astype(np.float32)
    noised = np.sqrt(abar) * values + np.sqrt(1.0 - abar) * eps
    return noised.astype(np.float32), t_idx, eps


def diffusion_loss(state: ObjectiveState, batch: np.ndarray,
                   rng: np.random.Generator) -> LossBreakdown:
    patches = patchify(batch, state.cfg.patch_len)
    b, n, p = patches.shape
    if n < 2:
        raise ShapeError("diffusion loss needs at least 2 patches")
    d = state.cfg.d_model
    noised, _t_idx, _eps = corrupt_patches(patches, rng)
    context = encode(batch, state.encoder, state.cfg)  # causal
    noised_flat = T.reshape(Tensor(noised), (b * n, p))
    z_hat = T.reshape(
        T.add(T.matmul(noised_flat, state.encoder["embed.w"]),
              state.encoder["embed.b"]), (b, n, d))
    # decoder sees the noised-patch embedding at n and causal context at n,
    # and predicts the clean next patch
    dec_in = T.concat([z_hat[:, : n - 1], context[:, : n - 1]], axis=2)
    pred = _gelu_mlp(dec_in, state.heads)
    diff = T.sub(pred, patches[:, 1:])
    total = T.mean(T.mul(diff, diff))
    return _single(total, "denoising")


# ---------------------------------------------------------------------------
# latent-alignment losses


def _vicreg_terms(pooled: Tensor, margin: float = 1.0, eps: float = 1e-4):
    b, d = pooled.shape
    mu = T.mean(pooled, axis=0, keepdims=True)
    centered = T.sub(pooled, mu)
    var = T.mean(T.mul(centered, centered), axis=0)
    std = T.sqrt(T.add(var, eps))
    var_term = T.mean(T.relu(T.sub(margin, std)))
    cov = T.mul(T.matmul(T.transpose(centered), centered), 1.0 / float(b))
    off = T.mul(cov, (1.0 - np.eye(d, dtype=np.float32)))
    cov_term = T.div(T.tsum(T.mul(off, off)), float(d))
    return var_term, cov_term


def jepa_loss(state: ObjectiveState, batch: np.ndarray,
              rng: np.random.Generator) -> LossBreakdown:
    lam_v, lam_c = VICREG_VAR_WEIGHT, VICREG_COV_WEIGHT
    b, n, _ = patchify(batch, state.cfg.patch_len).shape
    pm = sample_mask("multi_block", rng, b, n)
    student = encode(batch, state.encoder, state.cfg, patch_mask=pm)
    pred = run_predictor(student, state.heads, state.cfg)
    # teacher sees the full unmasked batch; its weights carry no grad
    target = encode(batch, state.teacher, state.cfg)
    diff = T.sub(pred, target.detach())
    sq = T.mul(diff, diff)
    masked_sq = T.mul(sq, pm[:, :, None].astype(np.float32))
    distill = T.div(T.tsum(masked_sq), float(pm.sum() * state.cfg.d_model))
    var_term, cov_term = _vicreg_terms(_pool(student))
    total = T.add(distill,
                  T.add(T.mul(var_term, lam_v), T.mul(cov_term, lam_c)))
    return LossBreakdown(
        total,
        {"distill": float(distill.data), "variance": float(var_term.data),
         "covariance": float(cov_term.data)})


def lejepa_loss(state: ObjectiveState, view_pair: augment.ViewPair,
                step: int = 0) -> LossBreakdown:
    lam = state.pcfg.lejepa_lambda
    z_g = _pool(encode(view_pair.teacher_view, state.encoder, state.cfg))
    z_a = _pool(encode(view_pair.student_view, state.encoder, state.cfg))
    diff = T.sub(z_g, z_a)
    invariance = T.mean(T.mul(diff, diff))
    z_m = T.concat([z_g, z_a], axis=0)
    stat = sigreg.epps_pulley_statistic(z_m, state.pcfg.sigreg_projections,
                                        step)
    total = T.add(T.mul(invariance, 1.0 - lam), T.mul(stat, lam))
    return LossBreakdown(
        total,
        {"invariance": float(invariance.data), "sigreg": float(stat.data)})


def _dino_logits(view: np.ndarray, w: Weights, state: ObjectiveState
                 ) -> Tensor:
    """Projector logits of ``view`` under the encoder and projector in
    ``w``: the student's ``trainable()`` or the ``teacher``."""
    return _gelu_mlp(_pool(encode(view, w, state.cfg)), w)


def dino_loss(state: ObjectiveState, view_pair: augment.ViewPair
              ) -> LossBreakdown:
    t_s, t_t = DINO_STUDENT_TEMP, DINO_TEACHER_TEMP
    center = state.center
    student_logits = _dino_logits(view_pair.student_view, state.trainable(),
                                  state)
    teacher_logits = _dino_logits(view_pair.teacher_view, state.teacher,
                                  state).detach()
    p_teacher = T.softmax(T.div(T.sub(teacher_logits, center), t_t))
    log_p_student = T.log_softmax(T.div(student_logits, t_s))
    ce = T.mul(T.tsum(T.mul(p_teacher.detach(), log_p_student), axis=-1), -1.0)
    total = T.mean(ce)
    # running center update (side effect)
    m = DINO_CENTER_MOMENTUM
    center *= np.float32(m)
    center += np.float32(1.0 - m) * teacher_logits.data.mean(axis=0)
    return _single(total, "cross_entropy")


# ---------------------------------------------------------------------------
# pretraining loop


@dataclass
class PretrainConfig:
    objective: str = "mae"
    epochs: int = 20
    batch_size: int = 128
    steps_per_epoch: int | None = None  # default: cover the corpus once
    window_len: int = 336
    lr: float | None = None
    seed: int = 2003
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    data_source: str = "corpus"  # origin named in the checkpoint header
    # what the ablations vary; the other loss settings are module constants
    ema_momentum: float = 0.996   # jepa and dino teachers
    lejepa_lambda: float = 0.008  # SIGReg weight of the lejepa loss
    sigreg_projections: int = 64
    dino_prototypes: int = 256

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        if not 0.0 <= self.lejepa_lambda <= 1.0:
            raise ValueError("lejepa_lambda must be in [0, 1]")
        if not 0.0 <= self.ema_momentum <= 1.0:
            raise ValueError("ema_momentum must be in [0, 1]")
        for name in ("sigreg_projections", "dino_prototypes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if (self.steps_per_epoch or 0) < 0:
            raise ValueError("steps_per_epoch must be >= 0 (0: the default)")
        if self.lr is not None and not self.lr > 0:  # NaN included
            raise ValueError("lr must be > 0 when set")
        # the fewest patches a window must hold for the objective's loss
        need = {"mae": 2, "diffusion": 2, "jepa": N_BLOCKS + 1,
                "ntp": NTP_HORIZON + 1}.get(self.objective, 1)
        n = self.window_len // self.backbone.patch_len
        if n < need:
            raise ValueError(f"{self.objective} needs windows of >= {need} "
                             f"patches; window_len {self.window_len} has {n}")
        if self.objective in ("lejepa", "dino"):  # its views cut the window
            augment.make_view_pair(np.zeros((1, self.window_len)),
                                   np.random.default_rng(0))

    def resolved_lr(self) -> float:
        if self.lr is not None:
            return self.lr
        return 1e-2 if self.objective == "jepa" else 1e-3


class ArrayCorpus:
    """In-memory corpus of equal-length univariate series (n, T)."""

    def __init__(self, series: np.ndarray):
        series = np.asarray(series, dtype=np.float32)
        if series.ndim != 2:
            raise ShapeError("corpus must be (n_series, length)")
        self.series = series

    def __len__(self):
        return self.series.shape[0]

    @property
    def length(self):
        return self.series.shape[1]

    def sample_windows(self, rng: np.random.Generator, batch: int,
                       window_len: int) -> np.ndarray:
        n, t = self.series.shape
        if t < window_len:
            raise ShapeError(f"corpus length {t} < window {window_len}")
        rows = rng.integers(0, n, size=batch)
        offs = rng.integers(0, t - window_len + 1, size=batch)
        return self.series[rows[:, None], offs[:, None] + np.arange(window_len)]


def compute_loss(state: ObjectiveState, batch: np.ndarray,
                 rng: np.random.Generator, step: int) -> LossBreakdown:
    """Dispatch one pretraining loss on an instance-normalized batch."""
    obj = state.pcfg.objective
    if obj == "mae":
        return mae_loss(state, batch, rng)
    if obj == "ntp":
        return ntp_loss(state, batch)
    if obj == "diffusion":
        return diffusion_loss(state, batch, rng)
    if obj == "jepa":
        return jepa_loss(state, batch, rng)
    if obj == "lejepa":
        pair = augment.make_view_pair(batch, rng, stochastic=True)
        return lejepa_loss(state, pair, step=step)
    if obj == "dino":
        pair = augment.make_view_pair(batch, rng)
        return dino_loss(state, pair)
    raise ValueError(f"unknown objective {obj!r}")


@dataclass
class PretrainResult:
    state: ObjectiveState
    best_weights: Weights
    history: list[dict]
    initial_loss: float
    final_loss: float
    best_val: float


def pretrain(corpus: ArrayCorpus, cfg: PretrainConfig,
             out_path=None, log=None) -> PretrainResult:
    """Run the epoch loop for one objective; deterministic given seed.

    Windows are cut to ``min(cfg.window_len, corpus.length)``; a cut
    window the objective cannot train on raises ``ValueError`` before any
    work, as ``PretrainConfig`` does for ``window_len``."""
    window = min(cfg.window_len, corpus.length)
    replace(cfg, window_len=window)  # runs PretrainConfig's checks
    ss = np.random.SeedSequence(cfg.seed)
    init_rng, data_rng, loss_rng, val_rng = [
        np.random.default_rng(s) for s in ss.spawn(4)]
    state = ObjectiveState(cfg, init_rng)
    params = state.trainable()
    if cfg.objective == "jepa":
        opt = optim.MomentumSGD(params, lr=cfg.resolved_lr())
    else:
        opt = optim.Adam(params, lr=cfg.resolved_lr())

    steps_per_epoch = cfg.steps_per_epoch or max(
        1, len(corpus) // cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    val_batch, _, _ = instance_norm(
        corpus.sample_windows(val_rng, min(cfg.batch_size, 64), window))

    history: list[dict] = []
    best_val = np.inf
    best_weights = clone_weights(state.encoder)
    initial_loss = None
    step = 0
    for epoch in range(cfg.epochs):
        epoch_loss = 0.0
        for _ in range(steps_per_epoch):
            raw = corpus.sample_windows(data_rng, cfg.batch_size, window)
            batch, _, _ = instance_norm(raw)
            lr = optim.one_cycle_lr(step, total_steps, cfg.resolved_lr())
            optim.zero_grads(params)
            with Tape():
                lb = compute_loss(state, batch, loss_rng, step)
                backward(lb.total)
            if not np.isfinite(lb.value()):
                raise NumericError(f"non-finite loss at step {step}")
            opt.step(lr)
            state.ema_step()
            if initial_loss is None:
                initial_loss = lb.value()
            epoch_loss += lb.value()
            step += 1
        val_lb = compute_loss(state, val_batch, np.random.default_rng(
            np.random.SeedSequence((cfg.seed, 997))), step)
        val = val_lb.value()
        rec = {"epoch": epoch, "train_loss": epoch_loss / steps_per_epoch,
               "val_loss": val,
               "components": dict(val_lb.components)}
        history.append(rec)
        if log is not None:
            log(rec)
        if val < best_val:
            best_val = val
            best_weights = clone_weights(state.encoder)
    final_loss = history[-1]["train_loss"]
    result = PretrainResult(state, best_weights, history, initial_loss,
                            final_loss, best_val)
    if out_path is not None:
        save_backbone(out_path, best_weights, state.cfg,
                      objective=cfg.objective, data_source=cfg.data_source,
                      seed=cfg.seed, epoch=cfg.epochs)
    return result
