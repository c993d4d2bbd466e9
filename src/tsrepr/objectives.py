"""The six pretraining losses and the shared pretraining loop.

Objectives: mae, ntp, diffusion (generative, signal-space targets) and
jepa, lejepa, dino (latent alignment).  Each loss returns a
:class:`LossBreakdown` whose weighted components recombine to the total.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import augment, optim, sigreg
from . import tensor as T
from .backbone import (
    BackboneConfig,
    PatchBatch,
    Weights,
    clone_weights,
    encode,
    ema_update,
    init_encoder,
    init_predictor,
    instance_norm,
    run_predictor,
    save_backbone,
)
from .tensor import NumericError, ShapeError, Tape, Tensor, backward

OBJECTIVES = ("mae", "ntp", "diffusion", "jepa", "lejepa", "dino")
DEFAULT_SEEDS = (2003, 123, 456, 789, 1337)


# ---------------------------------------------------------------------------
# masking


@dataclass
class MaskSpec:
    kind: str = "random"          # random | multi_block
    ratio: float = 0.4
    n_blocks: int = 2
    per_block_ratio: float = 0.25

    def __post_init__(self):
        total = self.ratio if self.kind == "random" \
            else self.n_blocks * self.per_block_ratio
        if not 0.0 < total < 1.0:
            raise ValueError("total masked fraction must lie in (0, 1)")


def sample_mask(spec: MaskSpec, rng: np.random.Generator, b: int,
                n: int) -> np.ndarray:
    """(B, N) boolean mask; every row has >= 1 masked and >= 1 visible."""
    mask = np.zeros((b, n), dtype=bool)
    if spec.kind == "random":
        k = min(max(1, int(round(spec.ratio * n))), n - 1)
        for i in range(b):
            mask[i, rng.choice(n, size=k, replace=False)] = True
        return mask
    if spec.kind != "multi_block":
        raise ValueError(f"unknown mask kind {spec.kind!r}")
    blk = max(1, int(round(spec.per_block_ratio * n)))
    if spec.n_blocks * blk >= n:
        raise ShapeError("mask blocks exceed sequence length")
    for i in range(b):
        for _ in range(100):
            row = np.zeros(n, dtype=bool)
            ok = True
            for _b in range(spec.n_blocks):
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


# ---------------------------------------------------------------------------
# diffusion schedule


@dataclass
class DiffusionSchedule:
    n_steps: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 0.02

    def __post_init__(self):
        betas = np.linspace(self.beta_start, self.beta_end, self.n_steps)
        if not (0.0 < betas[0] and betas[-1] < 1.0):
            raise ValueError("betas must lie in (0, 1)")
        self.betas = betas
        self.alpha_bar = np.cumprod(1.0 - betas)


# ---------------------------------------------------------------------------
# loss breakdown


@dataclass
class LossBreakdown:
    total: Tensor
    components: dict[str, float] = field(default_factory=dict)
    weights: dict[str, float] = field(default_factory=dict)

    def recombined(self) -> float:
        return float(sum(self.weights.get(k, 1.0) * v
                         for k, v in self.components.items()))

    def value(self) -> float:
        return float(self.total.data)


def _single(total: Tensor, name: str) -> LossBreakdown:
    return LossBreakdown(total, {name: float(total.data)}, {name: 1.0})


# ---------------------------------------------------------------------------
# objective state (backbone + objective-specific heads)


@dataclass
class ObjectiveConfig:
    objective: str = "mae"
    mae_mask: MaskSpec = field(default_factory=lambda: MaskSpec("random", 0.4))
    jepa_mask: MaskSpec = field(
        default_factory=lambda: MaskSpec("multi_block", n_blocks=2,
                                         per_block_ratio=0.25))
    ntp_horizon: int = 4
    diffusion: DiffusionSchedule = field(default_factory=DiffusionSchedule)
    ema_momentum: float = 0.996
    vicreg_var_weight: float = 1.0
    vicreg_cov_weight: float = 0.04
    lejepa_lambda: float = 0.008
    epps_pulley: sigreg.EppsPulleyConfig = field(
        default_factory=lambda: sigreg.EppsPulleyConfig(n_projections=64))
    dino_prototypes: int = 256
    dino_student_temp: float = 0.1
    dino_teacher_temp: float = 0.04
    dino_center_momentum: float = 0.9
    dwt: augment.DwtConfig = field(default_factory=augment.DwtConfig)

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.dino_student_temp <= 0 or self.dino_teacher_temp <= 0:
            raise ValueError("temperatures must be positive")
        if not 0.0 <= self.lejepa_lambda <= 1.0:
            raise ValueError("lejepa_lambda must be in [0, 1]")


def _linear(rng, d_in, d_out) -> dict[str, Tensor]:
    s = 1.0 / np.sqrt(d_in)
    return {
        "w": Tensor(rng.normal(0, s, (d_in, d_out)).astype(np.float32),
                    requires_grad=True),
        "b": Tensor(np.zeros(d_out, np.float32), requires_grad=True),
    }


class ObjectiveState:
    """Backbone weights plus per-objective heads and teacher copies."""

    def __init__(self, cfg: BackboneConfig, ocfg: ObjectiveConfig,
                 rng: np.random.Generator):
        self.cfg = replace(cfg, causal=(ocfg.objective in ("ntp", "diffusion")))
        self.ocfg = ocfg
        self.encoder: Weights = init_encoder(self.cfg, rng)
        self.heads: dict[str, dict[str, Tensor]] = {}
        self.predictor: Weights | None = None
        self.teacher: Weights | None = None
        self.teacher_heads: dict[str, dict[str, Tensor]] | None = None
        self.center: np.ndarray | None = None
        d = cfg.d_model
        p = cfg.patch_len
        obj = ocfg.objective
        if obj == "mae":
            self.heads["decoder"] = _linear(rng, d, p)
        elif obj == "ntp":
            self.heads["horizon"] = _linear(rng, d, ocfg.ntp_horizon * p)
        elif obj == "diffusion":
            self.heads["dec1"] = _linear(rng, 2 * d, d)
            self.heads["dec2"] = _linear(rng, d, p)
        elif obj == "jepa":
            self.predictor = init_predictor(self.cfg, rng)
            self.teacher = clone_weights(self.encoder)
        elif obj == "dino":
            k = ocfg.dino_prototypes
            self.heads["proj1"] = _linear(rng, d, d)
            self.heads["proj2"] = _linear(rng, d, k)
            self.teacher = clone_weights(self.encoder)
            self.teacher_heads = {name: clone_weights(hw)
                                  for name, hw in self.heads.items()}
            self.center = np.zeros(k, dtype=np.float32)

    def trainable(self) -> dict[str, Tensor]:
        params = {f"enc.{k}": v for k, v in self.encoder.items()}
        for head, hw in self.heads.items():
            params.update({f"head.{head}.{k}": v for k, v in hw.items()})
        if self.predictor is not None:
            params.update({f"predictor.{k}": v for k, v in self.predictor.items()})
        return params

    def ema_step(self, momentum: float | None = None) -> None:
        if self.teacher is None:
            return
        m = self.ocfg.ema_momentum if momentum is None else momentum
        ema_update(self.teacher, self.encoder, m)
        if self.teacher_heads is not None:
            for head, hw in self.teacher_heads.items():
                mf = np.float32(m)
                for n, t in hw.items():
                    t.data *= mf
                    t.data += (np.float32(1.0) - mf) * self.heads[head][n].data


def _apply_linear(x: Tensor, head: dict[str, Tensor]) -> Tensor:
    return T.add(T.matmul(x, head["w"]), head["b"])


def _pool(latents: Tensor) -> Tensor:
    return T.mean(latents, axis=1)


# ---------------------------------------------------------------------------
# generative losses


def mae_loss(state: ObjectiveState, batch: np.ndarray, mask: MaskSpec,
             rng: np.random.Generator) -> LossBreakdown:
    patches = PatchBatch.from_windows(batch, state.cfg.patch_len)
    b, n, p = patches.values.shape
    pm = sample_mask(mask, rng, b, n)
    latents = encode(patches, state.encoder, state.cfg, patch_mask=pm)
    recon = _apply_linear(T.reshape(latents, (b * n, state.cfg.d_model)),
                          state.heads["decoder"])
    recon = T.reshape(recon, (b, n, p))
    diff = T.sub(recon, patches.values)
    sq = T.mul(diff, diff)
    masked_sq = T.mul(sq, pm[:, :, None].astype(np.float32))
    total = T.div(T.tsum(masked_sq), float(pm.sum() * p))
    return _single(total, "reconstruction")


def ntp_loss(state: ObjectiveState, batch: np.ndarray,
             horizon_h: int | None = None) -> LossBreakdown:
    h = state.ocfg.ntp_horizon if horizon_h is None else horizon_h
    patches = PatchBatch.from_windows(batch, state.cfg.patch_len)
    b, n, p = patches.values.shape
    if n - h < 1:
        raise ShapeError(f"no positions with {h} future patches (n={n})")
    latents = encode(patches, state.encoder, state.cfg)
    valid = n - h  # positions 0..n-h-1 predict the next h patches
    pred = _apply_linear(
        T.reshape(latents[:, :valid], (b * valid, state.cfg.d_model)),
        state.heads["horizon"])
    pred = T.reshape(pred, (b, valid, h, p))
    targets = np.stack(
        [patches.values[:, j + 1 : j + 1 + h] for j in range(valid)], axis=1)
    diff = T.sub(pred, targets)
    total = T.mean(T.mul(diff, diff))
    return _single(total, "forecast")


def corrupt_patches(values: np.ndarray, sched: DiffusionSchedule,
                    rng: np.random.Generator):
    """Forward corruption x_t = sqrt(abar_t) x + sqrt(1-abar_t) eps."""
    b, n, p = values.shape
    t_idx = rng.integers(0, sched.n_steps, size=(b, n))
    abar = sched.alpha_bar[t_idx][:, :, None].astype(np.float32)
    eps = rng.standard_normal((b, n, p)).astype(np.float32)
    noised = np.sqrt(abar) * values + np.sqrt(1.0 - abar) * eps
    return noised.astype(np.float32), t_idx, eps


def diffusion_loss(state: ObjectiveState, batch: np.ndarray,
                   sched: DiffusionSchedule,
                   rng: np.random.Generator) -> LossBreakdown:
    patches = PatchBatch.from_windows(batch, state.cfg.patch_len)
    b, n, p = patches.values.shape
    if n < 2:
        raise ShapeError("diffusion loss needs at least 2 patches")
    d = state.cfg.d_model
    noised, _t_idx, _eps = corrupt_patches(patches.values, sched, rng)
    context = encode(patches, state.encoder, state.cfg)  # causal
    noised_flat = T.reshape(Tensor(noised), (b * n, p))
    z_hat = T.reshape(
        T.add(T.matmul(noised_flat, state.encoder["embed.w"]),
              state.encoder["embed.b"]), (b, n, d))
    # decoder sees the noised-patch embedding at n and causal context at n,
    # and predicts the clean next patch
    dec_in = T.concat([z_hat[:, : n - 1], context[:, : n - 1]], axis=2)
    hidden = T.gelu(_apply_linear(
        T.reshape(dec_in, (b * (n - 1), 2 * d)), state.heads["dec1"]))
    pred = T.reshape(_apply_linear(hidden, state.heads["dec2"]),
                     (b, n - 1, p))
    diff = T.sub(pred, patches.values[:, 1:])
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


def jepa_loss(state: ObjectiveState, batch: np.ndarray, mask: MaskSpec,
              rng: np.random.Generator) -> LossBreakdown:
    lam_v = state.ocfg.vicreg_var_weight
    lam_c = state.ocfg.vicreg_cov_weight
    patches = PatchBatch.from_windows(batch, state.cfg.patch_len)
    b, n, _ = patches.values.shape
    pm = sample_mask(mask, rng, b, n)
    student = encode(patches, state.encoder, state.cfg, patch_mask=pm)
    pred = run_predictor(student, state.predictor, state.cfg)
    # teacher sees the full unmasked batch; its weights carry no grad
    target = encode(patches, state.teacher, state.cfg)
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
         "covariance": float(cov_term.data)},
        {"distill": 1.0, "variance": lam_v, "covariance": lam_c})


def lejepa_loss(state: ObjectiveState, view_pair: augment.ViewPair,
                lam: float | None = None, step: int = 0) -> LossBreakdown:
    lam = state.ocfg.lejepa_lambda if lam is None else lam
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must be in [0, 1]")
    p = state.cfg.patch_len
    g_patches = PatchBatch.from_windows(view_pair.teacher_view, p)
    a_patches = PatchBatch.from_windows(view_pair.student_view, p)
    z_g = _pool(encode(g_patches, state.encoder, state.cfg))
    z_a = _pool(encode(a_patches, state.encoder, state.cfg))
    diff = T.sub(z_g, z_a)
    invariance = T.mean(T.mul(diff, diff))
    z_m = T.concat([z_g, z_a], axis=0)
    stat = sigreg.epps_pulley_statistic(z_m, state.ocfg.epps_pulley, step)
    total = T.add(T.mul(invariance, 1.0 - lam), T.mul(stat, lam))
    return LossBreakdown(
        total,
        {"invariance": float(invariance.data), "sigreg": float(stat.data)},
        {"invariance": 1.0 - lam, "sigreg": lam})


def _dino_logits(view: np.ndarray, enc: Weights,
                 heads: dict[str, dict[str, Tensor]], state: ObjectiveState
                 ) -> Tensor:
    patches = PatchBatch.from_windows(view, state.cfg.patch_len)
    pooled = _pool(encode(patches, enc, state.cfg))
    hidden = T.gelu(_apply_linear(pooled, heads["proj1"]))
    return _apply_linear(hidden, heads["proj2"])


def dino_loss(state: ObjectiveState, view_pair: augment.ViewPair
              ) -> LossBreakdown:
    t_s = state.ocfg.dino_student_temp
    t_t = state.ocfg.dino_teacher_temp
    center = state.center
    student_logits = _dino_logits(view_pair.student_view, state.encoder,
                                  state.heads, state)
    teacher_logits = _dino_logits(view_pair.teacher_view, state.teacher,
                                  state.teacher_heads, state).detach()
    p_teacher = T.softmax(T.div(T.sub(teacher_logits, center), t_t))
    log_p_student = T.log_softmax(T.div(student_logits, t_s))
    ce = T.mul(T.tsum(T.mul(p_teacher.detach(), log_p_student), axis=-1), -1.0)
    total = T.mean(ce)
    # running center update (side effect), momentum per config
    m = state.ocfg.dino_center_momentum
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
    objective_cfg: ObjectiveConfig | None = None

    def resolved_objective_cfg(self) -> ObjectiveConfig:
        if self.objective_cfg is not None:
            return self.objective_cfg
        return ObjectiveConfig(objective=self.objective)

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
    ocfg = state.ocfg
    obj = ocfg.objective
    if obj == "mae":
        return mae_loss(state, batch, ocfg.mae_mask, rng)
    if obj == "ntp":
        return ntp_loss(state, batch)
    if obj == "diffusion":
        return diffusion_loss(state, batch, ocfg.diffusion, rng)
    if obj == "jepa":
        return jepa_loss(state, batch, ocfg.jepa_mask, rng)
    if obj == "lejepa":
        pair = augment.make_view_pair(batch, ocfg.dwt, rng,
                                      extra=augment.DEFAULT_STOCHASTIC)
        return lejepa_loss(state, pair, step=step)
    if obj == "dino":
        pair = augment.make_view_pair(batch, ocfg.dwt, rng)
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
    """Run the epoch loop for one objective; deterministic given seed."""
    if cfg.objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    ss = np.random.SeedSequence(cfg.seed)
    init_rng, data_rng, loss_rng, val_rng = [
        np.random.default_rng(s) for s in ss.spawn(4)]
    ocfg = cfg.resolved_objective_cfg()
    state = ObjectiveState(cfg.backbone, ocfg, init_rng)
    params = state.trainable()
    if cfg.objective == "jepa":
        opt = optim.MomentumSGD(params, lr=cfg.resolved_lr())
    else:
        opt = optim.Adam(params, lr=cfg.resolved_lr())

    steps_per_epoch = cfg.steps_per_epoch or max(
        1, len(corpus) // cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    window = min(cfg.window_len, corpus.length)
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
                      objective=cfg.objective, data_source="corpus",
                      seed=cfg.seed, epoch=cfg.epochs)
    return result
