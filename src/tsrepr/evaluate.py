"""Downstream evaluation: probing, fine-tuning and task metrics.

The probe paths are shared by pretrained and randomly initialized
backbones alike, so measured deltas isolate the pretraining objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import optim
from . import tensor as T
from .backbone import (
    BackboneConfig,
    Weights,
    encode,
    init_linear,
    instance_norm,
    linear,
    stack_weights,
)
from .tensor import ShapeError, Tape, Tensor, backward


# share of the probe windows held out to pick the best epoch, and the
# width of the mlp head's hidden layer and its dropout rate while it trains
VAL_FRACTION = 0.2
HIDDEN = 512
DROPOUT = 0.2

# float32 FFN activations per frozen encode chunk (1 MiB), so each GELU
# pass over a chunk stays in L2; and the fewest token rows a chunk may
# have, because BLAS rounds products of one or two rows differently from
# the same rows inside a larger product
TILE = 2 ** 18
MIN_ROWS = 8


PROBE_MODES = ("linear", "mlp", "finetune")
TASKS = ("classify", "anomaly", "forecast")
# the learning rate a probe trains at when its spec names none
DEFAULT_LR = {"forecast": 2e-4, "classify": 1e-3, "anomaly": 1e-4}


@dataclass
class ProbeSpec:
    """How one probe trains; an mlp head is ``HIDDEN`` units wide."""

    mode: str = "linear"        # one of PROBE_MODES
    task: str = "classify"      # one of TASKS
    epochs: int = 20
    batch_size: int = 64
    lrs: tuple[float, ...] = ()  # grid tried in order; () is DEFAULT_LR
    seed: int = 0

    def __post_init__(self):
        if self.mode not in PROBE_MODES:
            raise ValueError(f"unknown probe mode {self.mode!r}")
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not all(math.isfinite(lr) and lr > 0 for lr in self.lrs):
            raise ValueError(f"learning rates must be finite and > 0, "
                             f"got {self.lrs}")

    @property
    def freeze_backbone(self) -> bool:
        return self.mode != "finetune"


# ---------------------------------------------------------------------------
# feature extraction


def _encode_batched(x: np.ndarray, weights: Weights, cfg: BackboneConfig
                    ) -> np.ndarray:
    """Frozen-backbone latents (n, N, d) for (n, T) inputs; no tape.

    Windows go through the backbone in chunks of about ``TILE`` FFN
    activations, each of at least ``MIN_ROWS`` tokens unless the whole
    input has fewer (a short tail joins the chunk before it), which keeps
    the bits of one encode over the whole stack.
    """
    n, n_patches = x.shape[0], max(1, x.shape[1] // cfg.patch_len)
    step = max(TILE // (n_patches * cfg.ffn_ratio * cfg.d_model),
               -(-MIN_ROWS // n_patches))
    starts = list(range(0, n, step))
    if len(starts) > 1 and (n - starts[-1]) * n_patches < MIN_ROWS:
        starts.pop()
    return np.concatenate([
        encode(x[start:end], weights, cfg).data
        for start, end in zip(starts, starts[1:] + [n])], axis=0)


# ---------------------------------------------------------------------------
# probe heads


def _init_head(spec: ProbeSpec, d_in: int, d_out: int,
               rng: np.random.Generator) -> dict[str, Tensor]:
    if spec.mode == "mlp":
        return {**init_linear(rng, d_in, HIDDEN, "1"),
                **init_linear(rng, HIDDEN, d_out, "2")}
    return init_linear(rng, d_in, d_out)


def _head_forward(head: dict[str, Tensor], x: Tensor,
                  rng: np.random.Generator | None = None) -> Tensor:
    """Head output; an mlp head of stacked models drops hidden units when
    ``rng`` is given, with one mask for all the models on the leading axis."""
    if "w1" in head:
        h = T.gelu(linear(x, head, "1"))
        if rng is not None:
            keep = (rng.random(h.shape[1:]) >= DROPOUT).astype(np.float32)
            h = T.mul(h, keep / (1.0 - DROPOUT))
        return linear(h, head, "2")
    return linear(x, head)


def frozen_features(weights: Weights, cfg: BackboneConfig, task: str,
                    x: np.ndarray) -> np.ndarray:
    """Probe features of raw (n, T) windows under a frozen backbone.

    The windows are instance-normalized, encoded without a tape and
    reduced for ``task``: (n, N*d) for forecast, (n, d) for classify,
    (n, N, d) for anomaly.
    """
    xn, _, _ = instance_norm(np.asarray(x, dtype=np.float32))
    latents = _encode_batched(xn, weights, cfg)
    if task == "forecast":
        return latents.reshape(len(latents), -1)
    if task == "classify":
        return latents.mean(axis=1)
    return latents


def _cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of (..., B, C) logits over the B rows."""
    logp = T.log_softmax(logits)
    picked = logp[..., np.arange(labels.shape[0]), labels]
    return T.mul(T.mean(picked, axis=-1), -1.0)


@dataclass
class ProbeResult:
    head: dict[str, Tensor]
    backbone: Weights
    history: list[dict] = field(default_factory=list)
    best_val: float = np.inf


def probe_train(weights: Weights, cfg: BackboneConfig, spec: ProbeSpec,
                x: np.ndarray, y: np.ndarray) -> ProbeResult:
    """Train a head on top of the backbone at each lr of the grid.

    ``x`` is (n, T) raw windows (instance-normalized internally for the
    backbone); ``y`` is (n,) int labels for classify, (n, horizon) floats
    for forecast, (n, N, patch_len) normalized patch targets for anomaly.
    One head trains per lr in ``spec.lrs`` (the task's ``DEFAULT_LR`` when
    empty), and the lowest ``best_val`` wins; on a tie the earlier lr
    does.  Fine-tuning trains a fresh copy of the backbone per lr and
    returns its best-epoch state with the best-epoch head.

    The M lrs train in lockstep as one stacked model (see
    ``backbone.stack_weights``): one rng stream draws the split, the head
    init, each epoch's order and each dropout mask once for all of them,
    the loss is the sum of the per-model losses, and each model keeps its
    own best epoch.  Each model computes the bits a call with its lr alone
    computes.  A frozen backbone is encoded once for the whole grid; a
    fine-tuned one holds M backbone copies, their best-epoch copies and
    their Adam moments at once.

    Probes see the caller's parameters only through read-only views, so a
    write to one raises and the caller's dict, arrays and flags are never
    changed.  A frozen mode returns those views as ``backbone``, which
    keeps the scoring calls on it read-only too.
    """
    if x.shape[0] != y.shape[0] or x.shape[0] < 2:
        raise ShapeError("x/y length mismatch or too few samples")
    if spec.task == "classify" and np.min(y) < 0:
        raise ShapeError("negative class index")
    views = {}
    for k, t in weights.items():
        view = t.data.view()
        view.flags.writeable = False
        views[k] = Tensor(view, _check=False)
    if spec.freeze_backbone:
        inputs = frozen_features(views, cfg, spec.task, x)
    else:
        inputs, _, _ = instance_norm(np.asarray(x, dtype=np.float32))
    lrs = spec.lrs or (DEFAULT_LR[spec.task],)
    m = len(lrs)
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 31)))

    n = x.shape[0]
    n_val = max(1, int(round(VAL_FRACTION * n)))
    perm = rng.permutation(n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]

    # (n, horizon) forecast or (n, N, patch_len) anomaly targets
    d_out = int(np.max(y)) + 1 if spec.task == "classify" else y.shape[-1]
    n_patches = x.shape[1] // cfg.patch_len
    d_feat = cfg.d_model * (n_patches if spec.task == "forecast" else 1)
    # heads broadcast against (M, B, d) features, or (M, B, N, d) ones
    unstacked = _init_head(spec, d_feat, d_out, rng)
    head = stack_weights(unstacked, m, rank=3 if spec.task == "anomaly" else 2)
    params = dict(head)
    backbone = views
    if not spec.freeze_backbone:
        backbone = stack_weights(views, m)
        params.update({f"backbone.{k}": v for k, v in backbone.items()})
    opt = optim.Adam(params, lr=lrs)

    def batch_loss(idx, train: bool) -> Tensor:
        """(M,) losses of the models on the windows ``idx``."""
        if spec.freeze_backbone:
            feats = Tensor(inputs[idx], _check=False)
        else:
            latents = encode(inputs[idx], backbone, cfg)
            if spec.task == "forecast":
                feats = T.reshape(latents, (m, len(idx), d_feat))
            elif spec.task == "classify":
                feats = T.mean(latents, axis=-2)
            else:
                feats = latents
        out = _head_forward(head, feats, rng if train else None)
        if spec.task == "classify":
            return _cross_entropy(out, y[idx])
        diff = T.sub(out, y[idx])
        return T.mean(T.mul(diff, diff), axis=tuple(range(1, diff.ndim)))

    best_val = np.full(m, np.inf)
    best = {k: t.data.copy() for k, t in params.items()}
    histories = [[] for _ in lrs]
    for epoch in range(spec.epochs):
        order = rng.permutation(train_idx)
        ep_loss, n_batches = np.zeros(m), 0
        for start in range(0, len(order), spec.batch_size):
            idx = order[start : start + spec.batch_size]
            if len(idx) < 2:
                continue
            optim.zero_grads(params)
            with Tape():
                losses = batch_loss(idx, train=True)
                backward(T.tsum(losses))
            opt.step()
            ep_loss += losses.data
            n_batches += 1
        val = batch_loss(val_idx, train=False).data
        for hist, loss, v in zip(histories, ep_loss, val):
            hist.append({"epoch": epoch,
                         "train_loss": float(loss) / max(1, n_batches),
                         "val_loss": float(v)})
        better = val < best_val
        if better.any():
            best_val[better] = val[better]
            for k, t in params.items():
                best[k][better] = t.data[better]

    # the first lr with the lowest best_val, unstacked; a model whose
    # validation loss never fell keeps its initial head and last backbone
    win = int(np.argmin(best_val))
    if best_val[win] == np.inf:
        best.update({k: t.data for k, t in params.items() if k not in head})

    def unstack(prefix, like):
        return {k: Tensor(best[prefix + k][win].reshape(t.shape).copy(),
                          _check=False) for k, t in like.items()}

    head = unstack("", unstacked)
    if not spec.freeze_backbone:
        backbone = unstack("backbone.", views)
    return ProbeResult(head, backbone, histories[win], float(best_val[win]))


# ---------------------------------------------------------------------------
# task metrics


def forecast_metrics(preds: np.ndarray, targets: np.ndarray
                     ) -> tuple[float, float]:
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if preds.shape != targets.shape:
        raise ShapeError("prediction/target shape mismatch")
    if preds.size == 0:
        raise ShapeError("empty input")
    err = preds - targets
    return float(np.mean(err ** 2)), float(np.mean(np.abs(err)))


def predict_head(weights: Weights, cfg: BackboneConfig,
                 head: dict[str, Tensor], spec: ProbeSpec,
                 x: np.ndarray) -> np.ndarray:
    feats = frozen_features(weights, cfg, spec.task, x)
    return _head_forward(head, Tensor(feats, _check=False)).data


def anomaly_scores(weights: Weights, cfg: BackboneConfig,
                   head: dict[str, Tensor], series: np.ndarray) -> np.ndarray:
    """Per-time-point squared reconstruction error over a long series.

    The series is cut into non-overlapping windows of max_patches patches;
    a trailing partial window is evaluated right-aligned, and a point two
    windows cover keeps the earlier window's error.  All windows are
    normalized, encoded and reconstructed as one batch.
    """
    series = np.asarray(series, dtype=np.float32)
    win = cfg.patch_len * min(cfg.max_patches, 32)
    t = series.shape[0]
    scores = np.zeros(t, dtype=np.float64)
    usable = (min(win, t) // cfg.patch_len) * cfg.patch_len
    if usable == 0:
        return scores
    starts = list(range(0, max(t - win + 1, 1), win))
    if t > win and starts[-1] + win < t:
        starts.append(t - win)
    xn, _, _ = instance_norm(np.stack([series[s : s + usable] for s in starts]))
    lat = _encode_batched(xn, weights, cfg)  # (windows, N, d)
    recon = _head_forward(head, Tensor(lat, _check=False)).data
    err = (recon.reshape(xn.shape) - xn) ** 2
    for s, e in zip(reversed(starts), err[::-1]):  # earlier windows win
        scores[s : s + usable] = e
    return scores


def threshold_by_percentile(train_scores: np.ndarray, test_scores: np.ndarray,
                            percentile: float) -> np.ndarray:
    """Flag the top ``percentile`` percent of the concatenated scores.

    Threshold is the (100 - percentile) quantile of train+test scores;
    ties at the threshold are inclusive (>=).
    """
    if not 0.0 < percentile < 100.0:
        raise ValueError("percentile must be in (0, 100)")
    train_scores = np.asarray(train_scores, dtype=np.float64)
    test_scores = np.asarray(test_scores, dtype=np.float64)
    if train_scores.size == 0 or test_scores.size == 0:
        raise ShapeError("empty score arrays")
    pool = np.concatenate([train_scores, test_scores])
    threshold = np.quantile(pool, 1.0 - percentile / 100.0)
    return test_scores >= threshold


def point_adjust(preds: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Mark a whole labeled anomalous run detected if any point in it is."""
    preds = np.asarray(preds, dtype=bool)
    labels = np.asarray(labels, dtype=bool)
    if preds.shape != labels.shape:
        raise ShapeError("prediction/label length mismatch")
    adjusted = preds.copy()
    t = labels.shape[0]
    i = 0
    while i < t:
        if labels[i]:
            j = i
            while j < t and labels[j]:
                j += 1
            if preds[i:j].any():
                adjusted[i:j] = True
            i = j
        else:
            i += 1
    return adjusted


def f1_score(preds: np.ndarray, labels: np.ndarray
             ) -> tuple[float, float, float]:
    preds = np.asarray(preds, dtype=bool)
    labels = np.asarray(labels, dtype=bool)
    if preds.shape != labels.shape:
        raise ShapeError("prediction/label length mismatch")
    tp = int(np.sum(preds & labels))
    fp = int(np.sum(preds & ~labels))
    fn = int(np.sum(~preds & labels))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return precision, recall, f1


def classify_head_eval(weights: Weights, cfg: BackboneConfig,
                       head: dict[str, Tensor], spec: ProbeSpec,
                       x: np.ndarray, labels: np.ndarray) -> float:
    logits = predict_head(weights, cfg, head, spec, x)
    if np.max(labels) >= logits.shape[1] or np.min(labels) < 0:
        raise ShapeError("unseen class index")
    return float(np.mean(np.argmax(logits, axis=1) == labels))
