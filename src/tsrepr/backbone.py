"""Channel-independent patch-Transformer encoder shared by all objectives.

Weights live in flat ``dict[str, Tensor]`` maps so the optimizer, the EMA
teacher update and the checkpoint format can treat every parameter
uniformly.  The encoder is pre-LN with a learned positional table and a
4x GELU feed-forward.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as T
from . import tsb
from .tensor import Tensor, ShapeError, NumericError

Weights = dict[str, Tensor]


@dataclass
class BackboneConfig:
    patch_len: int = 16
    d_model: int = 256
    n_heads: int | None = None  # 16 if d_model=128, 8 if d_model=256
    n_layers: int = 8
    n_predictor_layers: int = 4
    causal: bool = False
    max_patches: int = 128
    ffn_ratio: int = 4

    def __post_init__(self):
        if self.n_heads is None:
            self.n_heads = 16 if self.d_model == 128 else 8
        for name in ("patch_len", "d_model", "n_heads", "n_layers",
                     "n_predictor_layers", "max_patches", "ffn_ratio"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")


# ---------------------------------------------------------------------------
# input plumbing


def patchify(windows: np.ndarray, patch_len: int) -> np.ndarray:
    """Cut (B, T) windows into (B, T // patch_len, patch_len) float32
    patches; drop the remainder."""
    windows = np.asarray(windows, dtype=np.float32)
    b, t = windows.shape
    n = t // patch_len
    if n < 1:
        raise ShapeError("window shorter than one patch")
    return windows[:, : n * patch_len].reshape(b, n, patch_len)


def instance_norm(window: np.ndarray, eps: float = 1e-5):
    """Standardize each row of a (B, T) batch; returns (normed, mu, sigma)."""
    window = np.asarray(window, dtype=np.float32)
    mu = window.mean(axis=-1, keepdims=True, dtype=np.float64)
    sigma = np.sqrt(window.astype(np.float64).var(axis=-1, keepdims=True) + eps)
    normed = ((window - mu) / sigma).astype(np.float32)
    return normed, mu.astype(np.float32), sigma.astype(np.float32)


# ---------------------------------------------------------------------------
# parameter initialization


def _param(rng: np.random.Generator, shape, scale: float) -> Tensor:
    return Tensor(
        rng.normal(0.0, scale, size=shape).astype(np.float32), requires_grad=True
    )


def _zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)


def _ones(shape) -> Tensor:
    return Tensor(np.ones(shape, dtype=np.float32), requires_grad=True)


def init_linear(rng, d_in: int, d_out: int, suffix: str = "") -> Weights:
    """Dense layer ``w{suffix}`` ~ N(0, 1/d_in), then zero bias ``b{suffix}``."""
    return {f"w{suffix}": _param(rng, (d_in, d_out), 1.0 / math.sqrt(d_in)),
            f"b{suffix}": _zeros((d_out,))}


def linear(x: Tensor, w: Weights, suffix: str = "") -> Tensor:
    return T.add(T.matmul(x, w[f"w{suffix}"]), w[f"b{suffix}"])


def init_layer(rng, prefix: str, d_model: int, ffn_ratio: int) -> Weights:
    s = 1.0 / math.sqrt(d_model)
    d_ff = ffn_ratio * d_model
    w: Weights = {}
    w[f"{prefix}.ln1.g"] = _ones((d_model,))
    w[f"{prefix}.ln1.b"] = _zeros((d_model,))
    for name in ("wq", "wk", "wv", "wo"):
        w[f"{prefix}.attn.{name}"] = _param(rng, (d_model, d_model), s)
    w[f"{prefix}.attn.bo"] = _zeros((d_model,))
    w[f"{prefix}.ln2.g"] = _ones((d_model,))
    w[f"{prefix}.ln2.b"] = _zeros((d_model,))
    w[f"{prefix}.ffn.w1"] = _param(rng, (d_model, d_ff), s)
    w[f"{prefix}.ffn.b1"] = _zeros((d_ff,))
    w[f"{prefix}.ffn.w2"] = _param(rng, (d_ff, d_model), 1.0 / math.sqrt(d_ff))
    w[f"{prefix}.ffn.b2"] = _zeros((d_model,))
    return w


def init_encoder(cfg: BackboneConfig, rng: np.random.Generator) -> Weights:
    w: Weights = {}
    s = 1.0 / math.sqrt(cfg.patch_len)
    w["embed.w"] = _param(rng, (cfg.patch_len, cfg.d_model), s)
    w["embed.b"] = _zeros((cfg.d_model,))
    w["pos"] = _param(rng, (cfg.max_patches, cfg.d_model), 0.02)
    w["mask_token"] = _param(rng, (cfg.d_model,), 0.02)
    for i in range(cfg.n_layers):
        w.update(init_layer(rng, f"layer{i}", cfg.d_model, cfg.ffn_ratio))
    w["final.g"] = _ones((cfg.d_model,))
    w["final.b"] = _zeros((cfg.d_model,))
    return w


def init_predictor(cfg: BackboneConfig, rng: np.random.Generator) -> Weights:
    w: Weights = {}
    w["pred.pos"] = _param(rng, (cfg.max_patches, cfg.d_model), 0.02)
    for i in range(cfg.n_predictor_layers):
        w.update(init_layer(rng, f"pred{i}", cfg.d_model, cfg.ffn_ratio))
    w["pred.final.g"] = _ones((cfg.d_model,))
    w["pred.final.b"] = _zeros((cfg.d_model,))
    return w


def clone_weights(w: Weights) -> Weights:
    return {k: Tensor(v.data.copy(), _check=False) for k, v in w.items()}


# encoder weights that act on (B, N, d) activations; the others act on the
# (B*N, d) rows of a product
_TOKEN_WISE = re.compile(r"pos|mask_token|(.*\.)?(ln\d|final)\.[gb]")


def stack_weights(w: Weights, m: int, rank: int | None = None) -> Weights:
    """``m`` trainable copies of ``w`` on a new leading model axis, for
    :func:`encode` and the fused ops to run ``m`` models in lockstep.

    Each copy gets unit axes after the model axis, up to ``rank`` axes
    per model, so that it broadcasts against the activations it meets.
    The default is the encoder's layout: rank 3, (B, N, d), for the
    position table, the mask token and the norms, and rank 2, (B*N, d),
    for the rest.
    """
    out = {}
    for k, t in w.items():
        r = rank or (3 if _TOKEN_WISE.fullmatch(k) else 2)
        one = t.data.reshape((1,) * (r + 1 - t.ndim) + t.shape)
        out[k] = Tensor(np.repeat(one, m, axis=0), requires_grad=True,
                        _check=False)
    return out


# ---------------------------------------------------------------------------
# forward pass


def _causal_bias(n: int) -> np.ndarray:
    """Additive (1, 1, N, N) bias: large negative at future keys."""
    tri = np.triu(np.ones((n, n), dtype=bool), k=1)
    return np.where(tri, np.float32(-1e9), np.float32(0.0))[None, None]


def run_stack(x: Tensor, w: Weights, cfg: BackboneConfig, layer_prefixes,
              final_prefix: str, attn_bias=None) -> Tensor:
    for prefix in layer_prefixes:
        a, f = f"{prefix}.attn", f"{prefix}.ffn"
        normed = T.layer_norm(x, w[f"{prefix}.ln1.g"], w[f"{prefix}.ln1.b"])
        x = T.attention(normed, w[f"{a}.wq"], w[f"{a}.wk"], w[f"{a}.wv"],
                        w[f"{a}.wo"], w[f"{a}.bo"], cfg.n_heads, attn_bias,
                        residual=x)
        normed = T.layer_norm(x, w[f"{prefix}.ln2.g"], w[f"{prefix}.ln2.b"])
        x = T.ffn(normed, w[f"{f}.w1"], w[f"{f}.b1"], w[f"{f}.w2"],
                  w[f"{f}.b2"], residual=x)
    out = T.layer_norm(x, w[f"{final_prefix}.g"], w[f"{final_prefix}.b"])
    if not np.all(np.isfinite(out.data)):
        raise NumericError("non-finite activation after final norm")
    return out


def encode(windows: np.ndarray, weights: Weights, cfg: BackboneConfig,
           patch_mask: np.ndarray | None = None) -> Tensor:
    """Encode (B, T) windows, cut into ``cfg.patch_len`` patches, to
    per-patch latents (B, N, d_model).

    ``patch_mask`` (B, N) replaces masked patch embeddings by the learned
    mask token before positional encoding (MAE/JEPA style).  Weights from
    :func:`stack_weights` encode the same windows with M models at once,
    to (M, B, N, d_model), each slice with the bits of its own encode.
    """
    patches = patchify(windows, cfg.patch_len)
    b, n, p = patches.shape
    if n > cfg.max_patches:
        raise ShapeError(f"{n} patches exceed positional table {cfg.max_patches}")
    lead = weights["embed.w"].shape[:-2]  # (M,) when stacked, else ()
    flat = T.reshape(Tensor(patches, _check=True), (b * n, p))
    x = T.reshape(T.add(T.matmul(flat, weights["embed.w"]), weights["embed.b"]),
                  lead + (b, n, cfg.d_model))
    if patch_mask is not None:
        mask3 = np.asarray(patch_mask, dtype=bool)[:, :, None]
        tok = T.reshape(weights["mask_token"], lead + (1, 1, cfg.d_model))
        x = T.add(T.mul(x, (~mask3).astype(np.float32)),
                  T.mul(tok, mask3.astype(np.float32)))
    x = T.add(x, weights["pos"][..., :n, :])
    bias = _causal_bias(n) if cfg.causal else None
    return run_stack(x, weights, cfg, [f"layer{i}" for i in range(cfg.n_layers)],
                     "final", attn_bias=bias)


def run_predictor(latents: Tensor, weights: Weights, cfg: BackboneConfig
                  ) -> Tensor:
    n = latents.shape[1]
    x = T.add(latents, weights["pred.pos"][:n])
    return run_stack(x, weights, cfg,
                     [f"pred{i}" for i in range(cfg.n_predictor_layers)],
                     "pred.final")


# ---------------------------------------------------------------------------
# EMA teacher


def ema_update(teacher: Weights, student: Weights, momentum: float) -> None:
    """teacher <- momentum * teacher + (1 - momentum) * student, in place,
    for each key the teacher holds; the student may hold more."""
    if not 0.0 <= momentum <= 1.0:
        raise ValueError("momentum must be in [0, 1]")
    m = np.float32(momentum)
    for k, t in teacher.items():
        s = student.get(k)
        if s is None or t.data.shape != s.data.shape:
            raise ShapeError(f"student lacks {k} of shape {t.data.shape}")
        t.data *= m
        t.data += (np.float32(1.0) - m) * s.data


# ---------------------------------------------------------------------------
# checkpoints


def weights_hash(w: Weights) -> str:
    h = hashlib.sha256()
    for k in sorted(w):
        h.update(k.encode())
        h.update(np.ascontiguousarray(w[k].data).tobytes())
    return h.hexdigest()


def save_backbone(path, weights: Weights, cfg: BackboneConfig, *,
                  objective: str = "none", data_source: str = "none",
                  seed: int = 0, epoch: int = 0) -> None:
    header = {
        "config": asdict(cfg),
        "objective": objective,
        "data_source": data_source,
        "seed": seed,
        "epoch": epoch,
    }
    tsb.save_checkpoint(path, header, {k: v.data for k, v in weights.items()})


def load_backbone(path) -> tuple[Weights, BackboneConfig, dict]:
    header, tensors = tsb.load_checkpoint(path)
    try:
        cfg = BackboneConfig(**header["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise tsb.FormatError(f"{path}: bad header config: {exc}") from exc
    weights = {k: Tensor(v, requires_grad=True, _check=False)
               for k, v in tensors.items()}
    return weights, cfg, header
