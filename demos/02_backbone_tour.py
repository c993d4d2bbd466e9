"""Patch-Transformer backbone: windows in, per-patch latents out."""

import numpy as np

from tsrepr.backbone import (
    BackboneConfig,
    encode,
    init_encoder,
    instance_norm,
    weights_hash,
)


def main():
    cfg = BackboneConfig(d_model=32, n_layers=2, n_heads=4, patch_len=16,
                         max_patches=8)
    rng = np.random.default_rng(0)
    weights = init_encoder(cfg, rng)
    print("parameter tensors:", len(weights))
    print("weights hash     :", weights_hash(weights)[:16], "...")

    x = rng.standard_normal((4, 128)).astype(np.float32)  # 4 windows
    xn, mu, sd = instance_norm(x)
    latents = encode(xn, weights, cfg)  # cut into 8 patches of 16
    print("latents shape    :", latents.shape)  # (batch, patches, d_model)

    # same seed, same bytes: initialization and the forward pass are
    # deterministic, which is what makes run-level reproducibility possible
    again = init_encoder(cfg, np.random.default_rng(0))
    print("re-init identical:", weights_hash(again) == weights_hash(weights))


if __name__ == "__main__":
    main()
