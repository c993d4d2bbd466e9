"""Pretrain the backbone with two of the six objectives on a toy corpus.

Masked reconstruction (mae) trains everything end to end; the
joint-embedding objective (jepa) keeps an EMA teacher whose parameters
never receive gradients.
"""

import numpy as np

from tsrepr import harness as H
from tsrepr import objectives as O
from tsrepr.backbone import BackboneConfig


def main():
    rng = np.random.default_rng(0)
    corpus = O.ArrayCorpus(H.toy_pretrain_corpus(rng, n_series=60, length=256))
    bb = BackboneConfig(d_model=32, n_layers=2, n_heads=4, patch_len=16,
                        max_patches=8)

    for objective in ("mae", "jepa"):
        cfg = O.PretrainConfig(objective=objective, epochs=6, batch_size=32,
                               steps_per_epoch=10, window_len=128,
                               seed=2003, backbone=bb)
        res = O.pretrain(corpus, cfg)
        print(f"{objective:5s} initial {res.initial_loss:.4f} "
              f"final {res.final_loss:.4f} best-val {res.best_val:.4f}")

    # the loss dispatcher works step-by-step too
    state = O.ObjectiveState(O.PretrainConfig(objective="diffusion",
                                              backbone=bb),
                             np.random.default_rng(1))
    batch = corpus.sample_windows(np.random.default_rng(2), 8, 128)
    out = O.compute_loss(state, batch, np.random.default_rng(3), step=0)
    print("one diffusion step, loss components:", out.components)


if __name__ == "__main__":
    main()
