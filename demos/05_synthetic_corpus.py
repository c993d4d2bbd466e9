"""Synthetic pretraining data: GP kernel compositions and LCM mixing.

Each series is a Gaussian-process draw whose covariance is a random
composition of kernel atoms (periodic, RBF, linear, ...); multichannel
corpora mix latent GPs through Dirichlet weights. Generation is sharded,
seeded per series, and byte-identical regardless of worker count. The
corpus is a tsb dataset directory, the format a run's `dataset_path` reads.
"""

import tempfile

import numpy as np

from tsrepr import synthgen as G, tsb


def main():
    rng = np.random.default_rng(0)
    comp = G.sample_kernel_composition(rng)
    parts = [comp.atoms[0].family]
    for op, atom in zip(comp.operators, comp.atoms[1:]):
        parts += ["+" if op == "add" else "*", atom.family]
    print("composition:", " ".join(parts))

    gram = G.gram_matrix(comp, 128)
    print("gram min eigenvalue:", float(np.linalg.eigvalsh(gram).min()))

    x = G.sample_gp(gram, rng)
    print("one draw: mean %.3f std %.3f" % (x.mean(), x.std()))

    cfg = G.LcmConfig(n_channels=4, series_length=96, series_count=12)
    with tempfile.TemporaryDirectory() as d:
        manifest = G.generate_corpus(cfg, univariate=False, out_dir=d,
                                     n_workers=2, seed=7, shard_size=8)
        print("shards:", manifest.shards)
        fields, series = tsb.read_dataset(d)  # checks counts and checksum
        print("manifest:", fields)
        print("corpus shape:", series.shape)  # (count, channels, length)


if __name__ == "__main__":
    main()
