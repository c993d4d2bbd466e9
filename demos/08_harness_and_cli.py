"""End-to-end experiment harness: pretrain, probe, aggregate, resume.

One RunConfig drives pretraining, frozen-probe evaluation over several
seeds, and a metrics.csv with mean/std rows. The same thing is available
from the shell:

    tsrepr pretrain --config run.ini
    tsrepr evaluate --config run.ini
    tsrepr export-metrics --out metrics.csv runs/demo/metrics.csv

and `tsrepr sweep --config run.ini KEY V1,V2,...` runs one child per value
of any config key but run_id, output_root, seeds and tasks, for example
`n_layers 1,2,4` for a depth curve or `probe_mode linear,finetune`.
"""

import tempfile

from tsrepr import harness as H


def main():
    with tempfile.TemporaryDirectory() as root:
        for objective in ("none", "mae"):
            cfg = H.RunConfig(
                run_id=f"demo_{objective}", objective=objective,
                seeds=(1, 2), output_root=root,
                tasks=("classify", "forecast"),
                d_model=16, n_layers=1, n_heads=2, patch_len=8,
                max_patches=16, epochs=2, steps_per_epoch=5,
                corpus_series=30, corpus_length=256, probe_epochs=4,
                context_len=64, horizon=16)
            records = H.run_experiment(cfg)
            for r in records:
                if r.seed == "mean":
                    print(f"{objective:4s} {r.task:8s} {r.metric:12s} "
                          f"{r.value:.4f}")

        # the run directory is resumable: a second call finds the per-seed
        # record files and does no work
        again = H.run_experiment(cfg)
        print("resume returns same records:",
              [r.to_row() for r in again] == [r.to_row() for r in records])

        # the same config round-trips through the INI format the CLI reads
        path = f"{root}/run.ini"
        H.save_run_config(cfg, path)
        print("config round-trip:", H.load_run_config(path) == cfg)


if __name__ == "__main__":
    main()
