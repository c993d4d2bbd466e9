"""Command-line entry point.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure.  Relative data paths resolve under TSB_DATA_ROOT when set.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import augment, harness, synthgen, tsb
from .harness import ConfigError, DataError, RunConfig, data_root
from .tensor import DomainError, NumericError, ShapeError


def _load_config(args) -> RunConfig:
    if args.config:
        return harness.load_run_config(args.config)
    return RunConfig()


def cmd_generate(args) -> int:
    for name, low in (("length", 2), ("n_series", 1), ("channels", 0),
                      ("workers", 1), ("seed", 0)):
        if getattr(args, name) < low:
            raise ConfigError(f"--{name.replace('_', '-')} must be >= {low}")
    out = harness.check_out_dir(data_root() / args.out, "--out")
    cfg = synthgen.LcmConfig(
        n_channels=max(1, args.channels),
        series_length=args.length, series_count=args.n_series)
    manifest = synthgen.generate_corpus(
        cfg, univariate=args.channels == 0, out_dir=out,
        n_workers=args.workers, seed=args.seed)
    print(f"wrote {sum(manifest.counts)} series "
          f"({len(manifest.shards)} shards) to {out}")
    return 0


def cmd_pretrain(args) -> int:
    cfg = _load_config(args)
    if cfg.objective == "none":
        raise ConfigError("pretrain requires an objective other than 'none'")
    if args.seed is not None and args.seed < 0:
        raise ConfigError("--seed must be >= 0")
    # a seed's checkpoint does not depend on the config's other seeds
    ckpt_dir = harness.claim_run_dir(cfg) / "checkpoints"
    for seed in cfg.seeds if args.seed is None else (args.seed,):
        harness._backbone_for_seed(cfg, seed, ckpt_dir)
        print(f"seed {seed}: checkpoint at "
              f"{ckpt_dir / f'backbone_seed{seed}.tsbc'}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    records = harness.run_experiment(cfg)
    print(f"{len(records)} metric rows -> {cfg.run_dir() / 'metrics.csv'}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    records, failures = harness.sweep(args.key, values, cfg)
    print(f"{len(records)} combined rows; {len(failures)} failed children")
    for value, err in failures:
        print(f"  {value}: {err}", file=sys.stderr)
    return 0


def cmd_augment_preview(args) -> int:
    if args.seed < 0:
        raise ConfigError("--seed must be >= 0")
    out = harness.check_out_dir(data_root() / args.out, "--out")
    if args.input:
        batch = tsb.read_tensor(data_root() / args.input)
        if batch.ndim == 1:
            batch = batch[None, :]
    else:
        rng = np.random.default_rng(args.seed)
        batch = harness.toy_pretrain_corpus(rng, 4, 256)
    rng = np.random.default_rng(args.seed)
    pair = augment.make_view_pair(batch, rng, stochastic=True)
    out.mkdir(parents=True, exist_ok=True)
    tsb.write_tensor(out / "original.tsb", batch.astype(np.float32))
    tsb.write_tensor(out / "teacher.tsb", pair.teacher_view)
    tsb.write_tensor(out / "student.tsb", pair.student_view)
    pyr = augment.dwt_forward(
        batch[0], augment.max_dwt_level(batch.shape[1], augment.LEVEL),
        augment.FAMILY)
    with open(out / "coefficients.csv", "w", encoding="utf-8") as fh:
        fh.write("band,index,value\n")
        for i, v in enumerate(pyr.approx):
            fh.write(f"approx,{i},{v:.7g}\n")
        for b, band in enumerate(pyr.details):
            for i, v in enumerate(band):
                fh.write(f"detail{b},{i},{v:.7g}\n")
    drift = float(np.mean((pair.teacher_view - batch) ** 2))
    spread = float(np.mean((pair.student_view - pair.teacher_view) ** 2))
    print(f"wrote views to {out}; teacher mse {drift:.4f}, "
          f"student-teacher mse {spread:.4f}")
    return 0


def cmd_export_metrics(args) -> int:
    records, out = [], data_root() / args.out
    if out.is_dir():
        raise ConfigError(f"--out {out} is a directory")
    harness.check_out_dir(out.parent, "the directory of --out")
    for path in args.inputs:
        records += harness.read_metrics(data_root() / path)
    harness.write_metrics(out, records)
    print(f"{len(records)} rows -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsrepr",
        description="Self-supervised time-series pretraining and evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(p):
        p.add_argument("--config", default="", help="run config (.ini)")
        return p

    p = sub.add_parser("generate", help="synthesize a GP corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--n-series", type=int, default=100)
    p.add_argument("--length", type=int, default=512)
    p.add_argument("--channels", type=int, default=0,
                   help="0 for univariate, else channel count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_generate)

    p = with_config(sub.add_parser("pretrain", help="pretrain backbones"))
    p.add_argument("--seed", type=int, default=None,
                   help="pretrain this one seed (default: the config's seeds)")
    p.set_defaults(func=cmd_pretrain)

    p = with_config(sub.add_parser("evaluate", help="run the task battery"))
    p.set_defaults(func=cmd_evaluate)

    p = with_config(sub.add_parser(
        "sweep", help="run one child per value of a config key"))
    p.add_argument("key", help="a RunConfig key, e.g. n_layers")
    p.add_argument("values", help="comma-separated values")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("augment-preview", help="write teacher/student views")
    p.add_argument("--input", default="", help="TSB1 batch (default: demo)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_augment_preview)

    p = sub.add_parser("export-metrics", help="merge metric CSV files")
    p.add_argument("--out", required=True)
    p.add_argument("inputs", nargs="+")
    p.set_defaults(func=cmd_export_metrics)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, tsb.FormatError, FileNotFoundError, ShapeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericError, DomainError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
