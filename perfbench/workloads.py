"""Workload plans, the timed passes and the correctness checks.

Every workload times the six pretraining objectives at one backbone shape
and one single-seed ``run_experiment``, so each run reports every
end-to-end metric.  ``toy`` is the acceptance shape, where step time is
Python overhead per tape op and the per-row wavelet loop; its experiment
is the ``RunConfig`` default with fine-tune probes (taped encode at batch
16).  ``paper`` is the paper's backbone and window, where matmuls, GELU
and tape memory dominate; its experiment uses that backbone with frozen
linear probes (encode with no tape active).
"""

from __future__ import annotations

import json
import math
import struct
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from tsrepr import harness, objectives, tsb
from tsrepr.backbone import BackboneConfig
from tsrepr.objectives import OBJECTIVES, ArrayCorpus, PretrainConfig

import tracing

WORKLOADS = ("toy", "paper")
REFERENCE_PATH = Path(__file__).with_name("reference.json")
REFERENCE_SEED = 2003
# Reference losses must agree to this relative tolerance (plus REF_ATOL).
# Measured on the reference replay: a float32 Abramowitz-Stegun erf in GELU
# moved the losses by at most 2.3e-6 and float64-accumulated matmuls by
# 8.1e-6, while scaling GELU's gradient by 0.97 moved them by 4.8e-3.
REF_RTOL = 1e-3
REF_ATOL = 1e-6

TAPE_OPS = ("add", "sub", "mul", "div", "matmul", "transpose", "reshape",
            "tslice", "concat", "expand", "tsum", "mean", "sqrt", "cos", "sin",
            "relu", "gelu", "softmax", "log_softmax")

END_TO_END = ([(f"step_ms.{o}", "ms") for o in OBJECTIVES]
              + [("experiment_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")])
PER_LAYER = (
    [(f"tensor.records_per_step.{o}", "count") for o in OBJECTIVES]
    + [(f"tensor.records.{op}", "count") for op in TAPE_OPS + ("other",)]
    + [(f"tensor.backward_ms.{o}", "ms") for o in OBJECTIVES]
    + [(f"tensor.tape_mb.{o}", "MB") for o in OBJECTIVES]
    + [(f"backbone.encode_ms.{o}", "ms") for o in OBJECTIVES]
    + [("backbone.predictor_ms", "ms"), ("backbone.ema_ms.jepa", "ms"),
       ("backbone.ema_ms.dino", "ms"), ("backbone.encode_infer_ms", "ms"),
       ("augment.view_pair_ms.lejepa", "ms"), ("augment.view_pair_ms.dino", "ms"),
       ("sigreg.statistic_ms", "ms"), ("sigreg.records_per_call", "count")]
    + [(f"objectives.loss_self_ms.{o}", "ms") for o in OBJECTIVES]
    + [("objectives.data_ms", "ms")]
    + [(f"objectives.val_ms.{o}", "ms") for o in OBJECTIVES]
    + [(f"optim.step_ms.{o}", "ms") for o in OBJECTIVES]
    + [("synthgen.series_ms", "ms"), ("synthgen.series", "count"),
       ("evaluate.probe_train_ms", "ms"), ("evaluate.probe_calls", "count"),
       ("evaluate.scoring_ms", "ms"), ("harness.self_ms", "ms"),
       ("tsb.checkpoint_ms", "ms"), ("tsb.checkpoint_bytes", "bytes")]
    # the traced run's own end-to-end figures; minus the untraced run's,
    # they give the tracing overhead
    + [(f"trace.{name}", unit) for name, unit in END_TO_END
       if name.startswith("step_ms.") or name == "experiment_s"])


@dataclass(frozen=True)
class Plan:
    name: str
    backbone: BackboneConfig
    batch_size: int
    window_len: int
    steps_per_epoch: int
    epochs: int  # per pretrain call; the first epoch of a call is not timed
    rounds: int  # pretrain calls per objective, in turn with the others
    corpus_length: int
    experiment: harness.RunConfig  # seeds and output_root are set per pass
    reference_batch: int
    reference_steps: int


def plan(name: str, seconds: float) -> Plan:
    """The fixed amount of work one run of ``name`` does for ``seconds``.

    The experiment's work is fixed.  Pretraining rounds fill the rest of
    ``seconds`` by a per-shape estimate of one epoch of all six objectives
    on one core, so the work depends only on the arguments.
    """
    if name == "toy":
        bb = BackboneConfig(d_model=32, n_layers=2, n_heads=4, patch_len=16,
                            max_patches=8)
        exp = harness.RunConfig(objective="lejepa", synthetic_family="gp",
                                probe_mode="finetune")
        return Plan(name, bb, batch_size=32, window_len=128, steps_per_epoch=10,
                    epochs=3, rounds=_rounds(seconds, 15.5, 3 * 1.5),
                    corpus_length=256, experiment=exp,
                    reference_batch=8, reference_steps=2)
    if name == "paper":
        bb = BackboneConfig(d_model=256, n_layers=8, n_heads=8, patch_len=16)
        exp = harness.RunConfig(objective="lejepa", synthetic_family="gp",
                                probe_mode="linear", d_model=256, n_layers=8,
                                n_heads=8, window_len=336, batch_size=16,
                                corpus_series=64, epochs=2, steps_per_epoch=1)
        return Plan(name, bb, batch_size=16, window_len=336, steps_per_epoch=1,
                    epochs=2, rounds=_rounds(seconds, 11.0, 2 * 5.45),
                    corpus_length=512, experiment=exp,
                    reference_batch=4, reference_steps=1)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def _rounds(seconds: float, experiment_s: float, round_s: float) -> int:
    # two rounds at least, so each objective is timed at two moments
    return max(2, round((seconds - experiment_s) / round_s))


def make_inputs(p: Plan, seed: int) -> ArrayCorpus:
    """The pretraining corpus: the toy two-tone sine family, from ``seed``."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 7)))
    return ArrayCorpus(harness.toy_pretrain_corpus(rng, 100, p.corpus_length))


# ---------------------------------------------------------------------------
# operation tally


class Tally:
    """Operations attempted and failed, with a note for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def _finite(*values) -> bool:
    return all(isinstance(v, float) and math.isfinite(v) for v in values)


def _epoch_ok(rec: dict) -> bool:
    return _finite(float(rec["train_loss"]), float(rec["val_loss"]),
                   *map(float, rec["components"].values()))


# ---------------------------------------------------------------------------
# timed passes


@dataclass
class PassResult:
    epoch_s: dict[str, list[float]]  # timed epochs only
    histories: dict[str, list[dict]]
    experiment_s: float
    run_dir: Path

    def step_ms(self, obj: str, steps_per_epoch: int) -> float | None:
        """Median timed epoch wall time, per step."""
        timed = self.epoch_s[obj]
        return float(np.median(timed)) * 1e3 / steps_per_epoch if timed else None


def run_pass(p: Plan, corpus: ArrayCorpus, seed: int, out_root: Path,
             tally: Tally, tracer: tracing.Tracer | None = None) -> PassResult:
    """Time every objective's pretraining and one experiment.

    Each objective is pretrained ``p.rounds`` times with the same seed, in
    turn with the others, and the experiment runs between the first and
    the second half of the rounds.  On a shared machine whose speed drifts
    over seconds, this spreads every metric's samples across the run.
    Every epoch is one operation: its losses must be finite and, after the
    first round, bit-identical to the first round's.
    """
    epoch_s: dict[str, list[float]] = {o: [] for o in OBJECTIVES}
    histories: dict[str, list[dict]] = {}
    experiment_s = math.nan
    cfg = replace(p.experiment, run_id=f"{p.name}-seed{seed}", seeds=(seed,),
                  output_root=str(out_root))
    for rnd in range(p.rounds):
        if rnd == p.rounds // 2:
            experiment_s = _experiment(cfg, tally, tracer)
        for obj in OBJECTIVES:
            if tracer is not None:
                tracer.run = f"pretrain:{obj}"
            marks, history = _pretrain(p, obj, corpus, seed, tally)
            first = histories.setdefault(obj, history)
            for epoch in range(p.epochs):
                ok = (epoch < len(history) and _epoch_ok(history[epoch])
                      and epoch < len(first) and history[epoch] == first[epoch])
                tally.check(ok, f"pretrain {obj} round {rnd} epoch {epoch}")
            epoch_s[obj] += list(np.diff(marks))[1:]
    return PassResult(epoch_s, histories, experiment_s, cfg.run_dir())


def _pretrain(p: Plan, obj: str, corpus: ArrayCorpus, seed: int, tally: Tally):
    """One pretrain call; epoch end times (after its start) and history."""
    cfg = PretrainConfig(objective=obj, epochs=p.epochs, batch_size=p.batch_size,
                         steps_per_epoch=p.steps_per_epoch,
                         window_len=p.window_len, seed=seed, backbone=p.backbone)
    marks = [time.perf_counter()]
    history: list[dict] = []

    def log(rec):
        marks.append(time.perf_counter())
        history.append(rec)

    try:
        objectives.pretrain(corpus, cfg, log=log)
    except Exception as exc:  # noqa: BLE001 - counted as failed epochs
        tally.notes.append(f"pretrain {obj}: {type(exc).__name__}: {exc}")
    return marks, history


def _experiment(cfg: harness.RunConfig, tally: Tally,
                tracer: tracing.Tracer | None) -> float:
    if tracer is not None:
        tracer.run = "experiment"
    start = time.perf_counter()
    try:
        harness.run_experiment(cfg)
    except Exception as exc:  # noqa: BLE001 - counted by check_experiment
        tally.notes.append(f"experiment: {type(exc).__name__}: {exc}")
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# correctness checks

EXPECTED_METRICS = {"classify": ("accuracy",),
                    "anomaly": ("precision", "recall", "f1"),
                    "forecast": ("mse", "mae")}
UNIT_INTERVAL = {"accuracy", "precision", "recall", "f1"}


def check_experiment(run_dir: Path, seed: int, tally: Tally) -> None:
    """One operation per task (its full metric rows, finite and in range)
    plus one for the checkpoint's round trip through ``tsb``."""
    try:
        records = harness.read_metrics(run_dir / "metrics.csv")
    except (OSError, ValueError) as exc:
        records = []
        tally.notes.append(f"metrics.csv unreadable: {exc}")
    rows = {(r.task, r.metric, r.seed): r.value for r in records}
    for task, metrics in EXPECTED_METRICS.items():
        ok = len([k for k in rows if k[0] == task]) == 3 * len(metrics)
        for metric in metrics:
            for s in (str(seed), "mean", "std"):
                v = rows.get((task, metric, s))
                ok = ok and v is not None and math.isfinite(v) and v >= 0.0
                if metric in UNIT_INTERVAL and s != "std":
                    ok = ok and v is not None and v <= 1.0
        tally.check(ok, f"experiment task {task}")
    ckpt = run_dir / "checkpoints" / f"backbone_seed{seed}.tsbc"
    tally.check(_round_trips(ckpt), "experiment checkpoint round trip")


def _round_trips(path: Path) -> bool:
    """Loading and re-saving the checkpoint reproduces its bytes."""
    try:
        header, tensors = tsb.load_checkpoint(path)
        copy = path.with_suffix(".roundtrip")
        tsb.save_checkpoint(copy, header, tensors)
        same = copy.read_bytes() == path.read_bytes()
        copy.unlink()
    except (OSError, ValueError, KeyError, struct.error):
        return False
    return same and all(np.all(np.isfinite(t)) for t in tensors.values())


def reference_histories(p: Plan) -> dict[str, dict[str, list[float]]]:
    """Loss histories of a short fixed-input pretraining per objective."""
    rng = np.random.default_rng(np.random.SeedSequence((REFERENCE_SEED, 7)))
    corpus = ArrayCorpus(harness.toy_pretrain_corpus(rng, 16, p.corpus_length))
    out = {}
    for obj in OBJECTIVES:
        cfg = PretrainConfig(objective=obj, epochs=2,
                             batch_size=p.reference_batch,
                             steps_per_epoch=p.reference_steps,
                             window_len=p.window_len, seed=REFERENCE_SEED,
                             backbone=p.backbone)
        res = objectives.pretrain(corpus, cfg)
        out[obj] = {"initial_loss": [res.initial_loss],
                    "train_loss": [h["train_loss"] for h in res.history],
                    "val_loss": [h["val_loss"] for h in res.history]}
    return out


def check_reference(p: Plan, tally: Tally) -> dict:
    """One operation per objective: its fixed-input losses match the
    reference recorded with ``record_reference.py``.  Returns the losses."""
    expected = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))[p.name]
    try:
        got = reference_histories(p)
    except Exception as exc:  # noqa: BLE001 - counted as failed checks
        got = {}
        tally.notes.append(f"reference replay: {type(exc).__name__}: {exc}")
    for obj in OBJECTIVES:
        ok = obj in got and all(
            len(got[obj][k]) == len(v) and _finite(*got[obj][k])
            and np.allclose(got[obj][k], v, rtol=REF_RTOL, atol=REF_ATOL)
            for k, v in expected[obj].items())
        tally.check(ok, f"reference losses {obj}")
    return got


# ---------------------------------------------------------------------------
# metrics


def end_to_end(p: Plan, res: PassResult) -> dict[str, float]:
    out = {}
    for obj in OBJECTIVES:
        ms = res.step_ms(obj, p.steps_per_epoch)
        if ms is not None:
            out[f"step_ms.{obj}"] = ms
    out["experiment_s"] = res.experiment_s
    return out


def tail_lines(p: Plan, res: PassResult) -> list[str]:
    """Median and 90th percentile of the per-epoch step times, with counts."""
    lines = []
    for obj in OBJECTIVES:
        ms = np.asarray(res.epoch_s[obj]) * 1e3 / p.steps_per_epoch
        if len(ms):
            lines.append(f"step_ms.{obj}: median {np.median(ms):.3f} "
                         f"p90 {np.percentile(ms, 90):.3f} max {ms.max():.3f} "
                         f"(n={len(ms)} epochs of {p.steps_per_epoch} steps)")
    return lines


def per_layer(tracer: tracing.Tracer, traced: PassResult,
              p: Plan) -> dict[str, float]:
    out: dict[str, float] = {}
    ops = dict.fromkeys(TAPE_OPS + ("other",), 0)
    sample_ms, norm_ms = [], []
    for obj in OBJECTIVES:
        lay = tracing.pretrain_layers(tracer, f"pretrain:{obj}")
        out[f"tensor.records_per_step.{obj}"] = lay["records"]
        out[f"tensor.backward_ms.{obj}"] = lay["backward_ms"]
        out[f"tensor.tape_mb.{obj}"] = lay["tape_mb"]
        out[f"backbone.encode_ms.{obj}"] = lay["encode_ms"]
        out[f"objectives.loss_self_ms.{obj}"] = lay["loss_self_ms"]
        out[f"objectives.val_ms.{obj}"] = lay["val_ms"]
        out[f"optim.step_ms.{obj}"] = lay["optim_ms"]
        if obj == "jepa":
            out["backbone.predictor_ms"] = lay["predictor_ms"]
        if obj in ("jepa", "dino"):
            out[f"backbone.ema_ms.{obj}"] = lay["ema_ms"]
        if obj in ("lejepa", "dino"):
            out[f"augment.view_pair_ms.{obj}"] = lay["view_pair_ms"]
        if obj == "lejepa":
            out["sigreg.statistic_ms"] = lay["sigreg_ms"]
            out["sigreg.records_per_call"] = lay["sigreg_records"]
        for op, n in lay["by_op"].items():
            ops[op if op in ops else "other"] += n
        sample_ms += lay["sample_ms"]
        norm_ms += lay["norm_ms"]
    out.update({f"tensor.records.{op}": n for op, n in ops.items()})
    out["objectives.data_ms"] = float(np.median(sample_ms) + np.median(norm_ms))
    exp = tracing.experiment_layers(tracer, "experiment")
    out.update({
        "backbone.encode_infer_ms": exp["encode_infer_ms"],
        "synthgen.series_ms": exp["series_ms"],
        "synthgen.series": exp["series"],
        "evaluate.probe_train_ms": exp["probe_train_ms"],
        "evaluate.probe_calls": exp["probe_calls"],
        "evaluate.scoring_ms": exp["scoring_ms"],
        "harness.self_ms": exp["harness_self_ms"],
        "tsb.checkpoint_ms": exp["checkpoint_ms"],
        "tsb.checkpoint_bytes": exp["checkpoint_bytes"],
    })
    out.update({f"trace.{k}": v for k, v in end_to_end(p, traced).items()})
    return out
