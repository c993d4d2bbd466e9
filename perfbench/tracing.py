"""Spans and tape census recorded from outside the ``tsrepr`` package.

A :class:`Tracer` replaces public functions with timing wrappers at the
binding the caller actually uses: ``objectives`` and ``evaluate`` import
``encode``, ``backward``, ``instance_norm`` and ``run_predictor`` by name,
so those names are patched in the importing module, while ``harness``
reaches ``objectives.pretrain``, ``evaluate.*`` and ``synthgen.*`` as
module attributes.  Wrappers only read program state, so a traced run
computes the same bits as an untraced one.  Spans stay in memory until
:meth:`Tracer.write` is called at exit.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from tsrepr import (augment, evaluate, harness, objectives, optim, sigreg,
                    synthgen, tsb)
from tsrepr.tensor import Tape

SCORING = ("classify_head_eval", "predict_head", "anomaly_scores")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def _tape_len() -> int:
    tape = Tape.active()
    return len(tape.records) if tape is not None else 0


def op_name(bw) -> str:
    """Tape op of a backward closure: ``gelu.<locals>.bw`` -> ``gelu``."""
    return bw.__qualname__.split(".<locals>", 1)[0]


def tape_census(tape: Tape) -> dict:
    """Record count, per-op counts and output bytes of the tape's records."""
    by_op = Counter(op_name(bw) for _out, _inputs, bw in tape.records)
    nbytes = sum(out.data.nbytes for out, _inputs, _bw in tape.records)
    return {"records": len(tape.records), "by_op": dict(by_op), "bytes": nbytes}


class Tracer:
    """Patches the layer boundaries while installed and records spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, before=None, after=None):
        inner = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            attrs = before(*args, **kwargs) if before else {}
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, tracer.run, attrs)
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            try:
                result = inner(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if after:
                span.attrs.update(after(result, *args, **kwargs))
            return result

        self._saved.append((owner, attr, inner))
        setattr(owner, attr, wrapper)

    def __enter__(self):
        w = self._wrap
        taped = lambda *a, **k: {"taped": Tape.active() is not None}  # noqa: E731
        # harness layer and the layers it reaches as module attributes
        w(harness, "run_experiment", "harness.run_experiment")
        w(objectives, "pretrain", "objectives.pretrain")
        w(synthgen, "sample_univariate", "synthgen.sample_univariate")
        w(evaluate, "probe_train", "evaluate.probe_train")
        for fn in SCORING:
            w(evaluate, fn, f"evaluate.{fn}")
        w(tsb, "save_checkpoint", "tsb.save_checkpoint",
          after=lambda _r, path, *a, **k: {"bytes": os.path.getsize(path)})
        # pretraining loop internals
        w(objectives, "compute_loss", "objectives.compute_loss")
        w(objectives.ArrayCorpus, "sample_windows", "objectives.sample_windows")
        w(objectives, "instance_norm", "objectives.instance_norm")
        w(objectives, "encode", "backbone.encode", before=taped)
        w(objectives, "run_predictor", "backbone.run_predictor")
        w(objectives, "ema_update", "backbone.ema_update")
        w(augment, "make_view_pair", "augment.make_view_pair")
        w(sigreg, "epps_pulley_statistic", "sigreg.epps_pulley_statistic",
          before=lambda *a, **k: {"tape0": _tape_len()},
          after=lambda *a, **k: {"tape1": _tape_len()})
        w(objectives, "backward", "tensor.backward",
          before=lambda *a, **k: tape_census(Tape.active()))
        w(optim.Adam, "step", "optim.step")
        w(optim.MomentumSGD, "step", "optim.step")
        # probe paths
        w(evaluate, "encode", "backbone.encode", before=taped)
        w(evaluate, "backward", "tensor.backward")
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, inner = self._saved.pop()
            setattr(owner, attr, inner)
        return False

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "run": s.run, "attrs": s.attrs}) + "\n")

    # -- analysis -------------------------------------------------------

    def self_ms(self) -> list[float]:
        """Each span's duration minus the durations of its child spans."""
        out = [s.ms for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.ms
        return out


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def pretrain_layers(tracer: Tracer, run: str) -> dict:
    """Per-training-step layer figures for one objective's pretrain run.

    A ``compute_loss`` call is a training step when a ``backward`` call
    follows it before the next ``compute_loss``; otherwise it is the
    epoch's validation pass.
    """
    spans = tracer.spans
    self_ms = tracer.self_ms()
    idx = [i for i, s in enumerate(spans) if s.run == run]
    train: list[int] = []
    val: list[int] = []
    backward: list[int] = []
    current = None
    for i in idx:
        if spans[i].name == "objectives.compute_loss":
            if current is not None:
                val.append(current)
            current = i
        elif spans[i].name == "tensor.backward" and current is not None:
            train.append(current)
            backward.append(i)
            current = None
    if current is not None:
        val.append(current)

    children: dict[int, list[int]] = {}
    for i in idx:
        if spans[i].parent is not None:
            children.setdefault(spans[i].parent, []).append(i)

    def below(i, name):
        """Spans called ``name`` anywhere under span ``i``."""
        found, todo = [], list(children.get(i, []))
        while todo:
            j = todo.pop()
            if spans[j].name == name:
                found.append(spans[j])
            else:
                todo.extend(children.get(j, []))
        return found

    def per_step(name):
        return [sum(s.ms for s in below(i, name)) for i in train]

    named = lambda name: [spans[i] for i in idx if spans[i].name == name]  # noqa: E731
    census = [spans[i].attrs for i in backward]
    sig = [s for i in train for s in below(i, "sigreg.epps_pulley_statistic")]
    return {
        "train_steps": len(train),
        "records": _median([c["records"] for c in census]),
        "records_set": sorted({c["records"] for c in census}),
        "by_op": census[0]["by_op"] if census else {},
        "tape_mb": _median([c["bytes"] for c in census]) / 1e6,
        "backward_ms": _median([spans[i].ms for i in backward]),
        "encode_ms": _median(per_step("backbone.encode")),
        "predictor_ms": _median(per_step("backbone.run_predictor")),
        "view_pair_ms": _median(per_step("augment.make_view_pair")),
        "loss_self_ms": _median([self_ms[i] for i in train]),
        "val_ms": _median([spans[i].ms for i in val]),
        "optim_ms": _median([s.ms for s in named("optim.step")]),
        "ema_ms": _median([s.ms for s in named("backbone.ema_update")]),
        "sigreg_ms": _median([s.ms for s in sig]),
        "sigreg_records": _median([s.attrs["tape1"] - s.attrs["tape0"] for s in sig]),
        "sample_ms": [s.ms for s in named("objectives.sample_windows")],
        "norm_ms": [s.ms for s in named("objectives.instance_norm")],
    }


def experiment_layers(tracer: Tracer, run: str) -> dict:
    """Totals over one ``run_experiment`` call."""
    spans = [s for s in tracer.spans if s.run == run]
    self_ms = tracer.self_ms()
    named = lambda name: [s for s in spans if s.name == name]  # noqa: E731
    series = named("synthgen.sample_univariate")
    scoring_names = {f"evaluate.{fn}" for fn in SCORING}
    scoring = [s for s in spans if s.name in scoring_names and not (
        s.parent is not None and tracer.spans[s.parent].name in scoring_names)]
    ckpt = named("tsb.save_checkpoint")
    harness_self = [self_ms[i] for i, s in enumerate(tracer.spans)
                    if s.run == run and s.name == "harness.run_experiment"]
    return {
        "encode_infer_ms": sum(s.ms for s in named("backbone.encode")
                               if not s.attrs["taped"]),
        "series": len(series),
        "series_ms": sum(s.ms for s in series) / max(1, len(series)),
        "probe_train_ms": sum(s.ms for s in named("evaluate.probe_train")),
        "probe_calls": len(named("evaluate.probe_train")),
        "scoring_ms": sum(s.ms for s in scoring),
        "harness_self_ms": sum(harness_self),
        "checkpoint_ms": sum(s.ms for s in ckpt),
        "checkpoint_bytes": sum(s.attrs["bytes"] for s in ckpt),
    }
