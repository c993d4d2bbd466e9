"""Tests of the benchmark itself, on plans shrunk to a few seconds.

    python3 -m pytest -q perfbench
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name: str, plan=workloads.plan) -> workloads.Plan:
    p = plan(name, 1.0)
    return replace(p, batch_size=4, rounds=min(p.rounds, 2), epochs=2,
                   steps_per_epoch=2,
                   experiment=replace(p.experiment, epochs=1, steps_per_epoch=1,
                                      batch_size=4, corpus_series=4,
                                      probe_epochs=1))


def traced_pass(p, tmp_path, tag, tally):
    tracer = tracing.Tracer()
    with tracer:
        res = workloads.run_pass(p, workloads.make_inputs(p, 3), 3,
                                 tmp_path / tag, tally, tracer)
    return tracer, res


def test_declared_metrics_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for key, table in (("end_to_end", workloads.END_TO_END),
                       ("per_layer", workloads.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in BENCHMARK[key]] == table


def test_tracing_changes_no_loss_history_metrics_or_checkpoint(tmp_path):
    p = tiny("toy")
    tally = workloads.Tally()
    plain = workloads.run_pass(p, workloads.make_inputs(p, 3), 3,
                               tmp_path / "plain", tally)
    _, traced = traced_pass(p, tmp_path, "traced", tally)
    assert tally.failed == 0, tally.notes
    assert plain.histories == traced.histories
    for name in ("metrics.csv", "checkpoints/backbone_seed3.tsbc"):
        assert ((plain.run_dir / name).read_bytes()
                == (traced.run_dir / name).read_bytes())
    # the patched bindings are restored on exit
    assert workloads.objectives.encode is tracing.objectives.encode
    assert workloads.objectives.encode.__module__ == "tsrepr.backbone"


def test_tape_counts_repeat_exactly(tmp_path):
    p = tiny("toy")
    counts = []
    for tag in ("a", "b"):
        tally = workloads.Tally()
        tracer, res = traced_pass(p, tmp_path, tag, tally)
        layers = workloads.per_layer(tracer, res, p)
        counts.append({k: v for k, v in layers.items()
                       if k.startswith("tensor.records") or k in (
                           "sigreg.records_per_call", "synthgen.series",
                           "evaluate.probe_calls", "tsb.checkpoint_bytes")})
        for obj in workloads.OBJECTIVES:
            lay = tracing.pretrain_layers(tracer, f"pretrain:{obj}")
            assert len(lay["records_set"]) == 1  # same count every step
            assert lay["train_steps"] == p.rounds * p.epochs * p.steps_per_epoch
    assert counts[0] == counts[1]
    records = sum(v for k, v in counts[0].items() if k.startswith("tensor.records."))
    per_step = sum(v for k, v in counts[0].items()
                   if k.startswith("tensor.records_per_step."))
    assert records == per_step > 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_emits_every_declared_metric(name, trace, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "plan", lambda n, s: tiny(n))
    code = run.main(["--workload", name, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_experiment_check_flags_missing_rows_and_bad_checkpoint(tmp_path):
    p = tiny("toy")
    tally = workloads.Tally()
    res = workloads.run_pass(p, workloads.make_inputs(p, 3), 3, tmp_path, tally)
    workloads.check_experiment(res.run_dir, 3, tally)
    assert tally.failed == 0, tally.notes
    csv = res.run_dir / "metrics.csv"
    csv.write_text("".join(line for line in csv.read_text().splitlines(True)
                           if ",f1," not in line))
    ckpt = res.run_dir / "checkpoints" / "backbone_seed3.tsbc"
    ckpt.write_bytes(ckpt.read_bytes()[:-4])
    bad = workloads.Tally()
    workloads.check_experiment(res.run_dir, 3, bad)
    assert bad.notes == ["experiment task anomaly",
                         "experiment checkpoint round trip"]


def test_reference_check_flags_drift(tmp_path, monkeypatch):
    ref = json.loads(workloads.REFERENCE_PATH.read_text())
    ref["toy"]["mae"]["val_loss"][-1] *= 1.0 + 10 * workloads.REF_RTOL
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    monkeypatch.setattr(workloads, "REFERENCE_PATH", path)
    tally = workloads.Tally()
    workloads.check_reference(workloads.plan("toy", 1.0), tally)
    assert tally.notes == ["reference losses mae"]


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "toy", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""

