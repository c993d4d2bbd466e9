"""Run configs, metric records, the runner, sweeps, and the CLI."""

from dataclasses import replace

import numpy as np
import pytest

from tsrepr import cli, evaluate as E, harness as H, synthgen as G, tsb
from tsrepr.backbone import init_encoder, load_backbone
from tsrepr.harness import ConfigError, DataError, MetricRecord, RunConfig
from tsrepr.tensor import NumericError

FAST = dict(seeds=(1,), d_model=16, n_layers=1, n_heads=2, patch_len=8,
            max_patches=16, epochs=1, batch_size=4, steps_per_epoch=2,
            window_len=64, corpus_series=8, corpus_length=128,
            probe_epochs=2, context_len=32, horizon=8)


def fast_cfg(tmp_path, **kw):
    merged = {**FAST, "output_root": str(tmp_path / "runs"), **kw}
    return RunConfig(**merged)


# ---------------------------------------------------------------------------
# config round trip


def test_config_round_trip(tmp_path):
    cfg = RunConfig(run_id="abc", objective="jepa", seeds=(1, 2, 3),
                    tasks=("classify", "forecast"), lr=0.01, n_layers=4)
    path = tmp_path / "run.ini"
    H.save_run_config(cfg, path)
    assert H.load_run_config(path) == cfg
    # serialization is stable
    H.save_run_config(H.load_run_config(path), tmp_path / "run2.ini")
    assert path.read_text() == (tmp_path / "run2.ini").read_text()


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "run.ini"
    H.save_run_config(RunConfig(), path)
    clean = path.read_text()
    # "dropout" was a [backbone] key before it was removed
    for line in ("width = 3", "dropout = 0.0"):
        path.write_text(clean.replace("[backbone]", f"[backbone]\n{line}"))
        with pytest.raises(ConfigError, match=line.split()[0]):
            H.load_run_config(path)


def test_config_unknown_section_rejected(tmp_path):
    path = tmp_path / "run.ini"
    H.save_run_config(RunConfig(), path)
    path.write_text(path.read_text() + "\n[distributed]\nnodes = 4\n")
    with pytest.raises(ConfigError, match="distributed"):
        H.load_run_config(path)


def test_config_bad_value_and_missing_file(tmp_path):
    path = tmp_path / "run.ini"
    H.save_run_config(RunConfig(), path)
    path.write_text(path.read_text().replace("d_model = 32", "d_model = wide"))
    with pytest.raises(ConfigError, match="d_model"):
        H.load_run_config(path)
    with pytest.raises(ConfigError):
        H.load_run_config(tmp_path / "absent.ini")


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(objective="cpc")
    with pytest.raises(ConfigError):
        RunConfig(data_source="streaming")
    # without a dataset, real and hybrid would pretrain on synthetic data
    # alone while metrics.csv still labels the rows real or hybrid
    for source in ("real", "hybrid"):
        with pytest.raises(ConfigError, match="dataset_path"):
            RunConfig(data_source=source)
    with pytest.raises(ConfigError):
        RunConfig(tasks=("imputation",))
    with pytest.raises(ConfigError):
        RunConfig(seeds=())
    # each of these used to fail only once the run had started
    for bad in (dict(corpus_series=0),
                dict(synthetic_family="gp", corpus_length=1),
                dict(window_len=8, patch_len=16),
                dict(max_patches=0),
                # 8-patch pretraining windows once failed after setup
                dict(max_patches=4),
                dict(window_len=64, max_patches=4, tasks=("classify",)),
                dict(window_len=64, max_patches=4, tasks=("forecast",)),
                # -1 trained no step and saved the initial weights; a
                # negative lr climbs the loss
                dict(steps_per_epoch=-1),
                dict(lr=-1e-3),
                # a repeated seed or task once failed only when
                # write_metrics met the duplicate rows
                dict(seeds=(0, 0)),
                dict(tasks=("classify", "classify")),
                dict(d_model=30, n_heads=4),
                # the run directory must be one entry under output_root
                dict(run_id=""), dict(run_id="."), dict(run_id=".."),
                dict(run_id="../../escaped"), dict(run_id="a\\b")):
        with pytest.raises(ConfigError):
            RunConfig(**bad)
    # the table need cover only windows the run encodes
    RunConfig(window_len=64, max_patches=4, tasks=("anomaly",))
    RunConfig(window_len=64, max_patches=4, tasks=("forecast",),
              context_len=64)
    with pytest.raises(ConfigError):
        RunConfig(d_model=0)
    with pytest.raises(ConfigError):
        RunConfig(anomaly_percentile=100.0)


# ---------------------------------------------------------------------------
# metric records


def rec(**kw):
    base = dict(run_id="r", objective="mae", data_source="synthetic",
                layers=2, task="classify", dataset="sine_mixture",
                protocol="linear", metric="accuracy", value=0.5, seed="1")
    base.update(kw)
    return MetricRecord(**base)


def test_metric_row_round_trip(tmp_path):
    records = [rec(), rec(seed="2", value=0.75), rec(seed="mean", value=0.625)]
    path = tmp_path / "m.csv"
    H.write_metrics(path, records)
    assert H.read_metrics(path) == records
    header = path.read_text().splitlines()[0]
    assert header == ",".join(H.METRIC_COLUMNS)


def test_metric_duplicate_rejected(tmp_path, capsys):
    with pytest.raises(ValueError, match="duplicate"):
        H.write_metrics(tmp_path / "m.csv", [rec(), rec()])
    # one file given twice once ended in a ValueError traceback (exit 1)
    H.write_metrics(tmp_path / "m.csv", [rec()])
    assert cli.main(["export-metrics", "--out", str(tmp_path / "o.csv"),
                     str(tmp_path / "m.csv"), str(tmp_path / "m.csv")]) == 3
    assert "data error: duplicate metric row" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_metric_bad_header_rejected(tmp_path, capsys):
    path = tmp_path / "m.csv"
    for text in ("run,task\nr,classify\n", ""):  # "" once raised StopIteration
        path.write_text(text)
        with pytest.raises(DataError):
            H.read_metrics(path)
        assert cli.main(["export-metrics", "--out", str(tmp_path / "o.csv"),
                         str(path)]) == 3
        assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("row,lineno", [
    ("r,mae,synthetic,2,classify,sine_mixture,linear,accuracy,high,1", 3),
    ("r,mae,synthetic,2,classify", 3),
    ("r,mae,synthetic,two,classify,sine_mixture,linear,accuracy,0.5,1", 3),
    # an extra cell once parsed to a record with seed '1'
    ("r,mae,synthetic,2,classify,sine,linear,accuracy,0.5,1,EXTRA", 3),
])
def test_metric_bad_row_names_file_and_line(tmp_path, row, lineno):
    path = tmp_path / "m.csv"
    H.write_metrics(path, [rec()])
    path.write_text(path.read_text() + row + "\n")
    with pytest.raises(DataError, match=f"m.csv: line {lineno}"):
        H.read_metrics(path)
    code = cli.main(["export-metrics", "--out", str(tmp_path / "all.csv"),
                     str(path)])
    assert code == 3


def test_aggregates_recompute_oracle():
    records = [rec(seed="1", value=0.4), rec(seed="2", value=0.6),
               rec(seed="3", value=0.8),
               rec(task="forecast", metric="mse", seed="1", value=1.0)]
    aggs = {(a.task, a.metric, a.seed): a.value
            for a in H.aggregate_records(records)}
    assert abs(aggs[("classify", "accuracy", "mean")] - 0.6) < 1e-12
    assert abs(aggs[("classify", "accuracy", "std")]
               - np.std([0.4, 0.6, 0.8])) < 1e-12
    assert aggs[("forecast", "mse", "mean")] == 1.0
    assert aggs[("forecast", "mse", "std")] == 0.0
    # existing aggregate rows are not re-aggregated
    assert len(H.aggregate_records(records + H.aggregate_records(records))) \
        == len(H.aggregate_records(records))


# ---------------------------------------------------------------------------
# toy tasks


def test_toy_suite_shapes():
    rng = np.random.default_rng(1)
    corpus = H.toy_pretrain_corpus(rng, 5, 64)
    assert corpus.shape == (5, 64)
    x, y = H.toy_classification(rng, n_per_class=3, length=32)
    assert x.shape == (12, 32) and sorted(set(y)) == [0, 1, 2, 3]
    train, test, labels = H.toy_anomaly(rng, 1024, 1024, n_segments=2)
    assert train.shape == test.shape == labels.shape == (1024,)
    assert labels.any() and not labels.all()
    ctx, tgt = H.toy_forecast(rng, 10, 32, 8)
    assert ctx.shape == (10, 32) and tgt.shape == (10, 8)


# ---------------------------------------------------------------------------
# experiment runner


def test_run_experiment_rows_and_idempotence(tmp_path):
    cfg = fast_cfg(tmp_path, run_id="exp", tasks=("classify", "forecast"))
    records = H.run_experiment(cfg)
    per_seed = [r for r in records if r.seed not in ("mean", "std")]
    # 1 accuracy + 2 forecast metrics per seed
    assert len(per_seed) == 3
    assert {r.task for r in per_seed} == {"classify", "forecast"}
    aggs = [r for r in records if r.seed in ("mean", "std")]
    assert len(aggs) == 6
    assert (cfg.run_dir() / "metrics.csv").exists()
    assert (cfg.run_dir() / "config.ini").exists()
    # rerun resumes from record files: identical rows, no duplicates
    again = H.run_experiment(cfg)
    assert [r.to_row() for r in again] == [r.to_row() for r in records]


def test_run_experiment_refuses_a_different_config(tmp_path):
    # the records under a run directory belong to the config that wrote
    # them, so another config may not resume there
    cfg = fast_cfg(tmp_path, run_id="exp", tasks=("classify",))
    H.run_experiment(cfg)
    run_dir = cfg.run_dir()
    before = {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
    for changed in (dict(probe_mode="finetune"),
                    dict(epochs=3, steps_per_epoch=1)):
        with pytest.raises(ConfigError) as err:
            H.run_experiment(replace(cfg, **changed))
        for key in changed:
            assert key in str(err.value)
    after = {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
    assert after == before


def test_run_experiment_baseline_shares_code_path(tmp_path):
    cfg = fast_cfg(tmp_path, run_id="base", objective="none",
                   tasks=("classify",))
    records = H.run_experiment(cfg)
    assert all(r.objective == "none" for r in records)
    # baseline writes no pretraining checkpoints
    assert not list((cfg.run_dir() / "checkpoints").glob("*.tsbc"))


def test_run_experiment_writes_checkpoints(tmp_path):
    cfg = fast_cfg(tmp_path, run_id="ck", tasks=("classify",))
    H.run_experiment(cfg)
    path = cfg.run_dir() / "checkpoints" / "backbone_seed1.tsbc"
    _, _, header = load_backbone(path)
    assert header["data_source"] == "synthetic"
    assert (header["objective"], header["seed"]) == ("mae", 1)


@pytest.mark.parametrize("mode,models", [("linear", 1), ("mlp", 1),
                                         ("finetune", 3)])
def test_probe_grid_encodes_frozen_inputs_once(mode, models, monkeypatch,
                                               tmp_path):
    # a frozen backbone gives every grid lr the same features; fine-tuning
    # encodes the grid's stacked backbone copies, one per lr, in one call;
    # so either way each window is encoded once (one epoch: every window
    # once)
    calls = []
    encode = E.encode

    def spy(windows, weights, *args, **kwargs):
        calls.append((windows.shape[0],
                      int(np.prod(weights["embed.w"].shape[:-2]))))
        return encode(windows, weights, *args, **kwargs)

    monkeypatch.setattr(E, "encode", spy)
    cfg = fast_cfg(tmp_path, probe_mode=mode, probe_epochs=1)
    bb = cfg.backbone()
    weights = init_encoder(bb, np.random.default_rng(0))
    x, y = H.toy_classification(np.random.default_rng(1), n_per_class=10)
    assert x.shape[0] == 40  # 8 validation rows, 2 full batches of 16
    spec = E.ProbeSpec(mode=mode, task="classify", epochs=1, seed=1,
                       lrs=H.PROBE_LR_GRID, batch_size=16)
    res = E.probe_train(weights, bb, spec, x, y)
    assert sum(rows for rows, _ in calls) == x.shape[0]
    assert {m for _, m in calls} == {models}
    assert len(res.history) == 1


def run_files(run_dir):
    """Bytes of every file a run wrote, but its config (which names the
    output root)."""
    return {p.relative_to(run_dir): p.read_bytes()
            for p in sorted(run_dir.rglob("*"))
            if p.is_file() and p.name != "config.ini"}


def count_pretrain_calls(monkeypatch):
    calls = []
    pretrain = H.objectives.pretrain

    def spy(*args, **kwargs):
        calls.append(args)
        return pretrain(*args, **kwargs)

    monkeypatch.setattr(H.objectives, "pretrain", spy)
    return calls


def test_a_failing_task_keeps_the_finished_tasks(tmp_path, monkeypatch):
    # each (seed, task) is saved when it finishes, so a later task's
    # failure loses nothing, and the rerun evaluates only what is pending
    # from the seed's checkpoint
    cfg = fast_cfg(tmp_path, run_id="fail", tasks=("classify", "forecast"))
    toy_forecast = H.toy_forecast

    def boom(*args, **kwargs):
        raise RuntimeError("forecast failed")

    monkeypatch.setattr(H, "toy_forecast", boom)
    with pytest.raises(RuntimeError, match="forecast failed"):
        H.run_experiment(cfg)
    records = cfg.run_dir() / "records"
    assert [p.name for p in records.iterdir()] == ["seed1_classify.csv"]
    classify = (records / "seed1_classify.csv").read_bytes()

    monkeypatch.setattr(H, "toy_forecast", toy_forecast)
    calls = count_pretrain_calls(monkeypatch)
    H.run_experiment(cfg)
    assert calls == []
    assert (records / "seed1_classify.csv").read_bytes() == classify
    whole = replace(cfg, output_root=str(tmp_path / "whole"))
    H.run_experiment(whole)
    assert run_files(cfg.run_dir()) == run_files(whole.run_dir())


def test_evaluate_reuses_the_seed_checkpoints(tmp_path, monkeypatch, capsys):
    # a seed's checkpoint stands for its pretraining: a rerun without
    # records, and `evaluate` after `pretrain`, pretrain nothing more and
    # write the bytes of one uninterrupted run
    cfg = fast_cfg(tmp_path, run_id="re", seeds=(1, 2),
                   tasks=("classify", "forecast"))
    H.run_experiment(cfg)
    before = run_files(cfg.run_dir())
    calls = count_pretrain_calls(monkeypatch)
    for path in (cfg.run_dir() / "records").iterdir():
        path.unlink()
    (cfg.run_dir() / "metrics.csv").unlink()
    H.run_experiment(cfg)
    assert calls == []
    assert run_files(cfg.run_dir()) == before

    split = replace(cfg, output_root=str(tmp_path / "split"))
    H.save_run_config(split, tmp_path / "c.ini")
    for command in ("pretrain", "evaluate"):
        assert cli.main([command, "--config", str(tmp_path / "c.ini")]) == 0
    assert len(calls) == 2  # one per seed, in `pretrain`
    assert run_files(split.run_dir()) == before
    capsys.readouterr()


def test_finetune_metrics_independent_of_task_order(tmp_path):
    # fine-tune probes train copies, so an earlier task cannot leak into a
    # later one (a resumed run evaluates only the pending tasks)
    rows = []
    for tasks in (("anomaly",), ("classify", "anomaly")):
        cfg = fast_cfg(tmp_path, run_id="_".join(tasks), tasks=tasks,
                       probe_mode="finetune")
        rows.append([r.to_row()[4:] for r in H.run_experiment(cfg)
                     if r.task == "anomaly"])
    assert rows[0] == rows[1]


def test_single_value_sweep_matches_run_experiment(tmp_path):
    base = fast_cfg(tmp_path, run_id="sw", tasks=("classify",))
    records, failures = H.sweep("n_layers", ["1"], base)
    assert failures == []
    direct = H.run_experiment(
        RunConfig(**{**FAST, "output_root": str(tmp_path / "runs"),
                     "run_id": "sw_n_layers_1", "n_layers": 1,
                     "tasks": ("classify",)}))
    assert [r.to_row() for r in records] == [r.to_row() for r in direct]


def test_sweep_children_match_direct_runs(tmp_path):
    # a child is the run of its own config: same checkpoints, records and
    # metrics as run_experiment on that config
    base = fast_cfg(tmp_path, run_id="sw", tasks=("classify",))
    records, failures = H.sweep("n_layers", ["1", "2"], base)
    assert failures == []
    for layers in (1, 2):
        child = replace(base, run_id=f"sw_n_layers_{layers}",
                        n_layers=layers)
        direct = replace(child, output_root=str(tmp_path / "direct"))
        H.run_experiment(direct)
        assert H.load_run_config(child.run_dir() / "config.ini") == child
        assert run_files(child.run_dir()) == run_files(direct.run_dir())
        assert (child.run_dir() / "checkpoints"
                / "backbone_seed1.tsbc").exists()
    assert {r.layers for r in records} == {1, 2}
    swept = H.read_metrics(tmp_path / "runs" / "sw_n_layers_sweep.csv")
    assert [r.to_row() for r in swept] == [r.to_row() for r in records]


def test_corpus_series_sweep(tmp_path):
    base = fast_cfg(tmp_path, run_id="cs", tasks=("classify",),
                    corpus_series=8)
    records, failures = H.sweep("corpus_series", ["4", "16"], base)
    assert failures == []
    assert [r.run_id for r in records if r.seed == "1"] == [
        "cs_corpus_series_4", "cs_corpus_series_16"]
    ckpts = []
    for n in (4, 16):
        run_dir = tmp_path / "runs" / f"cs_corpus_series_{n}"
        assert H.load_run_config(run_dir / "config.ini").corpus_series == n
        ckpts.append((run_dir / "checkpoints" / "backbone_seed1.tsbc"
                      ).read_bytes())
    assert ckpts[0] != ckpts[1]


def test_sweep_counts_and_failure_recording(tmp_path, monkeypatch):
    # a child that fails while it runs is recorded, and the others complete
    backbone_for_seed = H._backbone_for_seed

    def flaky(cfg, seed, ckpt_dir):
        if cfg.n_layers == 2:
            raise NumericError("non-finite loss")
        return backbone_for_seed(cfg, seed, ckpt_dir)

    monkeypatch.setattr(H, "_backbone_for_seed", flaky)
    base = fast_cfg(tmp_path, run_id="grid", seeds=(1, 2),
                    tasks=("classify",))
    records, failures = H.sweep("n_layers", ["1", "2", "3"], base)
    # 2 good children x (2 seeds + mean + std) accuracy rows
    assert len(records) == 8
    assert {r.run_id for r in records} == {"grid_n_layers_1",
                                           "grid_n_layers_3"}
    assert failures == [("2", "NumericError: non-finite loss")]
    runs = tmp_path / "runs"
    assert (runs / "grid_n_layers_failures.txt").read_text() == (
        "2\tNumericError: non-finite loss\n")
    swept = H.read_metrics(runs / "grid_n_layers_sweep.csv")
    assert [r.to_row() for r in swept] == [r.to_row() for r in records]


def test_real_and_hybrid_pretraining_paths(tmp_path):
    # 3 rows of 200 steps: the train split is the first 120
    dataset = tmp_path / "ing"
    rows = np.random.default_rng(0).standard_normal((3, 200), np.float32)
    tsb.write_dataset(dataset, rows, {"train_end": 120})
    synthetic = fast_cfg(tmp_path)
    real = fast_cfg(tmp_path, data_source="real", dataset_path=str(dataset))
    hybrid = fast_cfg(tmp_path, data_source="hybrid",
                      dataset_path=str(dataset))
    synth = H._pretrain_corpus(synthetic, 1).series
    real_rows = H._pretrain_corpus(real, 1).series
    hybrid_rows = H._pretrain_corpus(hybrid, 1).series
    # real: every row, cut to the train split (120 < 128 steps)
    assert real_rows.shape == (3, 120)
    np.testing.assert_array_equal(real_rows, rows[:, :120])
    # hybrid: the synthetic rows then the real rows, at the common width
    assert synth.shape == (8, 128) and hybrid_rows.shape == (11, 120)
    np.testing.assert_array_equal(hybrid_rows[:8], synth[:, :120])
    np.testing.assert_array_equal(hybrid_rows[8:], real_rows)
    for cfg in (real, hybrid):
        cfg = replace(cfg, run_id=cfg.data_source, tasks=("classify",))
        records = H.run_experiment(cfg)
        assert {r.data_source for r in records} == {cfg.data_source}
        assert all(np.isfinite(r.value) for r in records)
        _, _, header = load_backbone(
            cfg.run_dir() / "checkpoints" / "backbone_seed1.tsbc")
        assert header["data_source"] == cfg.data_source


def test_generated_corpus_is_a_dataset_path(tmp_path, capsys):
    # `tsrepr generate` output feeds real and hybrid pretraining: every
    # channel of every series is one row
    corpus = tmp_path / "gen"
    assert cli.main(["generate", "--out", str(corpus), "--n-series", "3",
                     "--length", "128", "--channels", "2"]) == 0
    capsys.readouterr()
    lcm = G.LcmConfig(n_channels=2, series_length=128, series_count=3)
    generated = np.stack([
        G._standardize(G.sample_multivariate_lcm(
            lcm, np.random.default_rng(np.random.SeedSequence((0, i)))))
        for i in range(3)])
    real = fast_cfg(tmp_path, data_source="real", dataset_path=str(corpus),
                    tasks=("classify",))
    np.testing.assert_array_equal(H._pretrain_corpus(real, 1).series,
                                  generated.reshape(6, 128))
    hybrid = replace(real, data_source="hybrid")
    np.testing.assert_array_equal(H._pretrain_corpus(hybrid, 1).series[8:],
                                  generated.reshape(6, 128))
    records = H.run_experiment(real)
    assert records and all(np.isfinite(r.value) for r in records)


@pytest.mark.parametrize("row", [
    "r,mae,synthetic,1,classify",
    "r,mae,synthetic,1,classify,sine_mixture,linear,accuracy,high,1",
    "r,mae,synthetic,2,classify,sine,linear,accuracy,0.5,1,EXTRA",
])
def test_evaluate_rejects_a_malformed_record_file(tmp_path, capsys, row):
    cfg = fast_cfg(tmp_path, run_id="mal", tasks=("classify",))
    H.save_run_config(cfg, tmp_path / "c.ini")
    assert cli.main(["evaluate", "--config", str(tmp_path / "c.ini")]) == 0
    record = cfg.run_dir() / "records" / "seed1_classify.csv"
    record.write_text(record.read_text() + row + "\n")
    assert cli.main(["evaluate", "--config", str(tmp_path / "c.ini")]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and f"{record}: line 2: bad metric row" in err


@pytest.mark.parametrize("damage", ["count", "checksum", "missing_shard"])
def test_evaluate_rejects_a_dataset_unlike_its_manifest(tmp_path, capsys,
                                                         damage):
    corpus = tmp_path / "gen"
    assert cli.main(["generate", "--out", str(corpus), "--n-series", "3",
                     "--length", "128"]) == 0
    manifest, shard = corpus / "manifest.txt", corpus / "shard_00000.tsb"
    if damage == "count":
        manifest.write_text(manifest.read_text().replace(".tsb:3", ".tsb:2"))
    elif damage == "checksum":
        raw = bytearray(shard.read_bytes())
        raw[-1] ^= 1
        shard.write_bytes(bytes(raw))
    else:
        shard.unlink()
    H.save_run_config(fast_cfg(tmp_path, run_id="bad", data_source="real",
                               dataset_path=str(corpus), tasks=("classify",)),
                      tmp_path / "c.ini")
    assert cli.main(["evaluate", "--config", str(tmp_path / "c.ini")]) == 3
    assert "data error" in capsys.readouterr().err
    assert not (tmp_path / "runs" / "bad" / "metrics.csv").exists()


def test_data_source_sweep_records_missing_dataset(tmp_path, capsys):
    # every child config is valid, so the sweep runs; the real child fails
    # on its missing files and the synthetic child completes
    corpus = tmp_path / "gen"
    base = fast_cfg(tmp_path, run_id="src", tasks=("classify",),
                    dataset_path=str(corpus))
    records, failures = H.sweep("data_source", ["synthetic", "real"], base)
    assert {r.data_source for r in records} == {"synthetic"}
    assert [v for v, _ in failures] == ["real"]
    assert failures[0][1].startswith("FileNotFoundError")
    assert str(corpus / "manifest.txt") in failures[0][1]
    failed = tmp_path / "runs" / "src_data_source_failures.txt"
    assert failed.read_text().startswith("real\t")
    # with the files in place, a rerun completes and drops the stale report
    assert cli.main(["generate", "--out", str(corpus), "--n-series", "2",
                     "--length", "128"]) == 0
    records, failures = H.sweep("data_source", ["synthetic", "real"], base)
    assert failures == [] and not failed.exists()
    assert {r.data_source for r in records} == {"synthetic", "real"}
    capsys.readouterr()


def test_sweep_validation(tmp_path, monkeypatch):
    # every child config is built before any child runs
    calls = []
    monkeypatch.setattr(H, "run_experiment",
                        lambda cfg: calls.append(cfg) or [])
    base = fast_cfg(tmp_path)
    for key, values, match in (
            ("width", ["1"], "width"),
            ("layers", ["1"], "layers"),  # the config key is n_layers
            ("run_id", ["x"], "run_id"), ("output_root", ["x"], "output_root"),
            ("seeds", ["1", "2"], "seeds"), ("tasks", ["classify"], "tasks"),
            ("n_layers", ["1", "nope"], "n_layers"),
            ("data_source", ["synthetic", "hybrid"], "dataset_path"),
            ("n_heads", ["2", "3"], "n_heads"),
            ("n_layers", [], "empty")):
        with pytest.raises(ConfigError, match=match):
            H.sweep(key, values, base)
    assert calls == []
    assert not (tmp_path / "runs").exists()


def test_sweep_rejects_repeated_values(tmp_path, monkeypatch, capsys):
    # two children with one run_id would write duplicate metric rows;
    # values repeat once parsed, as in a config file
    calls = []
    monkeypatch.setattr(H, "run_experiment",
                        lambda cfg: calls.append(cfg) or [])
    for key, values in (("n_layers", ["1", "1"]), ("n_layers", ["1", "01"]),
                        ("lr", ["1e-3", "0.001"])):
        with pytest.raises(ConfigError, match="repeat"):
            H.sweep(key, values, fast_cfg(tmp_path))
    H.save_run_config(fast_cfg(tmp_path), tmp_path / "c.ini")
    assert cli.main(["sweep", "--config", str(tmp_path / "c.ini"),
                     "lr", "1e-3,0.001"]) == 2
    assert "repeat" in capsys.readouterr().err
    assert calls == []


def test_sweep_path_values_stay_under_output_root(tmp_path, monkeypatch):
    # a path value once nested the child directory and could leave
    # output_root; each separator in it is now an underscore
    calls = []
    monkeypatch.setattr(H, "run_experiment",
                        lambda cfg: calls.append(cfg) or [])
    corpora = [str(tmp_path / "corpora" / name) for name in ("a", "b")]
    base = fast_cfg(tmp_path, run_id="d", data_source="real",
                    dataset_path=corpora[0])
    H.sweep("dataset_path", corpora + ["../x\\y"], base)
    root = tmp_path / "runs"
    assert [c.run_id for c in calls] == [
        "d_dataset_path_" + p.replace("/", "_") for p in corpora] + [
        "d_dataset_path_.._x_y"]
    assert [c.dataset_path for c in calls] == corpora + ["../x\\y"]
    assert all(c.run_dir().parent == root for c in calls)
    calls.clear()
    with pytest.raises(ConfigError, match="repeat"):
        H.sweep("dataset_path", ["a/b", "a_b"], base)
    assert calls == []


@pytest.mark.parametrize("key, values", [
    ("width", "1,2"), ("seeds", "1,2"), ("n_layers", "1,nope"),
    ("data_source", "synthetic,hybrid")])
def test_cli_sweep_config_error_exit_two(tmp_path, capsys, key, values):
    H.save_run_config(fast_cfg(tmp_path, run_id="bad"), tmp_path / "c.ini")
    assert cli.main(["sweep", "--config", str(tmp_path / "c.ini"), key,
                     values]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


# ---------------------------------------------------------------------------
# CLI exit codes


def test_cli_generate_success_and_exit_zero(tmp_path, capsys):
    code = cli.main(["generate", "--out", str(tmp_path / "corpus"),
                     "--n-series", "3", "--length", "32"])
    assert code == 0
    assert (tmp_path / "corpus" / "manifest.txt").exists()
    assert "3 series" in capsys.readouterr().out


def test_cli_generate_channels_zero_is_univariate(tmp_path, capsys):
    assert cli.main(["generate", "--out", str(tmp_path / "c"), "--n-series",
                     "2", "--length", "16", "--channels", "0"]) == 0
    fields, series = tsb.read_dataset(tmp_path / "c")
    assert fields["n_channels"] == "1"
    assert series.shape == (2, 16)
    capsys.readouterr()


@pytest.mark.parametrize("flag, value", [
    ("--length", "1"), ("--n-series", "0"), ("--channels", "-3"),
    ("--workers", "0"), ("--seed", "-1")])
def test_cli_generate_rejects_bad_arguments(tmp_path, capsys, flag, value):
    out = tmp_path / "corpus"
    assert cli.main(["generate", "--out", str(out), "--n-series", "2",
                     "--length", "16", flag, value]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_probe_mode(tmp_path, capsys):
    # one INI gives the linear run and its fine-tune sibling
    H.save_run_config(fast_cfg(tmp_path, run_id="ev", tasks=("classify",),
                               probe_mode="linear"), tmp_path / "c.ini")
    assert cli.main(["sweep", "--config", str(tmp_path / "c.ini"),
                     "probe_mode", "finetune"]) == 0
    runs = tmp_path / "runs"
    records = H.read_metrics(runs / "ev_probe_mode_finetune" / "metrics.csv")
    assert records and {r.protocol for r in records} == {"finetune"}
    swept = H.read_metrics(runs / "ev_probe_mode_sweep.csv")
    assert [r.to_row() for r in swept] == [r.to_row() for r in records]
    assert "0 failed children" in capsys.readouterr().out
    # evaluate reads every setting from its config
    with pytest.raises(SystemExit) as exc:
        cli.main(["evaluate", "--config", str(tmp_path / "c.ini"),
                  "--mode", "finetune"])
    assert exc.value.code == 2
    assert "--mode" in capsys.readouterr().err
    assert not (runs / "ev").exists()


def test_cli_pretrain_seed_zero(tmp_path, capsys):
    # --seed 0 is a seed like any other, not "use the config's seeds"
    H.save_run_config(fast_cfg(tmp_path, run_id="s0", seeds=(1, 2)),
                      tmp_path / "c.ini")
    assert cli.main(["pretrain", "--config", str(tmp_path / "c.ini"),
                     "--seed", "0"]) == 0
    ckpts = tmp_path / "runs" / "s0" / "checkpoints"
    assert sorted(p.name for p in ckpts.iterdir()) == ["backbone_seed0.tsbc"]
    assert "seed 0: checkpoint" in capsys.readouterr().out


def test_cli_pretrain_refuses_a_different_config(tmp_path, capsys):
    # a finished pretraining keeps its checkpoint
    H.save_run_config(fast_cfg(tmp_path, run_id="pt", epochs=1),
                      tmp_path / "c1.ini")
    assert cli.main(["pretrain", "--config", str(tmp_path / "c1.ini")]) == 0
    ckpt = tmp_path / "runs" / "pt" / "checkpoints" / "backbone_seed1.tsbc"
    before = ckpt.read_bytes()
    H.save_run_config(fast_cfg(tmp_path, run_id="pt", epochs=3),
                      tmp_path / "c3.ini")
    assert cli.main(["pretrain", "--config", str(tmp_path / "c3.ini")]) == 2
    assert "epochs" in capsys.readouterr().err
    assert ckpt.read_bytes() == before


def test_cli_pretrain_takes_its_settings_from_the_config(tmp_path, capsys):
    # a zero override was once dropped silently and the run went on
    H.save_run_config(fast_cfg(tmp_path, run_id="flags"), tmp_path / "c.ini")
    with pytest.raises(SystemExit) as exc:
        cli.main(["pretrain", "--config", str(tmp_path / "c.ini"),
                  "--layers", "0"])
    assert exc.value.code == 2
    assert "--layers" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_cli_negative_seed_exit_two(tmp_path, capsys):
    # SeedSequence once raised ValueError (a traceback, exit 1) after the
    # run directory was made
    path = tmp_path / "c.ini"
    H.save_run_config(fast_cfg(tmp_path, run_id="neg"), path)
    assert cli.main(["pretrain", "--config", str(path), "--seed", "-1"]) == 2
    assert "--seed must be >= 0" in capsys.readouterr().err
    path.write_text(path.read_text().replace("seeds = 1", "seeds = -1"))
    for command in ("pretrain", "evaluate"):
        assert cli.main([command, "--config", str(path)]) == 2
        assert "seeds must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_cli_config_not_utf8_exit_two(tmp_path, capsys):
    # reading it once raised UnicodeDecodeError (a traceback, exit 1)
    path = tmp_path / "c.ini"
    H.save_run_config(fast_cfg(tmp_path, run_id="bytes"), path)
    path.write_bytes(path.read_bytes().replace(b"run_id = bytes",
                                               b"run_id = \xff\xfe"))
    assert cli.main(["evaluate", "--config", str(path)]) == 2
    assert "config parse error" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("old, new", [
    (b'"config": {', b'"config": ['),    # no longer JSON
    (b'"n_heads": 2', b'"n_heads": 3'),  # a config the backbone refuses
], ids=["not_json", "bad_config"])
def test_evaluate_rejects_a_garbled_checkpoint_header(tmp_path, capsys, old,
                                                      new):
    # one byte changed, the header's length kept: resuming once raised
    # JSONDecodeError or ValueError (a traceback, exit 1)
    path = tmp_path / "c.ini"
    cfg = fast_cfg(tmp_path, run_id="garbled", tasks=("forecast",))
    H.save_run_config(cfg, path)
    assert cli.main(["pretrain", "--config", str(path)]) == 0
    ckpt = cfg.run_dir() / "checkpoints" / "backbone_seed1.tsbc"
    raw = ckpt.read_bytes()
    assert raw.count(old) == 1
    ckpt.write_bytes(raw.replace(old, new))
    assert cli.main(["evaluate", "--config", str(path)]) == 3
    assert capsys.readouterr().err.startswith("data error: ")


def test_cli_repeated_seeds_exit_two(tmp_path, capsys):
    path = tmp_path / "c.ini"
    H.save_run_config(fast_cfg(tmp_path, run_id="rep"), path)
    path.write_text(path.read_text().replace("seeds = 1", "seeds = 0,0"))
    assert cli.main(["evaluate", "--config", str(path)]) == 2
    assert "seeds repeat" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_cli_heads_must_divide_d_model(tmp_path, capsys):
    # the backbone's own check once raised ValueError (a traceback, exit 1)
    # after the run directory was written
    path = tmp_path / "c.ini"
    H.save_run_config(fast_cfg(tmp_path, run_id="heads"), path)
    path.write_text(path.read_text().replace("d_model = 16", "d_model = 30")
                    .replace("n_heads = 2", "n_heads = 4"))
    assert cli.main(["evaluate", "--config", str(path)]) == 2
    assert "n_heads 4 does not divide d_model 30" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


# configs that passed RunConfig and then failed once the run had started,
# leaving a run directory whose config.ini refused the corrected config
CANNOT_TRAIN = [
    dict(objective="ntp", window_len=32),     # 4 patches, horizon 4
    dict(objective="mae", window_len=8),      # 1 patch: nothing to mask
    dict(objective="jepa", window_len=16),    # 2 patches for 2 mask blocks
    dict(objective="lejepa", window_len=33),  # odd: no wavelet level
    dict(objective="mae", context_len=4),     # forecast context < 1 patch
]


@pytest.mark.parametrize("bad", CANNOT_TRAIN)
def test_configs_that_cannot_train_are_refused(tmp_path, capsys, bad):
    with pytest.raises(ConfigError):
        fast_cfg(tmp_path, **bad)
    path = tmp_path / "c.ini"
    H.save_run_config(fast_cfg(tmp_path, run_id="bad"), path)
    text = path.read_text()
    for key, value in bad.items():
        old = f"{key} = {getattr(fast_cfg(tmp_path), key)}\n"
        assert old in text
        text = text.replace(old, f"{key} = {value}\n")
    path.write_text(text)
    assert cli.main(["evaluate", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_cli_config_error_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    H.save_run_config(RunConfig(), path)
    path.write_text(path.read_text() + "\n[cluster]\nk = 1\n")
    assert cli.main(["evaluate", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_data_error_exit_three(tmp_path, capsys):
    assert cli.main(["augment-preview", "--input",
                     str(tmp_path / "missing.tsb"),
                     "--out", str(tmp_path / "v")]) == 3
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["real", "hybrid"])
def test_cli_short_dataset_is_a_data_error(tmp_path, capsys, source):
    # a generated series trains whole: 20 samples hold two 8-sample
    # patches, where ntp needs 5
    corpus = tmp_path / "gen"
    assert cli.main(["generate", "--out", str(corpus), "--n-series", "3",
                     "--length", "20"]) == 0
    capsys.readouterr()
    H.save_run_config(fast_cfg(tmp_path, objective="ntp", data_source=source,
                               dataset_path=str(corpus), tasks=("classify",)),
                      tmp_path / "c.ini")
    assert cli.main(["evaluate", "--config", str(tmp_path / "c.ini")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ")
    assert "train length 20" in err and "ntp needs windows of >= 5" in err


def test_cli_numeric_error_exit_four(tmp_path, capsys, monkeypatch):
    def boom(*a, **k):
        raise NumericError("non-finite loss")

    monkeypatch.setattr(H, "run_experiment", boom)
    H.save_run_config(RunConfig(), tmp_path / "c.ini")
    assert cli.main(["evaluate", "--config", str(tmp_path / "c.ini")]) == 4
    assert "numeric failure" in capsys.readouterr().err


def test_cli_data_root_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TSB_DATA_ROOT", str(tmp_path))
    assert cli.main(["generate", "--out", "rel_corpus", "--n-series", "2",
                     "--length", "16"]) == 0
    assert (tmp_path / "rel_corpus" / "manifest.txt").exists()
    capsys.readouterr()


def test_cli_augment_preview(tmp_path, capsys):
    assert cli.main(["augment-preview", "--out", str(tmp_path / "v")]) == 0
    for name in ("original.tsb", "teacher.tsb", "student.tsb",
                 "coefficients.csv"):
        assert (tmp_path / "v" / name).exists()
    capsys.readouterr()
    # a negative seed was once a ValueError traceback (exit 1)
    assert cli.main(["augment-preview", "--out", str(tmp_path / "w"),
                     "--seed", "-1"]) == 2
    assert "--seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


def test_cli_export_metrics_merge(tmp_path, capsys):
    H.write_metrics(tmp_path / "a.csv", [rec(seed="1")])
    H.write_metrics(tmp_path / "b.csv", [rec(seed="2")])
    assert cli.main(["export-metrics", "--out", str(tmp_path / "all.csv"),
                     str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 0
    assert len(H.read_metrics(tmp_path / "all.csv")) == 2
    capsys.readouterr()
