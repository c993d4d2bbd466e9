"""Experiment orchestration: run configs, metric records, the toy task
suite, the runner and sweeps.

A run pretrains a backbone per seed on a synthetic, real or hybrid corpus
(or skips pretraining for the baseline), evaluates a fixed task battery
through one shared probe code path, and writes per-seed plus mean/std
metric rows.  Real rows come from a ``tsb.write_dataset`` directory, such
as the output of ``tsrepr generate``.  Each (seed, task) pair is saved
when it finishes; reruns of the same config skip saved pairs and load a
seed's checkpoint instead of pretraining again, so interrupted runs resume
cleanly.  A run directory refuses any other config.
"""

from __future__ import annotations

import configparser
import csv
import io
import os
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import evaluate, objectives, synthgen, tsb
from .backbone import BackboneConfig, init_encoder, instance_norm, load_backbone
from .evaluate import PROBE_MODES, TASKS
from .objectives import DEFAULT_SEEDS, ArrayCorpus, PretrainConfig


class ConfigError(ValueError):
    """Invalid or unknown run configuration (exit code 2)."""


class DataError(ValueError):
    """Missing or malformed input data (exit code 3)."""


DATA_SOURCES = ("real", "synthetic", "hybrid")


def data_root() -> Path:
    return Path(os.environ.get("TSB_DATA_ROOT", "."))


# ---------------------------------------------------------------------------
# run configuration


@dataclass
class RunConfig:
    run_id: str = "run"
    objective: str = "mae"          # one of objectives.OBJECTIVES or "none"
    data_source: str = "synthetic"  # real | synthetic | hybrid
    synthetic_family: str = "sines"  # sines | gp
    dataset_path: str = ""          # tsb dataset dir for real | hybrid
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    output_root: str = "runs"
    tasks: tuple[str, ...] = TASKS
    # backbone
    d_model: int = 32
    n_layers: int = 2
    n_heads: int = 4
    patch_len: int = 16
    max_patches: int = 64
    # pretraining
    epochs: int = 20
    batch_size: int = 32
    steps_per_epoch: int = 10
    window_len: int = 128
    lr: float = 0.0                 # 0 means objective default
    corpus_series: int = 200
    corpus_length: int = 512
    # probing
    probe_mode: str = "linear"
    probe_epochs: int = 20
    context_len: int = 96
    horizon: int = 24
    anomaly_percentile: float = 1.0

    def __post_init__(self):
        # the run id names one directory under output_root
        if self.run_id in ("", ".", "..") or {"/", "\\"} & set(self.run_id):
            raise ConfigError(f"run_id {self.run_id!r} is empty, '.', '..' "
                              "or holds a path separator")
        if self.objective != "none" and self.objective not in objectives.OBJECTIVES:
            raise ConfigError(f"unknown objective {self.objective!r}")
        if self.data_source not in DATA_SOURCES:
            raise ConfigError(f"data_source must be one of {DATA_SOURCES}")
        if self.data_source != "synthetic" and not self.dataset_path:
            raise ConfigError(f"data_source={self.data_source} requires "
                              "dataset_path")
        if self.synthetic_family not in ("sines", "gp"):
            raise ConfigError("synthetic_family must be sines|gp")
        if self.probe_mode not in PROBE_MODES:
            raise ConfigError(f"unknown probe_mode {self.probe_mode!r}")
        bad = [t for t in self.tasks if t not in TASKS]
        if bad or not self.tasks:
            raise ConfigError(f"tasks must be a non-empty subset of {TASKS}")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if min(self.seeds) < 0:  # SeedSequence takes no negative entropy
            raise ConfigError(f"seeds must be >= 0: {list(self.seeds)}")
        for name in ("seeds", "tasks"):  # one metric row per (seed, task)
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} repeat: {list(values)}")
        for name in ("d_model", "n_layers", "n_heads", "patch_len",
                     "max_patches", "epochs", "batch_size", "corpus_series",
                     "probe_epochs", "context_len", "horizon"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.d_model % self.n_heads:
            raise ConfigError(f"n_heads {self.n_heads} does not divide "
                              f"d_model {self.d_model}")
        for name in ("steps_per_epoch", "lr"):  # 0 means the default
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.corpus_length < 2:  # a GP draw needs two grid points
            raise ConfigError("corpus_length must be >= 2")
        # every window the run encodes must hold a patch, and the
        # positional table must cover its patches: pretraining windows,
        # the 128-sample classify windows and the forecast contexts
        lengths = {"pretraining": min(self.window_len, self.corpus_length)}
        if "classify" in self.tasks:
            lengths["classify"] = 128
        if "forecast" in self.tasks:
            lengths["forecast"] = self.context_len
        for use, length in lengths.items():
            if length < self.patch_len:
                raise ConfigError(f"{use} window {length} is shorter than "
                                  f"patch_len {self.patch_len}")
            if length // self.patch_len > self.max_patches:
                raise ConfigError(
                    f"max_patches {self.max_patches} < {use} window patches "
                    f"{length // self.patch_len}")
        if not 0.0 < self.anomaly_percentile < 100.0:
            raise ConfigError("anomaly_percentile must be in (0, 100)")
        if self.objective != "none":  # what the objective's loss needs
            try:
                self.pretrain_config(self.seeds[0])
            except ValueError as exc:
                raise ConfigError(f"pretraining: {exc}") from exc

    def backbone(self) -> BackboneConfig:
        return BackboneConfig(d_model=self.d_model, n_layers=self.n_layers,
                              n_heads=self.n_heads, patch_len=self.patch_len,
                              max_patches=self.max_patches)

    def pretrain_config(self, seed: int) -> PretrainConfig:
        """The pretraining settings of ``seed``, with the window that
        ``pretrain`` cuts from a corpus of ``corpus_length`` samples."""
        return PretrainConfig(
            objective=self.objective, epochs=self.epochs,
            batch_size=self.batch_size,
            steps_per_epoch=self.steps_per_epoch or None,
            window_len=min(self.window_len, self.corpus_length),
            lr=self.lr or None, seed=seed, backbone=self.backbone(),
            data_source=self.data_source)

    def run_dir(self) -> Path:
        return Path(self.output_root) / self.run_id


# one section per concern; every known key listed here, anything else rejected
_CONFIG_SECTIONS = {
    "run": ("run_id", "objective", "data_source", "synthetic_family",
            "dataset_path", "seeds", "output_root", "tasks"),
    "backbone": ("d_model", "n_layers", "n_heads", "patch_len", "max_patches"),
    "pretrain": ("epochs", "batch_size", "steps_per_epoch", "window_len", "lr",
                 "corpus_series", "corpus_length"),
    "probe": ("probe_mode", "probe_epochs", "context_len", "horizon",
              "anomaly_percentile"),
}
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def save_run_config(cfg: RunConfig, path) -> None:
    parser = configparser.ConfigParser()
    parser.optionxform = str
    for section, keys in _CONFIG_SECTIONS.items():
        parser[section] = {}
        for key in keys:
            value = getattr(cfg, key)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            parser[section][key] = str(value)
    buf = io.StringIO()
    parser.write(buf)
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


def load_run_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    parser.optionxform = str
    try:
        parser.read_string(path.read_text(encoding="utf-8"))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    kwargs = {}
    for section in parser.sections():
        if section not in _CONFIG_SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser[section].items():
            if key not in _CONFIG_SECTIONS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            kwargs[key] = _parse_value(key, raw)
    return RunConfig(**kwargs)


def _parse_value(key: str, raw: str):
    hint = str(_FIELD_TYPES[key])
    try:
        if key == "seeds":
            return tuple(int(v) for v in raw.split(",") if v.strip())
        if key == "tasks":
            return tuple(v.strip() for v in raw.split(",") if v.strip())
        if "int" in hint:
            return int(raw)
        if "float" in hint:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc


# ---------------------------------------------------------------------------
# metric records


METRIC_COLUMNS = ("run_id", "objective", "data_source", "layers", "task",
                  "dataset", "protocol", "metric", "value", "seed")


@dataclass
class MetricRecord:
    run_id: str
    objective: str
    data_source: str
    layers: int
    task: str
    dataset: str
    protocol: str
    metric: str
    value: float
    seed: str  # per-seed rows hold the integer; aggregates hold mean|std

    def key(self):
        return (self.run_id, self.task, self.dataset, self.protocol,
                self.metric, self.seed)

    def to_row(self) -> list[str]:
        return [self.run_id, self.objective, self.data_source,
                str(self.layers), self.task, self.dataset, self.protocol,
                self.metric, f"{self.value:.8g}", str(self.seed)]

    @classmethod
    def from_row(cls, row: list[str]) -> "MetricRecord":
        if len(row) != len(METRIC_COLUMNS):
            raise ValueError(f"{len(row)} cells, expected "
                             f"{len(METRIC_COLUMNS)}")
        return cls(row[0], row[1], row[2], int(row[3]), row[4], row[5],
                   row[6], row[7], float(row[8]), row[9])


def write_metrics(path, records: list[MetricRecord]) -> None:
    seen = set()
    for rec in records:
        if rec.key() in seen:
            raise DataError(f"duplicate metric row {rec.key()}")
        seen.add(rec.key())
    _write_rows(Path(path), [METRIC_COLUMNS] + [r.to_row() for r in records])


def read_metrics(path) -> list[MetricRecord]:
    rows = _read_rows(path)
    if not rows or tuple(rows[0][1]) != METRIC_COLUMNS:
        raise DataError(f"{path}: line 1 is not the metric header")
    return _parse_rows(path, rows[1:])


def _write_rows(path: Path, rows) -> None:
    """Write csv ``rows`` to ``path`` atomically, via a temporary file."""
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    os.replace(tmp, path)


def _read_rows(path) -> list[tuple[int, list[str]]]:
    """(line number, csv row) pairs of ``path``."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(enumerate(csv.reader(fh), start=1))


def _parse_rows(path, numbered_rows) -> list[MetricRecord]:
    """Records of (line number, csv row) pairs; a bad row raises DataError
    naming the file and line."""
    records = []
    for lineno, row in numbered_rows:
        if not row:
            continue
        try:
            records.append(MetricRecord.from_row(row))
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: bad metric row "
                            f"({exc})") from exc
    return records


def aggregate_records(records: list[MetricRecord]) -> list[MetricRecord]:
    """Mean and std rows over seeds per (task, dataset, protocol, metric)."""
    groups: dict[tuple, list[MetricRecord]] = {}
    for rec in records:
        if rec.seed in ("mean", "std"):
            continue
        groups.setdefault((rec.run_id, rec.task, rec.dataset, rec.protocol,
                           rec.metric), []).append(rec)
    out = []
    for group in groups.values():
        values = np.array([r.value for r in group], dtype=np.float64)
        proto = group[0]
        for stat, val in (("mean", values.mean()), ("std", values.std())):
            out.append(replace(proto, value=float(val), seed=stat))
    return out


# ---------------------------------------------------------------------------
# toy task suite (desk-scale stand-ins for the benchmark datasets)


def toy_pretrain_corpus(rng: np.random.Generator, n_series: int = 100,
                        length: int = 256) -> np.ndarray:
    """Two-tone sine family plus noise, the family the toy tasks live in.

    Each series carries a dominant slow tone (2-8 cycles per 128 samples),
    a weaker fast tone (10-26 cycles), and white observation noise.
    """
    t = np.arange(length) / 128.0
    out = np.empty((n_series, length), dtype=np.float32)
    for i in range(n_series):
        out[i] = _two_tone(rng, t, rng.uniform(2, 8), rng.uniform(10, 26))
    return out


def _two_tone(rng: np.random.Generator, t: np.ndarray, f0: float, fc: float
              ) -> np.ndarray:
    """Slow tone ``f0``, fast tone ``fc``, random phases, plus white noise."""
    x = 2.0 * np.sin(2 * np.pi * f0 * t + rng.uniform(0, 2 * np.pi))
    x += 1.0 * np.sin(2 * np.pi * fc * t + rng.uniform(0, 2 * np.pi))
    x += 0.5 * rng.standard_normal(len(t))
    return x


def toy_classification(rng: np.random.Generator, n_per_class: int = 100,
                       length: int = 128, n_classes: int = 4
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Sine mixtures whose class is the frequency of the weaker fast tone.

    The dominant slow tone is a per-sample nuisance, so a probe has to read
    the class out of the secondary frequency content rather than raw shape.
    """
    t = np.arange(length) / 128.0
    class_freqs = (12, 16, 20, 24)[:n_classes]
    xs, ys = [], []
    for cls, fc in enumerate(class_freqs):
        for _ in range(n_per_class):
            xs.append(_two_tone(rng, t, rng.uniform(2, 8), fc))
            ys.append(cls)
    order = rng.permutation(len(xs))
    return (np.asarray(xs, dtype=np.float32)[order],
            np.asarray(ys, dtype=np.int64)[order])


def toy_anomaly(rng: np.random.Generator, train_len: int = 6144,
                test_len: int = 4096, n_segments: int = 12
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Noisy two-tone series; the test series carries labeled noise bursts.

    Bursts are injected high-variance segments (width 8-24) on top of the
    base process, subtle enough that detection quality tracks how well the
    reconstruction head captures the normal structure.
    """
    f0 = rng.uniform(2, 8) / 128.0
    fc = rng.uniform(10, 26) / 128.0
    ph0, phc = rng.uniform(0, 2 * np.pi, size=2)

    def clean(n):
        t = np.arange(n)
        return (2.0 * np.sin(ph0 + 2 * np.pi * f0 * t)
                + 1.0 * np.sin(2 * np.pi * fc * t + phc))

    train = (clean(train_len)
             + 0.7 * rng.standard_normal(train_len)).astype(np.float32)
    test = clean(test_len) + 0.7 * rng.standard_normal(test_len)
    labels = np.zeros(test_len, dtype=bool)
    segments = []
    pos = 200
    while len(segments) < n_segments and pos < test_len - 200:
        width = int(rng.integers(8, 25))
        segments.append((pos, width))
        labels[pos : pos + width] = True
        pos += width + int(rng.integers(200, 360))
    for start, width in segments:
        test[start : start + width] += 0.9 * rng.standard_normal(width)
    return train, test.astype(np.float32), labels


def toy_forecast(rng: np.random.Generator, n_windows: int = 200,
                 context_len: int = 96, horizon: int = 24
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Windows of a stable AR(2) process split into context and target."""
    total = n_windows * 8 + context_len + horizon
    x = np.zeros(total)
    a1, a2 = 1.5, -0.75
    eps = rng.standard_normal(total)
    for i in range(2, total):
        x[i] = a1 * x[i - 1] + a2 * x[i - 2] + eps[i]
    x = (x / x.std()).astype(np.float32)
    starts = rng.integers(0, total - context_len - horizon, size=n_windows)
    ctx = np.stack([x[s : s + context_len] for s in starts])
    tgt = np.stack([x[s + context_len : s + context_len + horizon]
                    for s in starts])
    return ctx, tgt


# ---------------------------------------------------------------------------
# experiment runner


def _pretrain_corpus(cfg: RunConfig, seed: int) -> ArrayCorpus:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 11)))
    if cfg.data_source == "real":
        # every channel of every series is one row, cut to the train part
        fields, rows = tsb.read_dataset(data_root() / cfg.dataset_path)
        length = min(cfg.corpus_length, int(fields["train_end"]))
        return ArrayCorpus(
            rows.reshape(-1, int(fields["series_length"]))[:, :length])
    if cfg.synthetic_family == "gp":
        synth = np.stack([
            synthgen.standardized_series((seed, 13, i), cfg.corpus_length)
            for i in range(cfg.corpus_series)])
    else:
        synth = toy_pretrain_corpus(rng, cfg.corpus_series, cfg.corpus_length)
    if cfg.data_source == "hybrid":
        real = _pretrain_corpus(replace(cfg, data_source="real"), seed).series
        width = min(real.shape[1], synth.shape[1])
        return ArrayCorpus(np.concatenate([synth[:, :width], real[:, :width]]))
    return ArrayCorpus(synth)


def _backbone_for_seed(cfg: RunConfig, seed: int, ckpt_dir: Path):
    """Pretrained (or random baseline) weights plus the effective config.

    A seed's checkpoint in ``ckpt_dir`` is loaded instead of pretraining
    again; ``claim_run_dir`` has checked that it belongs to ``cfg``."""
    bb = cfg.backbone()
    if cfg.objective == "none":
        rng = np.random.default_rng(np.random.SeedSequence((seed, 17)))
        return init_encoder(bb, rng), bb
    ckpt = ckpt_dir / f"backbone_seed{seed}.tsbc"
    if ckpt.exists():
        return load_backbone(ckpt)[:2]
    corpus, pcfg = _pretrain_corpus(cfg, seed), cfg.pretrain_config(seed)
    try:  # a dataset's train part may be shorter than corpus_length
        replace(pcfg, window_len=min(pcfg.window_len, corpus.length))
    except ValueError as exc:
        raise DataError(f"dataset {cfg.dataset_path} has train length "
                        f"{corpus.length}, too short to pretrain: {exc}"
                        ) from exc
    result = objectives.pretrain(corpus, pcfg, out_path=ckpt)
    return result.best_weights, result.state.cfg


# probe learning rates tried per classify and anomaly probe; the head's own
# validation split picks
PROBE_LR_GRID = (3e-3, 1e-2, 3e-2)


def _evaluate_task(weights, bb: BackboneConfig, cfg: RunConfig, seed: int,
                   task: str) -> list[tuple[str, str, float]]:
    """(dataset, metric, value) rows of one task; shared by all objectives
    including the no-pretraining baseline, so deltas isolate pretraining.

    Each task draws from its own seed stream, so results do not depend on
    which other tasks ran in the same process (needed for resume)."""
    grid = {} if task == "forecast" else {"lrs": PROBE_LR_GRID,
                                          "batch_size": 16}
    spec = evaluate.ProbeSpec(mode=cfg.probe_mode, task=task,
                              epochs=cfg.probe_epochs, seed=seed, **grid)

    if task == "classify":
        rng = np.random.default_rng(np.random.SeedSequence((seed, 23)))
        x, y = toy_classification(rng)
        n = x.shape[0]
        n_test = max(n // 4, n - 150)  # small labeled pool, large test set
        res = evaluate.probe_train(weights, bb, spec, x[n_test:], y[n_test:])
        acc = evaluate.classify_head_eval(res.backbone, bb, res.head, spec,
                                          x[:n_test], y[:n_test])
        return [("sine_mixture", "accuracy", acc)]

    if task == "anomaly":
        rng = np.random.default_rng(np.random.SeedSequence((seed, 29)))
        train, test, labels = toy_anomaly(rng)
        win = bb.patch_len * min(bb.max_patches, 8)
        starts = np.arange(0, train.shape[0] - win + 1, win // 2)
        xw = np.stack([train[s : s + win] for s in starts])
        xn, _, _ = instance_norm(xw)
        targets = xn.reshape(len(starts), win // bb.patch_len, bb.patch_len)
        res = evaluate.probe_train(weights, bb, spec, xw, targets)
        s_train = evaluate.anomaly_scores(res.backbone, bb, res.head, train)
        s_test = evaluate.anomaly_scores(res.backbone, bb, res.head, test)
        preds = evaluate.threshold_by_percentile(s_train, s_test,
                                                 cfg.anomaly_percentile)
        preds = evaluate.point_adjust(preds, labels)
        precision, recall, f1 = evaluate.f1_score(preds, labels)
        return [("spike_burst", "precision", precision),
                ("spike_burst", "recall", recall),
                ("spike_burst", "f1", f1)]

    rng = np.random.default_rng(np.random.SeedSequence((seed, 37)))
    ctx, tgt = toy_forecast(rng, context_len=cfg.context_len,
                            horizon=cfg.horizon)
    n_test = ctx.shape[0] // 4
    res = evaluate.probe_train(weights, bb, spec, ctx[n_test:], tgt[n_test:])
    preds = evaluate.predict_head(res.backbone, bb, res.head, spec,
                                  ctx[:n_test])
    mse, mae = evaluate.forecast_metrics(preds, tgt[:n_test])
    return [(f"ar2_h{cfg.horizon}", "mse", mse),
            (f"ar2_h{cfg.horizon}", "mae", mae)]


def claim_run_dir(cfg: RunConfig) -> Path:
    """Make the run directory with records/ and checkpoints/, and write
    its config.ini.

    A directory whose config.ini holds a different config raises
    ConfigError naming the changed keys, before anything is written,
    because its records and checkpoints belong to that config.
    """
    run_dir = cfg.run_dir()
    if (run_dir / "config.ini").exists():
        old = load_run_config(run_dir / "config.ini")
        changed = [f.name for f in fields(RunConfig)
                   if getattr(old, f.name) != getattr(cfg, f.name)]
        if changed:
            raise ConfigError(f"{run_dir} holds a run with a different "
                              f"config; changed keys: {', '.join(changed)}")
    for sub in ("records", "checkpoints"):
        (run_dir / sub).mkdir(parents=True, exist_ok=True)
    save_run_config(cfg, run_dir / "config.ini")
    return run_dir


def run_experiment(cfg: RunConfig) -> list[MetricRecord]:
    """Pretrain + probe per seed, with crash-safe resume.

    Each (seed, task) pair writes its rows under records/ as soon as it
    finishes; reruns load them instead of recomputing, so no duplicates,
    and a seed with a task pending loads its checkpoint instead of
    pretraining again.
    """
    run_dir = claim_run_dir(cfg)
    records_dir = run_dir / "records"
    ckpt_dir = run_dir / "checkpoints"

    records: list[MetricRecord] = []
    for seed in cfg.seeds:
        backbone = None
        for task in cfg.tasks:
            path = records_dir / f"seed{seed}_{task}.csv"
            if not path.exists():
                if backbone is None:
                    backbone = _backbone_for_seed(cfg, seed, ckpt_dir)
                rows = _evaluate_task(*backbone, cfg, seed, task)
                _write_rows(path, [
                    MetricRecord(cfg.run_id, cfg.objective, cfg.data_source,
                                 cfg.n_layers, task, dataset, cfg.probe_mode,
                                 metric, value, str(seed)).to_row()
                    for dataset, metric, value in rows])
            records += _parse_rows(path, _read_rows(path))

    records += aggregate_records(records)
    write_metrics(run_dir / "metrics.csv", records)
    return records


# keys that name the run itself rather than a setting of it
_RUN_KEYS = ("run_id", "output_root", "seeds", "tasks")


def sweep(key: str, values, base: RunConfig
          ) -> tuple[list[MetricRecord], list[tuple[str, str]]]:
    """One child experiment per value of the RunConfig key ``key``, run
    ``{run_id}_{key}_{value}`` with each ``/`` and ``\\`` of the value
    replaced by ``_``; returns (records, [(value, error), ...]).

    Values parse as in a config file.  Every child config is built first,
    so a refused key, a bad or invalid value, or two values that give one
    child id raise ConfigError and run nothing; a child that fails while
    it runs is recorded."""
    if key not in _FIELD_TYPES or key in _RUN_KEYS:
        raise ConfigError(f"cannot sweep {key!r}: sweep a RunConfig key "
                          f"other than {', '.join(_RUN_KEYS)}")
    parsed = [_parse_value(key, str(v)) for v in values]
    ids = [f"{base.run_id}_{key}_{value}".replace("/", "_").replace("\\", "_")
           for value in parsed]
    if not ids or len(set(ids)) != len(ids):
        raise ConfigError(f"sweep values are empty or repeat a child id: "
                          f"{list(values)}")
    children = [replace(base, run_id=run_id, **{key: value})
                for run_id, value in zip(ids, parsed)]
    combined: list[MetricRecord] = []
    failures: list[tuple[str, str]] = []
    for value, child in zip(parsed, children):
        try:
            combined += run_experiment(child)
        except Exception as exc:  # noqa: BLE001 - recorded, sweep continues
            failures.append((str(value), f"{type(exc).__name__}: {exc}"))
    out_dir = Path(base.output_root)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_metrics(out_dir / f"{base.run_id}_{key}_sweep.csv", combined)
    failed = out_dir / f"{base.run_id}_{key}_failures.txt"
    failed.unlink(missing_ok=True)  # a rerun reports only its own failures
    if failures:
        failed.write_text("\n".join(f"{v}\t{e}" for v, e in failures) + "\n",
                          encoding="utf-8")
    return combined, failures
