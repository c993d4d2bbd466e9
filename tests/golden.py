"""Byte-identity check: sha256 of the outputs a refactor must not move.

It hashes, at one BLAS thread:

- for each of the six objectives, a toy-shape ``pretrain`` run: its
  history, its best weights, and its final ``trainable()`` and
  ``teacher`` arrays.  Arrays are hashed in iteration order without their
  names, so renaming a weight key moves nothing;
- ``metrics.csv``, ``records/*`` and the checkpoints of one-seed
  ``run_experiment`` runs on a tiny backbone: ``none`` and the six
  objectives with linear probes, lejepa on GP with finetune probes, and
  jepa with mlp probes.

Usage::

    python tests/golden.py            # compare with tests/golden_outputs.json
    python tests/golden.py --record   # write that manifest again

Float results depend on the numpy build, the BLAS and the CPU's SIMD
dispatch, so the manifest names the machine fingerprint it was recorded
on.  On that fingerprint the check always runs and exits 1 on any
changed, missing or new entry.  On another fingerprint it exits
``OTHER_MACHINE`` without comparing; there, record a manifest from the
parent commit first and check the change against it.  A PR that changes
results on purpose records the manifest again and names the entries
that moved.
"""

from __future__ import annotations

import os

# the manifest is recorded at one BLAS thread: multi-threaded OpenBLAS
# blocks some factorizations differently
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tsrepr import harness as H  # noqa: E402
from tsrepr import objectives as O  # noqa: E402
from tsrepr.backbone import BackboneConfig  # noqa: E402

MANIFEST = Path(__file__).with_name("golden_outputs.json")
OTHER_MACHINE = 3  # exit status when the fingerprint differs

# toy-shape pretraining: the acceptance backbone, two short epochs
TOY = BackboneConfig(d_model=32, n_layers=2, n_heads=4, patch_len=16,
                     max_patches=8, n_predictor_layers=2)
# one-seed experiments: (run id, RunConfig overrides)
EXPERIMENTS = [("none", {"objective": "none"})] + [
    (obj, {"objective": obj}) for obj in O.OBJECTIVES] + [
    ("lejepa_gp_finetune", {"objective": "lejepa", "synthetic_family": "gp",
                            "probe_mode": "finetune"}),
    ("jepa_mlp", {"objective": "jepa", "probe_mode": "mlp"})]
TINY = dict(seeds=(1,), d_model=16, n_layers=1, n_heads=2, patch_len=8,
            max_patches=16, epochs=2, steps_per_epoch=3, batch_size=8,
            corpus_series=16, corpus_length=256, probe_epochs=2)


def fingerprint() -> dict:
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    cpu = next((line.split(":", 1)[1].strip() for line in lines
                if line.startswith("model name")), platform.processor())
    flags = next((line.split(":", 1)[1].split() for line in lines
                  if line.startswith("flags")), [])
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpu_model": cpu, "avx512f": "avx512f" in flags}


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _arrays(weights) -> str:
    return _sha(np.ascontiguousarray(t.data).tobytes()
                for t in weights.values())


def pretrain_hashes() -> dict[str, str]:
    series = H.toy_pretrain_corpus(np.random.default_rng(0), 16, 256)
    out = {}
    for obj in O.OBJECTIVES:
        cfg = O.PretrainConfig(objective=obj, epochs=2, steps_per_epoch=2,
                               batch_size=8, window_len=128, seed=7,
                               backbone=TOY, dino_prototypes=32,
                               sigreg_projections=16)
        res = O.pretrain(O.ArrayCorpus(series), cfg)
        out[f"pretrain/{obj}/history"] = _sha(
            [json.dumps(res.history).encode()])
        out[f"pretrain/{obj}/best"] = _arrays(res.best_weights)
        out[f"pretrain/{obj}/trainable"] = _arrays(res.state.trainable())
        if res.state.teacher is not None:
            out[f"pretrain/{obj}/teacher"] = _arrays(res.state.teacher)
    return out


def run_experiments(root: Path) -> None:
    for run_id, overrides in EXPERIMENTS:
        H.run_experiment(H.RunConfig(run_id=run_id, output_root=str(root),
                                     **TINY, **overrides))


def file_hashes(root: Path) -> dict[str, str]:
    """Hash of every metrics.csv, record file and checkpoint under ``root``."""
    paths = [p for run_id, _ in EXPERIMENTS for p in
             [root / run_id / "metrics.csv",
              *sorted((root / run_id / "records").iterdir()),
              *sorted((root / run_id / "checkpoints").iterdir())]]
    return {f"experiment/{p.relative_to(root).as_posix()}":
            _sha([p.read_bytes()]) for p in paths}


def outputs() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        run_experiments(Path(tmp))
        return {**pretrain_hashes(), **file_hashes(Path(tmp))}


def mismatches(want: dict[str, str], got: dict[str, str]) -> list[str]:
    """Entries that changed, are missing from ``got`` or are new in it."""
    return sorted(k for k in want.keys() | got.keys()
                  if want.get(k) != got.get(k))


def main(argv: list[str]) -> int:
    if argv == ["--record"]:
        MANIFEST.write_text(json.dumps(
            {"fingerprint": fingerprint(), "outputs": outputs()},
            indent=1, sort_keys=True) + "\n")
        print(f"recorded {MANIFEST}")
        return 0
    if argv:
        print(__doc__)
        return 2
    manifest = json.loads(MANIFEST.read_text())
    if manifest["fingerprint"] != fingerprint():
        print(f"recorded on {manifest['fingerprint']}, "
              f"this machine is {fingerprint()}: not compared")
        return OTHER_MACHINE
    bad = mismatches(manifest["outputs"], outputs())
    for name in bad:
        print(f"MISMATCH {name}")
    print(f"{len(manifest['outputs']) - len(bad)} of "
          f"{len(manifest['outputs'])} entries identical")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
