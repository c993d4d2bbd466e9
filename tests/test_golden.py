"""The byte-identity manifest (tests/golden.py) holds, and catches a flip.

Both run in a child process, where golden.py pins BLAS to one thread
before numpy loads.  On a machine whose fingerprint differs from the
manifest's they skip (see golden.py); on the recording fingerprint they
always run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
OTHER_MACHINE = 3  # golden.OTHER_MACHINE, without importing it here

FLIP_SCRIPT = """
import json, sys, tempfile
from pathlib import Path
import golden
manifest = json.loads(golden.MANIFEST.read_text())
if manifest["fingerprint"] != golden.fingerprint():
    sys.exit(golden.OTHER_MACHINE)
want = {k: v for k, v in manifest["outputs"].items()
        if k.startswith("experiment/")}
with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)
    golden.run_experiments(root)
    ckpt = root / "mae" / "checkpoints" / "backbone_seed1.tsbc"
    data = bytearray(ckpt.read_bytes())
    data[-1] ^= 1  # lowest bit of the last weight's last byte
    ckpt.write_bytes(bytes(data))
    print(json.dumps(golden.mismatches(want, golden.file_hashes(root))))
"""


def _run(args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), str(TESTS)]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                         text=True, timeout=300)
    if out.returncode == OTHER_MACHINE:
        pytest.skip(f"manifest recorded on another machine: {out.stdout}")
    return out


def test_golden_outputs_match_manifest():
    out = _run([str(TESTS / "golden.py")])
    assert out.returncode == 0, out.stdout + out.stderr


def test_golden_check_catches_one_flipped_checkpoint_bit():
    out = _run(["-c", FLIP_SCRIPT])
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [
        "experiment/mae/checkpoints/backbone_seed1.tsbc"]
