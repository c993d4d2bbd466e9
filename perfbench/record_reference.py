"""Record the fixed-input loss histories that every benchmark run replays.

    python3 perfbench/record_reference.py

Run from the root of a source checkout.  Re-record only when a change is
meant to alter what pretraining computes, and say so with the change.
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

if __name__ == "__main__":
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import run

    for var in run.BLAS_ENV:
        os.environ[var] = run.BLAS_THREADS
    import workloads

    ref = {name: workloads.reference_histories(workloads.plan(name, 1.0))
           for name in workloads.WORKLOADS}
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n",
                                        encoding="utf-8")
    print(f"wrote {workloads.REFERENCE_PATH}")
