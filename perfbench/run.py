"""Run one benchmark workload in this process and print its result.

    python3 perfbench/run.py --workload toy --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout: the benchmark imports ``tsrepr``
from ``src/`` and refuses to run without it.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` does the same work with spans recorded
and prints the per-layer metrics.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A result file with the machine fingerprint (and, when
traced, the spans) is written under ``perfbench/out/``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 2  # extra set-ups in child processes, besides this one
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a shared 2-vCPU machine a second thread made toy-shape
# epochs spike when the other vCPU was busy, and sped up paper-shape steps
# by only about 12%.
BLAS_THREADS = "1"

# A child process repeats this run's set-up: imports plus input generation.
SETUP_PROBE = """
import sys, time
t = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.make_inputs(workloads.plan(sys.argv[3], float(sys.argv[5])),
                      int(sys.argv[4]))
print(time.perf_counter() - t)
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fingerprint(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "tsrepr").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(), "git_commit": commit,
        "src_sha256": src_hash.hexdigest(), "workload": workload, "seed": seed,
    }


def setup_seconds(args, own: float) -> float:
    """Median set-up time over this process and SETUP_REPEATS children."""
    samples = [own]
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE),
             args.workload, str(args.seed), str(args.seconds)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return sorted(samples)[len(samples) // 2]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tsrepr" / "__init__.py").is_file():
        print(f"perfbench: no tsrepr package under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(HERE)]

    import workloads  # imports numpy and tsrepr with the BLAS threads fixed
    import tracing

    p = workloads.plan(args.workload, args.seconds)
    corpus = workloads.make_inputs(p, args.seed)
    own_setup = time.perf_counter() - T0
    OUT.mkdir(exist_ok=True)
    tag = f"{p.name}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    scratch = OUT / f"tmp-{tag}"
    tally = workloads.Tally()
    try:
        if args.trace:
            tracer = tracing.Tracer()
            with tracer:
                res = workloads.run_pass(p, corpus, args.seed, scratch, tally,
                                         tracer)
            metrics = workloads.per_layer(tracer, res, p)
            declared = workloads.PER_LAYER
            tracer.write(OUT / f"spans-{tag}.jsonl")
        else:
            metrics = {"setup_s": setup_seconds(args, own_setup)}
            res = workloads.run_pass(p, corpus, args.seed, scratch, tally)
            metrics.update(workloads.end_to_end(p, res))
            metrics["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            declared = workloads.END_TO_END
        workloads.check_experiment(res.run_dir, args.seed, tally)
        lines = workloads.tail_lines(p, res)
        reference = workloads.check_reference(p, tally)
        if args.trace:
            with tracing.Tracer():
                traced_reference = workloads.reference_histories(p)
            tally.check(traced_reference == reference,
                        "traced reference losses equal untraced bit for bit")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    units = dict(declared)
    missing = [name for name in units if name not in metrics]
    result = {
        "correct": tally.failed == 0 and not missing,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    fp = fingerprint(args.workload, args.seed)
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"fingerprint": fp, "seconds": args.seconds, "notes": tally.notes,
         "tails": lines, "epoch_s": res.epoch_s, **result}, indent=1),
        encoding="utf-8")
    print("machine: " + json.dumps(fp))
    for line in lines:
        print("tail " + line)
    for note in tally.notes:
        print("failed: " + note)
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
