"""Imports: every imported name is used, the package needs no scipy, and
importing it keeps freed heap mapped."""

import ast
import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src/tsrepr", "tests", "demos")
               for p in (ROOT / d).glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line for every import except ``__future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotation_names(node) -> set[str]:
    """Names inside a quoted (forward-reference) annotation."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                if isinstance(n, ast.Name)}
    return set()


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            for ann in [a.annotation for a in args] + [node.returns]:
                used |= _annotation_names(ann)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used |= {e.value for e in node.value.elts}
    return used


def test_scan_finds_unused_import():
    tree = ast.parse("import os\nfrom a import b as c, d\n"
                     "def f(x: 'd') -> None:\n    return os\n")
    assert set(_imported(tree)) - _used(tree) == {"c"}


def test_no_unused_imports():
    unused = {}
    for path in FILES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used(tree)
        unused.update({f"{path.relative_to(ROOT)}:{line}": name
                       for name, line in _imported(tree).items()
                       if name not in used})
    assert not unused


def test_package_imports_without_scipy():
    code = ("import sys; import tsrepr, tsrepr.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.stdout.strip() == "[]"


def test_cli_module_runs_without_warnings():
    # the package must not import cli, or ``python -m tsrepr.cli`` warns
    # that the module was imported before it ran
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "tsrepr.cli",
                           "--help"], capture_output=True, text=True,
                          timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


# minor page faults of 20 GP draws after a warm-up draw; the bound is about
# 40x below the ~41,000 faults the draws made with glibc's default
# thresholds, and about 100x above the ~10 they make once they are set
HEAP_SCRIPT = """
import resource
import tsrepr
from tsrepr import synthgen
synthgen.standardized_series((0, 0), 512)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for i in range(20):
    synthgen.standardized_series((1, i), 512)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(getattr(ctypes.CDLL(None), "mallopt", None) is None,
                    reason="libc has no mallopt")
def test_import_keeps_freed_heap_mapped():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", HEAP_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert int(proc.stdout) < 1000
