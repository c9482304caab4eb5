"""Every script in demos/ runs to completion and prints exactly its
pinned stdout, `tests/golden/demo-<name>.txt` (rewritten by
`tests/test_golden.py`)."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
NUMPY_VERSION = ROOT / "tests" / "golden" / "numpy-version.txt"


def numpy_note() -> str:
    """The numpy that wrote the golden corpus and the one running, and the
    BLAS threads the run may use: a numpy upgrade can move the last digit
    of an FFT, and the matrix-route ascent's last digits depend on the
    OpenBLAS thread count (`restriction._matrix_operator`), so a one-CPU
    host fails `sweep-hamming-d2-q3-bench`.  A byte diff should say
    both."""
    return (f"golden corpus written under numpy "
            f"{NUMPY_VERSION.read_text().strip()}, running numpy "
            f"{np.__version__}; OPENBLAS_NUM_THREADS="
            f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}, "
            f"{len(os.sched_getaffinity(0))} CPUs in the affinity mask")


def demo_golden(demo: pathlib.Path) -> pathlib.Path:
    return ROOT / "tests" / "golden" / f"demo-{demo.stem}.txt"


def run_demo(demo: pathlib.Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, str(demo)], capture_output=True,
                          env=env, cwd=ROOT, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = run_demo(demo)
    stderr = proc.stderr.decode("utf-8", "replace")
    assert proc.returncode == 0, stderr
    assert "Traceback" not in stderr
    assert proc.stdout
    assert proc.stdout == demo_golden(demo).read_bytes(), numpy_note()


def test_numpy_note_names_the_blas_threads(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    note = numpy_note()
    assert f"running numpy {np.__version__}" in note
    assert "OPENBLAS_NUM_THREADS=1" in note
    assert f"{len(os.sched_getaffinity(0))} CPUs in the affinity mask" in note
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert "OPENBLAS_NUM_THREADS=unset" in numpy_note()
