"""The golden pins hold under another OpenBLAS kernel.

numpy's bundled OpenBLAS is built for several CPUs and picks its kernels
when it loads; the environment variable OPENBLAS_CORETYPE forces a choice.
The design path solves and sums on Python floats in a fixed order, so its
bits do not depend on that choice. This test runs tests/test_golden.py in
a child process with the AVX2 `Haswell` kernels forced, in the child's
environment only. It skips when the child does not report that core: a
numpy linked to another BLAS, or a CPU the kernels cannot run on.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import regforge

TESTS = Path(__file__).resolve().parent
CORE = "Haswell"

# Prints the name of the core OpenBLAS loaded its kernels for.
PROBE = """
import ctypes, glob, os, sys
import numpy
libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                              "numpy.libs", "libscipy_openblas*.so"))
for path in libs:
    corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
    if corename is not None:
        corename.restype = ctypes.c_char_p
        print(corename().decode())
        sys.exit(0)
sys.exit(1)
"""


def _child_env() -> dict:
    src = str(Path(regforge.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, OPENBLAS_CORETYPE=CORE, PYTHONPATH=path)


def test_golden_pins_hold_under_haswell_kernels(tmp_path):
    env = _child_env()
    probe = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                           text=True, timeout=60)
    if probe.returncode != 0 or probe.stdout.strip() != CORE:
        pytest.skip(f"OpenBLAS did not load its {CORE} kernels "
                    f"(reported {probe.stdout.strip() or probe.stderr.strip()!r})")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"--basetemp={tmp_path / 'child'}", str(TESTS / "test_golden.py")],
        cwd=TESTS.parent, env=env, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
