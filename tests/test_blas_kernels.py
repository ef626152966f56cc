"""The golden pins hold under other OpenBLAS kernels.

numpy's bundled OpenBLAS is built for several CPUs and picks its kernels
when it loads; the environment variable OPENBLAS_CORETYPE forces a choice.
The design path solves, multiplies and sums on Python floats in a fixed
order, so its bits do not depend on that choice. These tests run
tests/test_golden.py in a child process with a kernel forced, in the
child's environment only: all of it under the AVX2 `Haswell` kernels, and
its synthesis pins under the pre-AVX `Prescott` kernels. The manifest's
CSV bytes still move under `Prescott`, through the np.dot products of
`simulate`'s scan (ROADMAP item 11), so that child leaves them out. A test
skips when the child does not report the core it forced: a numpy linked
to another BLAS, or a CPU the kernels cannot run on.

numpy's own loops dispatch too: NPY_DISABLE_CPU_FEATURES holds them at
the x86-64-v2 baseline. A third child runs the synthesis pins there, so
neither the design path nor the test's seeded inputs may round by the
SIMD loop numpy picks; it skips unless the child reports X86_V3 off.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import regforge

TESTS = Path(__file__).resolve().parent
CORE = "Haswell"
# numpy's dispatch targets above its x86-64-v2 baseline.
DISPATCH_TARGETS = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"

# Prints the name of the core OpenBLAS loaded its kernels for.
CORE_PROBE = """
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


# Prints whether numpy dispatches to its X86_V3 loops.
DISPATCH_PROBE = """
import numpy._core._multiarray_umath as umath
print(umath.__cpu_features__["X86_V3"])
"""


def _run_golden_under(setting: dict, probe: str, reported: str, tmp_path, *selection: str) -> None:
    """Run tests/test_golden.py with `setting` in the child's environment.

    Skips unless the child, running `probe`, prints `reported`.
    """
    src = str(Path(regforge.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, **setting)
    check = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                           text=True, timeout=60)
    if check.returncode != 0 or check.stdout.strip() != reported:
        pytest.skip(f"{setting} did not take effect "
                    f"(reported {check.stdout.strip() or check.stderr.strip()!r})")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"--basetemp={tmp_path / 'child'}", str(TESTS / "test_golden.py"), *selection],
        cwd=TESTS.parent, env=env, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]


def test_golden_pins_hold_under_haswell_kernels(tmp_path):
    _run_golden_under({"OPENBLAS_CORETYPE": CORE}, CORE_PROBE, CORE, tmp_path)


def test_synthesis_pins_hold_under_prescott_kernels(tmp_path):
    # This OpenBLAS names its Prescott kernels after the older Katmai core.
    _run_golden_under({"OPENBLAS_CORETYPE": "Prescott"}, CORE_PROBE, "Katmai", tmp_path,
                      "-k", "synthesis_matches_pin")


def test_synthesis_pins_hold_at_numpy_baseline_dispatch(tmp_path):
    _run_golden_under({"NPY_DISABLE_CPU_FEATURES": DISPATCH_TARGETS}, DISPATCH_PROBE, "False",
                      tmp_path, "-k", "synthesis_matches_pin")
