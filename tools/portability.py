"""Run the tier-1 tests under other BLAS and numpy SIMD code paths of this host.

    python tools/portability.py [extra pytest arguments]

Reruns the tier-1 command (python -m pytest -q --continue-on-collection-errors
from the repository root, with src/ first on PYTHONPATH) once per setting:

- OPENBLAS_CORETYPE = Haswell, Sandybridge and Nehalem, which makes an
  OpenBLAS built with DYNAMIC_ARCH run that core's kernels;
- NPY_DISABLE_CPU_FEATURES naming every runtime dispatch target of numpy
  above its compiled baseline (AVX2 and AVX-512 on x86-64), so numpy runs its
  baseline kernels;
- OPENBLAS_NUM_THREADS=1, so every BLAS call runs on one thread (its
  blocking, and so the last bits of a product, can differ from a threaded
  run's).

Before each run, a short subprocess checks that the setting took effect
(OpenBLAS reports that core, or one thread; numpy reports those targets off);
a setting that did not prints SKIP with what the subprocess printed. Prints
one PASS, FAIL or SKIP line per setting, with pytest's summary line (and its
FAILED/ERROR lines), and exits 1 if any run fails. This is not part of
tier-1: each setting is a whole tier-1 run.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from numpy._core import _multiarray_umath

ROOT = Path(__file__).resolve().parents[1]
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
# prints OpenBLAS's "Core: ..." line (with OPENBLAS_VERBOSE=2), the list of numpy's
# dispatch targets that are enabled, and the thread count the loaded OpenBLAS reports
PROBE = """
import ctypes, glob, os
import numpy as np
from numpy._core import _multiarray_umath as m
print([t for t in m.__cpu_dispatch__ if m.__cpu_features__.get(t)])
for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
    try:
        handle = ctypes.CDLL(lib)
    except OSError:
        continue
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(handle, sym, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            print(f"OpenBLAS threads: {fn()}")
            break
"""


def settings():
    """(label, environment overrides, what the probe prints when they apply)."""
    for core in ("Haswell", "Sandybridge", "Nehalem"):
        yield f"OPENBLAS_CORETYPE={core}", {"OPENBLAS_CORETYPE": core}, f"Core: {core}\n"
    targets = " ".join(_multiarray_umath.__cpu_dispatch__)
    yield f"NPY_DISABLE_CPU_FEATURES={targets!r}", {"NPY_DISABLE_CPU_FEATURES": targets}, "[]\n"
    yield "OPENBLAS_NUM_THREADS=1", {"OPENBLAS_NUM_THREADS": "1"}, "OpenBLAS threads: 1\n"


def main(argv: list) -> int:
    base = os.environ.copy()
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       base.get("PYTHONPATH")]))
    failed = False
    for label, overrides, applied in settings():
        env = {**base, **overrides}
        probe = subprocess.run([sys.executable, "-c", PROBE], env={**env, "OPENBLAS_VERBOSE": "2"},
                               capture_output=True, text=True)
        if applied not in probe.stdout + probe.stderr:
            print(f"SKIP {label}: not applied, probe printed {probe.stdout + probe.stderr!r}",
                  flush=True)
            continue
        done = subprocess.run(TIER1 + argv, env=env, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        summary = lines[-1] if lines else done.stderr.strip()[-200:]
        failed |= done.returncode != 0
        print(f"{'PASS' if done.returncode == 0 else 'FAIL'} {label}: {summary}", flush=True)
        for line in lines:
            if line.startswith(("FAILED", "ERROR")):
                print(f"    {line}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
