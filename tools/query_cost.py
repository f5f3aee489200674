"""Time the single-point query path and its I0/I1 evaluation at revision REV and in the working tree.

    python tools/query_cost.py REV [--rounds 8] [--calls 200]

Extracts REV's src/ into a temporary directory as tools/parity.py does (git
archive REV src | tar -x; the repository's .git is only read), then runs a
worker subprocess once with PYTHONPATH at the working tree's src/ and once at
REV's, per round, swapping which goes first every round. Each worker times:

- bessel_i0 and bessel_i0_i1 on 1, 64 and 16384 seeded arguments in [0, 10),
  the range of the pipeline's kernel arguments mu r;
- bessel_j0 and bessel_j1 on 1, 64 and 16384 seeded arguments in [0, 4.62),
  the range of knots_sweep's k r, and as a loop of 1000 float calls on
  linspace(0, 50, 1000), like the one acceptance criterion 02 times;
- SolutionField.evaluate and .gradient at one point, on `convdiff_disc` and
  `modhelm_source` solved as the query_dense workload solves them (knots 64,
  grid 128), cycling over 50 seeded points inside the domain;
- on `helmholtz_star` at knots 64 (no source, so u = u_h): evaluate and
  gradient together at one point, cycling over 50 seeded points, and
  evaluate on one batch of 1024 seeded points inside the domain.

A case's time is the median over 5 batches of --calls calls (of 5 batches of
--calls // 16 + 1 calls at 16384 arguments, 1024 points or of the float loop) of the mean
time per call, the float loop counting as one call.

Prints one line per round and case, then per case the median over rounds of
REV's and the working tree's times in microseconds, the ratio REV / tree (above
1: the tree is faster) and the number of rounds in which the tree read lower.
Not part of tier-1; the machine's load moves every number, so compare only
runs made side by side.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from parity import ROOT, extract_src

SIZES = (1, 64, 16384)
PRESETS = ("convdiff_disc", "modhelm_source")


def _per_call(fn, calls: int) -> float:
    """Median over 5 batches of the mean seconds per call of fn(i), i = 0 .. calls-1."""
    fn(0)
    batches = []
    for _ in range(5):
        t0 = time.perf_counter()
        for i in range(calls):
            fn(i)
        batches.append((time.perf_counter() - t0) / calls)
    return statistics.median(batches)


def worker(calls: int) -> dict:
    """{case: seconds per call} for the quasirbf on PYTHONPATH."""
    import numpy as np

    from quasirbf import pipeline, specfun
    from quasirbf.presets import get_preset

    rng = np.random.default_rng(2026)
    out = {}
    for names, hi in ((("bessel_i0", "bessel_i0_i1"), 10.0), (("bessel_j0", "bessel_j1"), 4.62)):
        for size in SIZES:
            x = rng.uniform(0.0, hi, size)
            n = calls if size < 1024 else calls // 16 + 1
            for name in names:
                fn = getattr(specfun, name)
                out[f"{name} P={size}"] = _per_call(lambda i: fn(x), n)
    floats = [float(v) for v in np.linspace(0.0, 50.0, 1000)]
    for name in ("bessel_j0", "bessel_j1"):
        fn = getattr(specfun, name)
        out[f"{name} 1000 floats"] = _per_call(lambda i: [fn(v) for v in floats],
                                               calls // 16 + 1)
    def interior(name, count):
        domain = get_preset(name).domain
        t = rng.uniform(0.0, 2.0 * np.pi, count)
        s = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, count))
        return domain.center + s[:, None] * (domain.boundary_point(t) - domain.center)

    for name in PRESETS:
        field = pipeline.run_pipeline(pipeline.RunConfig(preset=name, knots=64, grid=128)).field
        pts = [tuple(map(float, p)) for p in interior(name, 50)]
        out[f"{name} evaluate"] = _per_call(lambda i: field.evaluate(*pts[i % 50]), calls)
        out[f"{name} gradient"] = _per_call(lambda i: field.gradient(*pts[i % 50]), calls)
    field = pipeline.run_pipeline(pipeline.RunConfig(preset="helmholtz_star", knots=64)).field
    pts = [tuple(map(float, p)) for p in interior("helmholtz_star", 50)]
    out["helmholtz_star value+grad"] = _per_call(
        lambda i: (field.evaluate(*pts[i % 50]), field.gradient(*pts[i % 50])), calls)
    batch = interior("helmholtz_star", 1024).T
    out["helmholtz_star P=1024"] = _per_call(lambda i: field.evaluate(*batch), calls // 16 + 1)
    return out


def run_worker(src: Path, calls: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, __file__, "--worker", "--calls", str(calls)],
                          env=env, capture_output=True, check=True)
    return json.loads(done.stdout)


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?")
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--calls", type=int, default=200)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.calls)))
        return 0
    if args.rev is None or args.rounds < 1 or args.calls < 1:
        parser.error("give REV, and --rounds and --calls of at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        if not extract_src(args.rev, Path(tmp)):
            return 2
        sides = {"rev": Path(tmp) / "src", "tree": ROOT / "src"}
        rounds = []
        for r in range(args.rounds):
            order = ("rev", "tree") if r % 2 == 0 else ("tree", "rev")
            got = {side: run_worker(sides[side], args.calls) for side in order}
            rounds.append(got)
            for case in got["rev"]:
                print(f"round {r + 1} {case}: {args.rev} {got['rev'][case] * 1e6:.1f} us, "
                      f"tree {got['tree'][case] * 1e6:.1f} us", flush=True)
    print(f"{'case':<26} {args.rev + ' us':>12} {'tree us':>10} {'ratio':>7} {'tree lower':>10}")
    for case in rounds[0]["rev"]:
        old, new = (statistics.median(got[side][case] for got in rounds) for side in ("rev", "tree"))
        lower = sum(got["tree"][case] < got["rev"][case] for got in rounds)
        print(f"{case:<26} {old * 1e6:12.1f} {new * 1e6:10.1f} {old / new:7.2f} "
              f"{lower:>5}/{len(rounds)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
