"""Time the single-point query path, u_p blocks and Bessel evaluation at revision REV and in the working tree.

    python tools/query_cost.py REV [--rounds 40] [--calls 200]

Extracts REV's src/ into a temporary directory as tools/parity.py does (git
archive REV src | tar -x; the repository's .git is only read), then starts
two worker subprocesses, one with PYTHONPATH at the working tree's src/ and
one at REV's, and keeps both alive for the whole run. Each worker builds its
cases once; then, per round and case, the two workers run one short batch
each, one after the other, the side that goes first alternating with the
round and the case, so both sides see the same load. The cases:

- bessel_i0 and bessel_i0_i1 on 1, 64 and 16384 seeded arguments in [0, 10),
  the range of the pipeline's kernel arguments mu r;
- bessel_j0 and bessel_j1 on 1, 64 and 16384 seeded arguments in [0, 4.62),
  the range of knots_sweep's k r, and as a loop of 1000 float calls on
  linspace(0, 50, 1000), like the one acceptance criterion 02 times;
- on `convdiff_disc` and `modhelm_source` solved as the query_dense workload
  solves them (knots 64, grid 128), cycling over 50 seeded points inside the
  domain: SolutionField.evaluate and .gradient at one point, and per layer
  bkm.eval_homogeneous(_gradient) and particular.eval_particular(_gradient)
  at one point;
- on the same two presets solved as the source_fine workload solves them
  (knots 48, grid 512): particular.eval_particular on 63 seeded points inside
  the domain (one block of u_p's evaluation at grid 512) and on 200 (four
  blocks), so one run shows u_p's one-point and block costs side by side;
- on `helmholtz_star` at knots 64 (no source, so u = u_h): evaluate and
  gradient together at one point, cycling over 50 seeded points, and
  evaluate on one batch of 1024 seeded points inside the domain;
- cold assembly of `helmholtz_star` and `convdiff_disc` at knots 256, Dirichlet
  and Neumann: bkm.assemble right after bkm._cached_factor.cache_clear(), so
  every call builds its collocation matrix.

A batch is --calls calls (--calls // 16 + 1 at 16384 arguments, at 63 or 200
points at grid 512, at 1024 points, of a cold assembly or of the float loop,
which counts as one call); its time is the mean per call. Per case the
summary prints the median over rounds of REV's and the working tree's times
in microseconds, the median over rounds of the ratio REV / tree of one
round's two batches (above 1: the tree is faster) and the number of rounds in
which the tree read lower. Not
part of tier-1; load still moves every number, so judge a change by the ratio
and the count, not by one side's times.
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
BLOCKS = (63, 200)
PRESETS = ("convdiff_disc", "modhelm_source")


def cases(calls: int) -> dict:
    """{case: (fn, calls per batch)} for the quasirbf on PYTHONPATH; fn(i) is one call."""
    import numpy as np

    from quasirbf import bkm, particular, pipeline, specfun
    from quasirbf.geometry import boundary_nodes, stack_xy
    from quasirbf.presets import get_preset

    rng = np.random.default_rng(2026)
    out, few = {}, calls // 16 + 1
    for names, hi in ((("bessel_i0", "bessel_i0_i1"), 10.0), (("bessel_j0", "bessel_j1"), 4.62)):
        for size in SIZES:
            x = rng.uniform(0.0, hi, size)
            for name in names:
                out[f"{name} P={size}"] = (lambda i, f=getattr(specfun, name), x=x: f(x),
                                           calls if size < 1024 else few)
    floats = [float(v) for v in np.linspace(0.0, 50.0, 1000)]
    for name in ("bessel_j0", "bessel_j1"):
        out[f"{name} 1000 floats"] = (
            lambda i, f=getattr(specfun, name): [f(v) for v in floats], few)

    def interior(name, count):
        domain = get_preset(name).domain
        t = rng.uniform(0.0, 2.0 * np.pi, count)
        s = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, count))
        return domain.center + s[:, None] * (domain.boundary_point(t) - domain.center)

    for name in PRESETS:
        field = pipeline.run_pipeline(pipeline.RunConfig(preset=name, knots=64, grid=128)).field
        pts = [tuple(map(float, p)) for p in interior(name, 50)]
        xs = [stack_xy(*p) for p in pts]
        h, p = field.homogeneous, field.particular
        out[f"{name} evaluate"] = (lambda i, f=field, pts=pts: f.evaluate(*pts[i % 50]), calls)
        out[f"{name} gradient"] = (lambda i, f=field, pts=pts: f.gradient(*pts[i % 50]), calls)
        for layer, fn, sol in (("bkm", bkm.eval_homogeneous, h),
                               ("bkm grad", bkm.eval_homogeneous_gradient, h),
                               ("particular", particular.eval_particular, p),
                               ("particular grad", particular.eval_particular_gradient, p)):
            out[f"{name} {layer}"] = (lambda i, fn=fn, sol=sol, xs=xs: fn(sol, xs[i % 50]), calls)
        fine = pipeline.run_pipeline(pipeline.RunConfig(preset=name, knots=48, grid=512)).field
        block = interior(name, 200)
        for size in BLOCKS:
            out[f"{name} particular P={size} n=512"] = (
                lambda i, sf=fine.particular, x=block[:size]: particular.eval_particular(sf, x), few)
    field = pipeline.run_pipeline(pipeline.RunConfig(preset="helmholtz_star", knots=64)).field
    pts = [tuple(map(float, p)) for p in interior("helmholtz_star", 50)]
    out["helmholtz_star value+grad"] = (
        lambda i: (field.evaluate(*pts[i % 50]), field.gradient(*pts[i % 50])), calls)
    batch = interior("helmholtz_star", 1024).T
    out["helmholtz_star P=1024"] = (lambda i: field.evaluate(*batch), few)

    def cold_assembly(op, knots, bc_kind):
        bkm._cached_factor.cache_clear()
        return bkm.assemble(op, knots, bc_kind, np.zeros(len(knots)))

    for name in ("helmholtz_star", "convdiff_disc"):
        problem = get_preset(name)
        knots = boundary_nodes(problem.domain, 256)
        for bc_kind in ("dirichlet", "neumann"):
            out[f"{name} cold assemble N=256 {bc_kind}"] = (
                lambda i, op=problem.operator, k=knots, bc=bc_kind: cold_assembly(op, k, bc), few)
    return out


def worker(calls: int):
    """Build the cases, print their names as one JSON line, then for each case name
    read from stdin run one batch and print its mean seconds per call."""
    table = cases(calls)
    for fn, _ in table.values():
        fn(0)
    print(json.dumps(list(table)), flush=True)
    for line in sys.stdin:
        fn, n = table[line.strip()]
        t0 = time.perf_counter()
        for i in range(n):
            fn(i)
        print((time.perf_counter() - t0) / n, flush=True)


class Worker:
    """A worker subprocess on one src/ tree."""

    def __init__(self, src: Path, calls: int):
        env = dict(os.environ, PYTHONPATH=str(src))
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--worker", "--calls", str(calls)], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.names = json.loads(self.proc.stdout.readline())

    def batch(self, case: str) -> float:
        self.proc.stdin.write(case + "\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?")
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--calls", type=int, default=200)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.calls)
        return 0
    if args.rev is None or args.rounds < 1 or args.calls < 1:
        parser.error("give REV, and --rounds and --calls of at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        if not extract_src(args.rev, Path(tmp)):
            return 2
        workers = {"rev": Worker(Path(tmp) / "src", args.calls),
                   "tree": Worker(ROOT / "src", args.calls)}
        try:
            names = [n for n in workers["rev"].names if n in workers["tree"].names]
            times = {n: {"rev": [], "tree": []} for n in names}
            for r in range(args.rounds):
                for i, name in enumerate(names):
                    for side in (("rev", "tree") if (r + i) % 2 == 0 else ("tree", "rev")):
                        times[name][side].append(workers[side].batch(name))
        finally:
            for w in workers.values():
                w.close()
    print(f"{'case':<42} {args.rev + ' us':>12} {'tree us':>10} {'ratio':>7} {'tree lower':>10}")
    for name, got in times.items():
        old, new = (statistics.median(got[side]) for side in ("rev", "tree"))
        ratio = statistics.median(a / b for a, b in zip(got["rev"], got["tree"]))
        lower = sum(b < a for a, b in zip(got["rev"], got["tree"]))
        print(f"{name:<42} {old * 1e6:12.1f} {new * 1e6:10.1f} {ratio:7.2f} "
              f"{lower:>5}/{args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
