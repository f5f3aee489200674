"""Time the factored u_p field's build, cold and warm, at revision REV and in the working tree.

    python tools/factor_cost.py REV [--rounds 8] [--builds 25]

Extracts REV's src/ into a temporary directory as tools/parity.py does (git
archive REV src | tar -x; the repository's .git is only read), then runs a
worker subprocess once with PYTHONPATH at the working tree's src/ and once at
REV's, per round, swapping which goes first every round. Each worker samples
the source of `modhelm_source`, `convdiff_disc` and `poisson_disc` at n = 128
and 512 (box_margin 1, taper 0.1: the pipeline's defaults) and times the
build of the field's factor, solve_particular and SpectralField._factor
together, --builds times cold and --builds times warm, alternating. A cold
build first clears the caches of particular._reciprocal_factor and _symbol,
where the revision has them, so it pays the cross of the symbol's reciprocal;
a warm build finds them filled, as every build after a workload's first does.
It reports both medians and the factor's rank.

Prints one line per round and case, then per case the median over rounds of
REV's and the working tree's cold and warm round medians, REV's warm spread
across rounds (max - min of its round medians), the ratios REV / tree, cold
and warm, the number of rounds in which the working tree's warm build read
lower, and both ranks. Not part of tier-1; the machine's load moves every
number, so compare only runs made side by side.
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

PRESETS = ("modhelm_source", "convdiff_disc", "poisson_disc")
SIZES = (128, 512)


def worker(builds: int) -> dict:
    """{case: [cold median seconds, warm median seconds, rank]} for the
    quasirbf on PYTHONPATH."""
    from quasirbf import particular
    from quasirbf.geometry import bounding_box
    from quasirbf.particular import TaperSpec, extend_source, solve_particular
    from quasirbf.presets import get_preset

    caches = [getattr(particular, name) for name in ("_reciprocal_factor", "_symbol")
              if hasattr(particular, name)]
    out = {}
    for name in PRESETS:
        preset = get_preset(name)
        box = bounding_box(preset.domain, 1.0)
        for n in SIZES:
            grid = extend_source(preset.source, preset.domain, box, n, TaperSpec(0.1))
            times = {True: [], False: []}
            for cold in [False] + [True, False] * builds:  # the first is untimed
                for cache in caches if cold else ():
                    cache.cache_clear()
                t0 = time.perf_counter()
                factor = solve_particular(preset.operator, grid)._factor
                times[cold].append(time.perf_counter() - t0)
            rank = None if factor is None else factor[0].shape[1]
            out[f"{name} n={n}"] = [statistics.median(times[True]),
                                    statistics.median(times[False][1:]), rank]
    return out


def run_worker(src: Path, builds: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, __file__, "--worker", "--builds", str(builds)],
                          env=env, capture_output=True, check=True)
    return json.loads(done.stdout)


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?")
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--builds", type=int, default=25)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.builds)))
        return 0
    if args.rev is None or args.rounds < 1 or args.builds < 1:
        parser.error("give REV, and --rounds and --builds of at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        if not extract_src(args.rev, Path(tmp)):
            return 2
        sides = {"rev": Path(tmp) / "src", "tree": ROOT / "src"}
        rounds = []
        for r in range(args.rounds):
            order = ("rev", "tree") if r % 2 == 0 else ("tree", "rev")
            got = {side: run_worker(sides[side], args.builds) for side in order}
            rounds.append(got)
            for case in got["rev"]:
                print(f"round {r + 1} {case}: {args.rev} cold/warm "
                      f"{got['rev'][case][0] * 1e3:.3f}/{got['rev'][case][1] * 1e3:.3f} ms, "
                      f"tree {got['tree'][case][0] * 1e3:.3f}/{got['tree'][case][1] * 1e3:.3f} ms",
                      flush=True)
    print(f"{'case':<22} {args.rev + ' cold/warm ms':>20} {'spread ms':>10} "
          f"{'tree cold/warm ms':>18} {'ratio cold/warm':>16} {'tree lower':>10} {'ranks':>8}")
    for case in rounds[0]["rev"]:
        old, new = ([statistics.median(got[side][case][k] for got in rounds) for k in (0, 1)]
                    for side in ("rev", "tree"))
        warm = [got["rev"][case][1] for got in rounds]
        lower = sum(got["tree"][case][1] < got["rev"][case][1] for got in rounds)
        ranks = f"{rounds[0]['rev'][case][2]}/{rounds[0]['tree'][case][2]}"
        print(f"{case:<22} {old[0] * 1e3:9.3f}/{old[1] * 1e3:<9.3f} "
              f"{(max(warm) - min(warm)) * 1e3:10.3f} {new[0] * 1e3:8.3f}/{new[1] * 1e3:<8.3f} "
              f"{old[0] / new[0]:7.2f}/{old[1] / new[1]:<7.2f} "
              f"{lower:>5}/{len(rounds):<4} {ranks:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
