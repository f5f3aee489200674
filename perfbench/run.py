"""quasirbf benchmark: end-to-end and per-layer timings on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload source_fine --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --self-check

Workloads (see workloads.py): source_fine (`quasirbf solve` on the three
source presets at grid 512), knots_sweep (`quasirbf converge` on
helmholtz_star, N = 32..256), query_dense (a solve per preset, then value
and gradient at seeded interior points). Each runs closed loop, one
operation at a time, in cycles over its seeded input mix until --seconds
have passed, and checks every operation's output.

--trace 0 measures end to end with no instrumentation. --trace 1 runs one
untraced cycle, then patches quasirbf's module boundaries (tracing.py) and
reports per-layer counts and self times per cycle, the medians over the
traced cycles, and the tracing overhead; spans go to perfbench/out/.

The second-to-last line of standard output is the full record: the
environment, every metric with its unit and sample count, and the
failures. The last line is the summary {correct, attempted, failed,
metrics} whose metric names BENCHMARK.json lists.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 7


def cap_blas_threads():
    """One process, no more BLAS threads than cores; set before numpy loads."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


# -- metric definitions ----------------------------------------------------------

# Summary-line metrics; their names and units are the ones in BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "cycle_s.p50": "s",
    "max_err": "1",
    "ok_frac": "1",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "specfun.calls": "count",
    "specfun.self_s": "s",
    "specfun.ns_per_call": "ns",
    "operators.kernel.calls": "count",
    "operators.kernel.self_s": "s",
    "operators.fd.calls": "count",
    "operators.fd.self_s": "s",
    "geometry.self_s": "s",
    "particular.self_s": "s",
    "particular.extend_source.s": "s",
    "particular.source_calls": "count",
    "particular.solve_particular.s": "s",
    "particular.coeff_bytes": "B",
    "particular.eval.calls": "count",
    "particular.eval.self_s": "s",
    "bkm.self_s": "s",
    "bkm.assemble.s": "s",
    "bkm.assemble.entries": "count",
    "bkm.solve_dense.s": "s",
    "bkm.solve_dense.flops": "flop",
    "bkm.rank_ratio": "1",
    "bkm.eval.calls": "count",
    "bkm.eval.self_s": "s",
    "pipeline.self_s": "s",
    "pipeline.run_pipeline.self_s": "s",
    "pipeline.metrics.s": "s",
    "presets.self_s": "s",
    "presets.callback_calls": "count",
    "presets.callback.self_s": "s",
    "cli.self_s": "s",
    "bench.self_s": "s",
    "trace.e2e_s": "s",
    "trace.self_sum_s": "s",
    "trace.overhead_s": "s",
}

# Per-layer values that are computed from sizes rather than measured.
COMPUTED = {
    "bkm.assemble.entries": "rows x columns of each assembled matrix",
    "bkm.solve_dense.flops": "thin-SVD count 4m^2n + 8mn^2 + 9n^3 plus 6mn for "
                             "the three matrix-vector products (plus LU when used)",
    "particular.coeff_bytes": "16 n^2 bytes of the complex coefficient matrix",
}


def tail(values):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). With fewer than 11
    samples no such percentile exists and the maximum is returned.
    """
    xs = sorted(values)
    n = len(xs)
    if n >= 11:
        return xs[n - 11], 100.0 * (n - 11) / (n - 1), 10
    return xs[-1], 100.0, 0


def environment(nproc):
    import numpy as np

    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "nproc": nproc,
        "blas_thread_cap": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = {"name": blas.get("name"), "version": blas.get("version"),
                       "config": blas.get("openblas configuration")}
    except (TypeError, KeyError):
        env["blas"] = None
    env["blas_threads"] = _openblas_threads(np)
    for level in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", level], capture_output=True,
                                 text=True, timeout=10)
            env[level.lower() + "_bytes"] = int(out.stdout.strip())
        except (OSError, ValueError, subprocess.TimeoutExpired):
            env[level.lower() + "_bytes"] = None
    return env


def _openblas_threads(np):
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def setup_once():
    """Seconds of `import quasirbf` in a fresh interpreter."""
    code = ("import time; t0 = time.perf_counter(); import quasirbf; "
            "print(repr(time.perf_counter() - t0))")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- runs ----------------------------------------------------------------------------

def run_cycles(workload, rec, seconds, between=None):
    """Run whole cycles (at least one) until `seconds` have passed.

    Returns the per-cycle operation time; between(elapsed) runs after
    each cycle, outside the operations' timing.
    """
    cycles = []
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds:
        before = rec.op_time
        workload.cycle(rec)
        cycles.append(rec.op_time - before)
        if between is not None:
            between(time.perf_counter() - start)
    return cycles


def layer_metrics(snap):
    st = snap["stats"]

    def layer(name):
        return [n for n in st if n.split(".", 1)[0] == name]

    def calls(names):
        return sum(st[n][0] for n in names if n in st)

    def incl(names):
        return sum(st[n][1] for n in names if n in st)

    def self_(names):
        return sum(st[n][2] for n in names if n in st)

    specfun = layer("specfun")
    kernel = ["operators.kernel_value", "operators.kernel_gradient"]
    fd = ["operators.apply_operator_fd"]
    part_eval = ["particular.eval_particular", "particular.eval_particular_gradient"]
    bkm_eval = ["bkm.eval_homogeneous", "bkm.eval_homogeneous_gradient"]
    callbacks = ["presets.source", "presets.exact", "presets.exact_gradient"]
    passes = ["pipeline.boundary_residual", "pipeline.error_metrics",
              "pipeline.residual_check"]
    counts = snap["counts"]
    ratios = snap["ratios"].get("bkm.rank_ratio", [])
    n_spec = calls(specfun)
    e2e = incl(layer("bench"))
    return {
        "specfun.calls": n_spec,
        "specfun.self_s": self_(specfun),
        "specfun.ns_per_call": self_(specfun) / n_spec * 1e9 if n_spec else 0.0,
        "operators.kernel.calls": calls(kernel),
        "operators.kernel.self_s": self_(kernel),
        "operators.fd.calls": calls(fd),
        "operators.fd.self_s": self_(fd),
        "geometry.self_s": self_(layer("geometry")),
        "particular.self_s": self_(layer("particular")),
        "particular.extend_source.s": incl(["particular.extend_source"]),
        "particular.source_calls": snap["under"].get(
            ("presets.source", "particular.extend_source"), 0),
        "particular.solve_particular.s": incl(["particular.solve_particular"]),
        "particular.coeff_bytes": counts.get("particular.coeff_bytes", 0),
        "particular.eval.calls": calls(part_eval),
        "particular.eval.self_s": self_(part_eval),
        "bkm.self_s": self_(layer("bkm")),
        "bkm.assemble.s": incl(["bkm.assemble"]),
        "bkm.assemble.entries": counts.get("bkm.assemble.entries", 0),
        "bkm.solve_dense.s": incl(["bkm.solve_dense"]),
        "bkm.solve_dense.flops": counts.get("bkm.solve_dense.flops", 0),
        "bkm.rank_ratio": statistics.fmean(ratios) if ratios else 0.0,
        "bkm.eval.calls": calls(bkm_eval),
        "bkm.eval.self_s": self_(bkm_eval),
        "pipeline.self_s": self_(layer("pipeline")),
        "pipeline.run_pipeline.self_s": self_(["pipeline.run_pipeline"]),
        "pipeline.metrics.s": incl(passes),
        "presets.self_s": self_(layer("presets")),
        "presets.callback_calls": calls(callbacks),
        "presets.callback.self_s": self_(callbacks),
        "cli.self_s": self_(layer("cli")),
        "bench.self_s": self_(layer("bench")),
        "trace.e2e_s": e2e,
        "trace.self_sum_s": sum(v[2] for v in st.values()),
    }


def run_untraced(workload, rec, seconds):
    # Set-up is timed SETUP_REPEATS times, spread evenly over the run so
    # that its median sees the same machine conditions as the cycles.
    setup_all = [setup_once()]

    def between(elapsed):
        if len(setup_all) < SETUP_REPEATS and elapsed >= len(setup_all) * seconds / SETUP_REPEATS:
            setup_all.append(setup_once())

    cycles = run_cycles(workload, rec, seconds, between)
    while len(setup_all) < SETUP_REPEATS:
        setup_all.append(setup_once())
    setup_s = statistics.median(setup_all)
    rss = peak_rss_mb()
    failed_frac = rec.failed / rec.attempted
    summary = {
        "setup_s": setup_s,
        "cycle_s.p50": statistics.median(cycles),
        "max_err": rec.max_err,
        "ok_frac": 1.0 - failed_frac,
        "peak_rss_mb": rss,
    }
    detail = {
        "setup_s": {"value": setup_s, "unit": "s", "n": len(setup_all)},
        "cycle_s.p50": {"value": summary["cycle_s.p50"], "unit": "s", "n": len(cycles),
                        "samples": cycles},
    }
    for metric, (kind, unit, factor) in workload.timings.items():
        xs = [t * factor for t in rec.samples.get(kind, [])]
        if not xs:
            continue
        detail[metric + ".p50"] = {"value": statistics.median(xs), "unit": unit, "n": len(xs)}
        if metric in workload.tails:
            value, pct, beyond = tail(xs)
            detail[metric + ".tail"] = {"value": value, "unit": unit, "n": len(xs),
                                        "pct": pct, "beyond": beyond}
    detail["max_err"] = {"value": rec.max_err, "unit": "1"}
    detail["failed_frac"] = {"value": failed_frac, "unit": "1"}
    detail["peak_rss_mb"] = {"value": rss, "unit": "MiB"}
    return summary, detail, {}


def run_traced(workload, rec, seconds, seed):
    import tracing

    base = run_cycles(workload, rec, 0.0)[0]
    tracer = tracing.Tracer()
    rec.tracer = tracer
    per_cycle = []
    t_origin = time.perf_counter()
    tracing.instrument(tracer)
    try:
        run_cycles(workload, rec, seconds - base,
                   lambda _: per_cycle.append(layer_metrics(tracer.take())))
    finally:
        tracer.restore()
        rec.tracer = None
    summary = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_s":
            continue
        # Counts repeat exactly from cycle to cycle; keep them whole numbers.
        middle = statistics.median_low if unit in ("count", "B", "flop") else statistics.median
        summary[name] = middle(c[name] for c in per_cycle)
    summary["trace.overhead_s"] = summary["trace.e2e_s"] - base
    os.makedirs(OUT, exist_ok=True)
    span_file = os.path.join(OUT, f"spans-{workload.name}-seed{seed}.json")
    tracer.write_spans(span_file, t_origin, {"workload": workload.name, "seed": seed})
    detail = {name: {"value": summary[name], "unit": unit}
              for name, unit in PER_LAYER.items()}
    extra = {
        "untraced_cycle_s": base,
        "traced_cycles": len(per_cycle),
        "per_cycle": per_cycle,
        "computed": COMPUTED,
        "span_file": os.path.relpath(span_file, ROOT),
        "span_count": len(tracer.spans),
    }
    return summary, detail, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload briefly and check the printed metrics")
    args = parser.parse_args(argv)

    if args.self_check:
        import selfcheck
        return selfcheck.main(HERE, ROOT)

    nproc = cap_blas_threads()
    if not os.path.isfile(os.path.join(SRC, "quasirbf", "__init__.py")):
        print(f"benchmark: no quasirbf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    with open(os.path.join(HERE, "tolerances.json")) as fh:
        tolerances = json.load(fh)

    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = workloads.WORKLOADS[args.workload](
            args.seed, workdir, tolerances[args.workload])
        rec = workloads.Recorder()
        if args.trace:
            summary, detail, extra = run_traced(workload, rec, args.seconds, args.seed)
            units = PER_LAYER
        else:
            summary, detail, extra = run_untraced(workload, rec, args.seconds)
            units = END_TO_END

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(nproc),
        "attempted": rec.attempted, "failed": rec.failed, "failures": rec.failures,
        "metrics": detail, **extra,
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": summary[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
