"""The three benchmark workloads and the output check of every operation.

Each workload runs in cycles: one cycle is one pass over the workload's
seeded input mix, so every cycle does the same work and cycle times are
comparable. Operations run closed loop, one at a time, from one client.
quasirbf entry points are looked up at call time (`cli.run_cli`,
`pipeline.run_pipeline`) so that a traced run sees its patched wrappers.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time

import numpy as np

from quasirbf import cli, geometry, pipeline, presets


class Recorder:
    """Times operations, checks their outputs and counts failures."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples = {}      # op kind -> list of seconds
        self.attempted = 0
        self.failed = 0
        self.failures = []     # first few failure reasons
        self.max_err = 0.0
        self.op_time = 0.0     # summed duration of all timed operations

    def op(self, kind, fn, check):
        """Run fn as one operation; check(output) returns None or a reason."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                out = fn()
            else:
                out = self.tracer.root("bench." + kind, fn)
        except Exception as exc:  # an operation that raises counts as failed
            self.op_time += time.perf_counter() - t0
            self._fail(kind, f"{type(exc).__name__}: {exc}")
            return None
        dt = time.perf_counter() - t0
        self.op_time += dt
        self.samples.setdefault(kind, []).append(dt)
        try:
            reason = check(out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"unreadable output: {type(exc).__name__}: {exc}"
        if reason is not None:
            self._fail(kind, reason)
            return None
        return out

    def error(self, value):
        self.max_err = max(self.max_err, value)

    def _fail(self, kind, reason):
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{kind}: {reason}")


def run_cli(argv):
    """In-process `quasirbf <argv>`; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run_cli(argv)
    return code, buf.getvalue()


def _finite(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


class SourceFine:
    """`quasirbf solve` on the three source presets at grid 512."""

    name = "source_fine"
    presets = ("modhelm_source", "convdiff_disc", "poisson_disc")
    timings = {"report_s": ("report", "s", 1.0)}
    tails = ("report_s",)

    def __init__(self, seed, workdir, tolerances):
        self.rng = np.random.default_rng(seed)
        self.tol = tolerances["max_err"]
        self.configs = {}
        for name in self.presets:
            path = os.path.join(workdir, f"{name}.json")
            with open(path, "w") as fh:
                json.dump({"preset": name, "knots": 48, "grid": 512}, fh)
            self.configs[name] = path

    def cycle(self, rec):
        for i in self.rng.permutation(len(self.presets)):
            name = self.presets[i]
            rec.op("report",
                   lambda: run_cli(["solve", "--config", self.configs[name]]),
                   lambda out: self._check(rec, name, out))

    def _check(self, rec, name, out):
        code, text = out
        if code != 0:
            return f"{name}: exit code {code}"
        report = json.loads(text)
        if report["preset"] != name or report["knots"] != 48:
            return f"{name}: report is for {report['preset']} N={report['knots']}"
        numbers = [report[k] for k in ("condition_estimate", "solver_residual_norm",
                                       "boundary_residual", "max_err", "rms_err",
                                       "interior_residual")]
        if not _finite(*numbers) or report["effective_rank"] < 1:
            return f"{name}: non-finite or empty report {report}"
        rec.error(report["max_err"])
        if report["max_err"] > self.tol[name]:
            return f"{name}: max_err {report['max_err']:.3g} > {self.tol[name]:.3g}"
        return None


class KnotsSweep:
    """`quasirbf converge` on helmholtz_star; no source, so no particular work."""

    name = "knots_sweep"
    preset = "helmholtz_star"
    knots = (32, 64, 128, 256)
    header = ("N,max_err,rms_err,boundary_residual,condition_estimate,"
              "assemble_ms,solve_ms,particular_ms")
    timings = {"converge_s": ("converge", "s", 1.0)}
    tails = ()

    def __init__(self, seed, workdir, tolerances):
        # The inputs are fixed; the seed has nothing to vary here.
        self.tol = tolerances["max_err"][self.preset]
        self.argv = ["converge", "--preset", self.preset,
                     "--knots", ",".join(map(str, self.knots))]
        self.first_accuracy = None

    def cycle(self, rec):
        rec.op("converge", lambda: run_cli(self.argv),
               lambda out: self._check(rec, out))

    def _check(self, rec, out):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        lines = text.splitlines()
        if lines[0] != self.header:
            return f"unexpected CSV header {lines[0]!r}"
        rows = [line.split(",") for line in lines[1:]]
        if [int(r[0]) for r in rows] != list(self.knots):
            return f"unexpected knot column {[r[0] for r in rows]}"
        # Timing columns are quantised to 100 ms and differ between runs;
        # only the accuracy columns must repeat.
        accuracy = [tuple(r[1:4]) for r in rows]
        for r in rows:
            vals = [float(c) for c in r[1:]]
            if not _finite(*vals):
                return f"N={r[0]}: non-finite CSV row {r}"
            max_err, rms_err = vals[0], vals[1]
            rec.error(max_err)
            if max_err > self.tol or rms_err > max_err:
                return f"N={r[0]}: max_err {max_err:.3g} rms {rms_err:.3g} (tol {self.tol:.3g})"
        if self.first_accuracy is None:
            self.first_accuracy = accuracy
        elif accuracy != self.first_accuracy:
            return "accuracy columns changed between operations"
        return None


class QueryDense:
    """One solve per preset, then value and gradient at seeded interior points."""

    name = "query_dense"
    presets = ("convdiff_disc", "modhelm_source")
    points = 200
    radius = 0.9   # query points stay within 0.9 of the boundary radius
    timings = {"solve_s": ("solve", "s", 1.0), "query_us": ("query", "us", 1e6)}
    tails = ("query_us",)

    def __init__(self, seed, workdir, tolerances):
        self.rng = np.random.default_rng(seed)
        self.tol_value = tolerances["value"]
        self.tol_gradient = tolerances["gradient"]
        self.configs = {p: pipeline.RunConfig(preset=p, knots=64, grid=128)
                        for p in self.presets}
        # The preset's standard interior points (4 rings of 50) give the
        # error scales, max |u*| and max |grad u*|, and the seed-independent
        # max_err, measured on the first solve of each preset.
        self.standard = {}
        self.scale = {}
        for p in self.presets:
            pre = presets.get_preset(p)
            pts = [tuple(map(float, q)) for q in geometry.interior_eval_points(pre.domain, 4, 50)]
            self.standard[p] = pts
            self.scale[p] = (max(abs(pre.exact(*q)) for q in pts),
                             max(np.abs(pre.exact_gradient(*q)).max() for q in pts))
        self.measured = set()

    def _draw_points(self, name):
        domain = presets.get_preset(name).domain
        t = self.rng.uniform(0.0, 2.0 * np.pi, self.points)
        s = self.radius * np.sqrt(self.rng.uniform(0.0, 1.0, self.points))
        pts = domain.boundary_point(t) - domain.center
        return domain.center + s[:, None] * pts

    def cycle(self, rec):
        for i in self.rng.permutation(len(self.presets)):
            name = self.presets[i]
            cfg = self.configs[name]
            result = rec.op("solve", lambda: pipeline.run_pipeline(cfg),
                            self._check_solve)
            if result is None:
                continue
            field = result.field
            if name not in self.measured:
                self.measured.add(name)
                exact = presets.get_preset(name).exact
                rec.error(max(abs(field.evaluate(*q) - exact(*q))
                              for q in self.standard[name]) / self.scale[name][0])
            for x, y in self._draw_points(name):
                x, y = float(x), float(y)
                rec.op("query",
                       lambda: (field.evaluate(x, y), field.gradient(x, y)),
                       lambda out: self._check_query(rec, name, x, y, out))

    @staticmethod
    def _check_solve(result):
        diag = result.diagnostics
        if not _finite(diag.condition_estimate, diag.residual_norm) or diag.effective_rank < 1:
            return f"bad diagnostics {diag}"
        return None

    def _check_query(self, rec, name, x, y, out):
        value, grad = out
        pre = presets.get_preset(name)
        scale_u, scale_g = self.scale[name]
        err_u = abs(value - pre.exact(x, y)) / scale_u
        err_g = float(np.abs(np.asarray(grad) - pre.exact_gradient(x, y)).max()) / scale_g
        if not (math.isfinite(err_u) and math.isfinite(err_g)):
            return f"{name} at ({x:.4f}, {y:.4f}): non-finite output"
        if err_u > self.tol_value[name] or err_g > self.tol_gradient[name]:
            return (f"{name} at ({x:.4f}, {y:.4f}): value error {err_u:.3g}, "
                    f"gradient error {err_g:.3g}")
        return None


WORKLOADS = {w.name: w for w in (SourceFine, KnotsSweep, QueryDense)}
