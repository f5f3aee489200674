"""Span tracing at quasirbf's module boundaries, installed from outside the package.

Each public function that one module calls in another is replaced, in the
namespace where the caller looks it up, by a wrapper that times the call.
For example `pipeline.extend_source` is patched (pipeline imported it by
name) while `bkm.assemble` is patched on the bkm module (pipeline calls it
as `bkm.assemble`). Nothing under src/ is edited; `restore` undoes every
patch.

Every wrapped call keeps a call count, inclusive time and self time (its
duration minus the time covered by wrapped calls below it), so the self
times of all names partition the time of the root spans. Coarse calls also
become spans (name, start, end, id, parent id, operation id) kept in
memory and written once at the end. Hot leaf calls (Bessel functions,
kernels, geometry helpers, preset callbacks) are only aggregated: there
are about a million of them per convergence sweep.

Wrapped functions called outside a root span (the benchmark's own output
checks) run unmeasured.
"""
from __future__ import annotations

import dataclasses
import json
import time

from quasirbf import bkm, cli, geometry, operators, particular, pipeline


class Tracer:
    def __init__(self):
        # frame: [time covered by children, id of nearest recorded span, name]
        self.stack = []
        self.spans = []
        self.stats = {}    # name -> [calls, inclusive s, self s]
        self.under = {}    # (name, caller name) -> calls, for by_parent wrappers
        self.counts = {}   # computed work counts, filled by post hooks
        self.ratios = {}   # name -> list of per-call ratios
        self.op = -1
        self._next_id = 0
        self._undo = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name, fn, record=True, by_parent=False, post=None):
        stack, spans = self.stack, self.spans
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        under = self.under
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            if by_parent:
                key = (name, parent[2])
                under[key] = under.get(key, 0) + 1
            if record:
                sid = tracer._next_id
                tracer._next_id = sid + 1
            else:
                sid = parent[1]
            frame = [0.0, sid, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                if record:
                    spans.append((name, t0, t1, sid, parent[1], tracer.op))
            if post is not None:
                post(tracer, result, args, kwargs)
            return result

        return traced

    def patch(self, owner, attr, name, **kw):
        """Replace `owner.attr` (a module global, class method or property)."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(orig, property):
            new = property(self.wrap(name, orig.fget, **kw))
        else:
            new = self.wrap(name, orig, **kw)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, orig))

    def restore(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- operations -----------------------------------------------------------

    def root(self, name, fn):
        """Run fn as operation root span `name`; returns its result."""
        self.op += 1
        sid = self._next_id
        self._next_id += 1
        frame = [0.0, sid, name]
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            dur = t1 - t0
            stat[0] += 1
            stat[1] += dur
            stat[2] += dur - frame[0]
            self.spans.append((name, t0, t1, sid, -1, self.op))

    def add(self, counter, value):
        self.counts[counter] = self.counts.get(counter, 0) + value

    def take(self):
        """Return and zero the aggregates gathered since the last take()."""
        snap = {
            "stats": {k: tuple(v) for k, v in self.stats.items()},
            "under": dict(self.under),
            "counts": dict(self.counts),
            "ratios": {k: list(v) for k, v in self.ratios.items()},
        }
        for v in self.stats.values():
            v[:] = [0, 0.0, 0.0]
        self.under.clear()
        self.counts.clear()
        self.ratios.clear()
        return snap

    def write_spans(self, path, t_origin, meta):
        """Write every recorded span, times relative to t_origin, as JSON."""
        rows = [[n, s - t_origin, e - t_origin, i, p, o]
                for n, s, e, i, p, o in self.spans]
        with open(path, "w") as fh:
            json.dump(dict(meta, columns=["name", "start_s", "end_s", "id",
                                          "parent", "op"], spans=rows), fh)


# -- computed work counts (post hooks) ----------------------------------------

def svd_flops(rows, cols):
    """Golub-Van Loan count for a thin SVD with both singular-vector sets."""
    m, n = max(rows, cols), min(rows, cols)
    return 4 * m * m * n + 8 * m * n * n + 9 * n ** 3


def _after_assemble(tracer, system, args, kwargs):
    tracer.add("bkm.assemble.entries", int(system.matrix.size))


def _after_solve_dense(tracer, result, args, kwargs):
    coeffs, diag = result
    system = args[0]
    strategy = args[1] if len(args) > 1 else kwargs.get("strategy", bkm.LU())
    rows, cols = system.matrix.shape
    # A thin SVD (the TSVD solve and the condition estimate; solve_dense
    # skips it for LU above 512 unknowns, which no workload reaches), then
    # three matrix-vector products: U^T b, V (s^-1 .) and the residual.
    flops = svd_flops(rows, cols) + 6 * rows * cols
    if isinstance(strategy, bkm.LU):
        flops += 2 * cols ** 3 // 3 + 2 * cols * cols
    tracer.add("bkm.solve_dense.flops", flops)
    tracer.ratios.setdefault("bkm.rank_ratio", []).append(diag.effective_rank / cols)


def _after_solve_particular(tracer, sf, args, kwargs):
    # complex128 coefficient matrix: n^2 * 16 bytes (largest seen per cycle)
    size = 16 * sf.n * sf.n
    tracer.counts["particular.coeff_bytes"] = max(
        tracer.counts.get("particular.coeff_bytes", 0), size)


def instrument(tracer):
    """Patch every module boundary of quasirbf that the workloads cross."""
    for fn in ("bessel_j0", "bessel_j1", "bessel_i0", "bessel_i1"):
        tracer.patch(operators, fn, "specfun." + fn, record=False)

    for fn in ("kernel_value", "kernel_gradient"):
        tracer.patch(bkm, fn, "operators." + fn, record=False)
    tracer.patch(pipeline, "apply_operator_fd", "operators.apply_operator_fd")

    for fn in ("bounding_box", "boundary_nodes", "interior_eval_points"):
        tracer.patch(pipeline, fn, "geometry." + fn, record=False)
    tracer.patch(particular, "bounding_box", "geometry.bounding_box", record=False)
    for attr in ("rho", "rho_deriv", "boundary_point", "max_radius"):
        tracer.patch(geometry.StarDomain, attr, "geometry.StarDomain." + attr,
                     record=False)
    for attr in ("contains", "side", "center"):
        tracer.patch(geometry.Box2, attr, "geometry.Box2." + attr, record=False)

    tracer.patch(pipeline, "extend_source", "particular.extend_source")
    tracer.patch(pipeline, "solve_particular", "particular.solve_particular",
                 post=_after_solve_particular)
    tracer.patch(pipeline, "eval_particular", "particular.eval_particular")
    tracer.patch(pipeline, "eval_particular_gradient",
                 "particular.eval_particular_gradient")

    tracer.patch(bkm, "assemble", "bkm.assemble", post=_after_assemble)
    tracer.patch(bkm, "solve_dense", "bkm.solve_dense", post=_after_solve_dense)
    tracer.patch(bkm, "eval_homogeneous", "bkm.eval_homogeneous")
    tracer.patch(bkm, "eval_homogeneous_gradient", "bkm.eval_homogeneous_gradient")

    for fn in ("run_pipeline", "boundary_residual", "error_metrics",
               "residual_check", "evaluation_points", "convergence_study",
               "rows_to_csv"):
        tracer.patch(cli, fn, "pipeline." + fn)
    for fn in ("run_pipeline", "boundary_residual", "error_metrics",
               "evaluation_points"):
        tracer.patch(pipeline, fn, "pipeline." + fn)
    for attr in ("evaluate", "gradient"):
        tracer.patch(pipeline.SolutionField, attr, "pipeline.SolutionField." + attr)

    # Preset callbacks (source, exact solution) are presets-layer code: hand
    # the pipeline copies of each preset whose callbacks are wrapped.
    wrapped = {}
    orig_get_preset = pipeline.get_preset

    def get_preset(name):
        preset = orig_get_preset(name)
        if preset.name not in wrapped:
            fields = {}
            for attr in ("source", "exact", "exact_gradient"):
                fn = getattr(preset, attr)
                if fn is not None:
                    fields[attr] = tracer.wrap("presets." + attr, fn,
                                               record=False, by_parent=True)
            wrapped[preset.name] = dataclasses.replace(preset, **fields)
        return wrapped[preset.name]

    pipeline.get_preset = tracer.wrap("presets.get_preset", get_preset, record=False)
    tracer._undo.append((pipeline, "get_preset", orig_get_preset))

    tracer.patch(cli, "run_cli", "cli.run_cli")
