"""End-to-end orchestration: split, solve, recombine, measure, report.

The pipeline realizes the particular/homogeneous split: the source is
handled on the embedding box (particular module), the boundary data is
adjusted by the trace of the particular solution, and the remainder is
absorbed by boundary-knot collocation (bkm module). u_p depends on the
source, box, grid, taper and operator, not on the boundary, so its field is
cached by those (_cached_particular): repeated solves and a knot sweep on a
source preset solve it once. Convergence studies sweep the knot count and
emit CSV rows.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import bkm
from .bkm import LU, TSVD, HomogeneousSolution, SolveDiagnostics, Strategy, _Keyed
from .errors import ConfigurationError, QuasiRbfError
from .geometry import (StarDomain, boundary_nodes, bounding_box,
                       interior_eval_points, stack_xy)
from .operators import OperatorSpec, apply_operator_fd
from .particular import (SpectralField, TaperSpec, check_grid_size,
                         eval_particular, eval_particular_gradient,
                         extend_source, solve_particular)
from .presets import ProblemPreset, get_preset

# Timing columns are quantized to this grain (in ms) before CSV emission so
# that repeated runs of the same configuration produce identical bytes.
TIMING_QUANTUM_MS = 100.0

CSV_HEADER = ("N,max_err,rms_err,boundary_residual,condition_estimate,"
              "assemble_ms,solve_ms,particular_ms")


@dataclass(frozen=True)
class InlineProblem:
    """A problem given directly in the config instead of by preset name.

    Without an expression parser there is no way to supply an analytic
    source or exact solution, so inline problems are homogeneous with
    unit Dirichlet (or zero-flux Neumann) boundary data; only residual
    diagnostics are available for them.
    """
    operator: OperatorSpec
    domain: StarDomain
    bc_kind: str = "dirichlet"

    def as_preset(self) -> ProblemPreset:
        return ProblemPreset(
            name="inline", description="inline problem",
            operator=self.operator, domain=self.domain,
            exact=None, exact_gradient=None, source=None,
            bc_kind=self.bc_kind)


@dataclass(frozen=True)
class RunConfig:
    preset: Optional[str] = None
    problem: Optional[InlineProblem] = None
    knots: int = 32
    grid: int = 128
    box_margin: float = 1.0
    taper: float = 0.1
    strategy: str = "tsvd"
    svd_cutoff: float = bkm.DEFAULT_TSVD_CUTOFF
    trefftz_order: int = 12
    rings: int = 4
    per_ring: int = 50

    def __post_init__(self):
        if (self.preset is None) == (self.problem is None):
            raise ConfigurationError("exactly one of preset / problem must be given")
        if self.knots < 1:
            raise ConfigurationError(f"knots must be >= 1, got {self.knots}")
        if self.strategy not in ("lu", "tsvd"):
            raise ConfigurationError(f"strategy must be 'lu' or 'tsvd', got {self.strategy!r}")
        if self.rings < 1 or self.per_ring < 1:
            raise ConfigurationError("rings and per_ring must both be >= 1")
        if not (np.isfinite(self.box_margin) and self.box_margin >= 0):
            raise ConfigurationError(f"box_margin must be finite and >= 0, got {self.box_margin}")
        if self.trefftz_order < 0:
            raise ConfigurationError(f"trefftz_order must be >= 0, got {self.trefftz_order}")
        # reject a bad cutoff, grid or taper before any work, with or without a source
        TSVD(cutoff=self.svd_cutoff)
        check_grid_size(self.grid)
        TaperSpec(self.taper)

    def resolve_problem(self) -> ProblemPreset:
        if self.preset is not None:
            return get_preset(self.preset)
        return self.problem.as_preset()

    def solver_strategy(self) -> Strategy:
        return LU() if self.strategy == "lu" else TSVD(cutoff=self.svd_cutoff)


@dataclass(frozen=True)
class SolutionField:
    """Composite evaluator u(x) = u_p(x) + u_h(x).

    evaluate and gradient take coordinates x1, x2 as floats or as arrays
    of one shape (...); the value has shape (...), the gradient (..., 2).
    """
    particular: Optional[SpectralField]
    homogeneous: HomogeneousSolution

    def evaluate(self, x1, x2):
        x = stack_xy(x1, x2)
        val = bkm.eval_homogeneous(self.homogeneous, x)
        if self.particular is not None:
            val = val + eval_particular(self.particular, x)
        return val

    def gradient(self, x1, x2) -> np.ndarray:
        x = stack_xy(x1, x2)
        g = bkm.eval_homogeneous_gradient(self.homogeneous, x)
        if self.particular is not None:
            g = g + eval_particular_gradient(self.particular, x)
        return g


def _broadcast(value, shape) -> np.ndarray:
    """A callback result (array or constant) as a float array of `shape`."""
    return np.broadcast_to(np.asarray(value, dtype=float), shape)


@dataclass(frozen=True)
class StageTimings:
    particular_ms: float = 0.0
    assemble_ms: float = 0.0
    solve_ms: float = 0.0


@dataclass(frozen=True)
class RunResult:
    field: SolutionField
    diagnostics: SolveDiagnostics
    timings: StageTimings
    problem: ProblemPreset
    config: RunConfig


@dataclass(frozen=True)
class ConvergenceRow:
    knots: int
    max_err: float
    rms_err: float
    boundary_residual: float
    condition_estimate: float
    assemble_ms: float
    solve_ms: float
    particular_ms: float
    error: Optional[str] = None  # sentinel for failed runs; numeric cells are NaN


# u_p's field by what extend_source and solve_particular read, not by knots, data or solver (one
# entry per source preset); a failed solve takes no entry; the field's arrays are read-only
_cached_particular = lru_cache(maxsize=4)(lambda keyed: keyed.build())


@contextmanager
def _stage(name: str, ms: Dict[str, float]):
    """Time the block into ms[name]; prefix a QuasiRbfError with the stage name."""
    t0 = time.perf_counter()
    try:
        yield
    except QuasiRbfError as exc:
        raise type(exc)(f"{name} stage: {exc}") from exc
    ms[name] = (time.perf_counter() - t0) * 1e3


def run_pipeline(config: RunConfig) -> RunResult:
    problem = config.resolve_problem()
    op, domain = problem.operator, problem.domain
    sf: Optional[SpectralField] = None
    ms = {"particular": 0.0}
    if problem.source is not None:
        with _stage("particular", ms):
            sf = _cached_particular(_Keyed(
                (problem.source, domain.shape, domain.center.tobytes(), config.box_margin,
                 config.grid, config.taper, tuple(np.hstack(op.coefficients[:3]))),  # (D, v, c)
                lambda: solve_particular(op, extend_source(
                    problem.source, domain, bounding_box(domain, config.box_margin),
                    config.grid, TaperSpec(config.taper)))))

    with _stage("assembly", ms):
        knots = boundary_nodes(domain, config.knots)
        data = _boundary_data(problem, sf, knots.points, knots.normals)
        trefftz = bkm.TrefftzMode(config.trefftz_order, domain.center, domain.max_radius())
        system = bkm.assemble(op, knots, problem.bc_kind, data, trefftz)

    with _stage("solve", ms):
        coeffs, diagnostics = bkm.solve_dense(system, config.solver_strategy())

    sol = HomogeneousSolution(mode=system.mode, coefficients=coeffs, centers=system.centers)
    timings = StageTimings(ms["particular"], ms["assembly"], ms["solve"])
    return RunResult(field=SolutionField(particular=sf, homogeneous=sol),
                     diagnostics=diagnostics, timings=timings, problem=problem, config=config)


def _boundary_data(problem: ProblemPreset, sf: Optional[SpectralField],
                   pts: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Data left for u_h at boundary points (P, 2) with outward normals:
    u* - u_p (Dirichlet) or n.grad(u* - u_p) (Neumann). Without an exact
    solution u* is taken as 1 (Dirichlet) or zero-flux (Neumann)."""
    x1, x2 = pts[:, 0], pts[:, 1]
    if problem.bc_kind == "dirichlet":
        g = _broadcast(problem.exact(x1, x2) if problem.exact is not None else 1.0, x1.shape)
        return g - eval_particular(sf, pts) if sf is not None else g
    grad = (_broadcast(problem.exact_gradient(x1, x2), pts.shape)
            if problem.exact_gradient is not None else np.zeros(pts.shape))
    if sf is not None:
        grad = grad - eval_particular_gradient(sf, pts)
    return np.einsum("pk,pk->p", normals, grad)


def error_metrics(evaluate: Callable, exact: Callable, points) -> Tuple[float, float]:
    """Max and RMS error relative to max |exact| over the point set;
    evaluate and exact are called once each, on the coordinate arrays."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) == 0:
        raise ConfigurationError("error_metrics needs at least one point")
    x1, x2 = pts[:, 0], pts[:, 1]
    e = _broadcast(exact(x1, x2), x1.shape)
    scale = float(np.max(np.abs(e)))
    if scale == 0.0:
        raise ConfigurationError(
            "error_metrics: exact solution vanishes on the whole point set")
    errs = np.abs(_broadcast(evaluate(x1, x2), x1.shape) - e) / scale
    return float(errs.max()), float(np.sqrt(np.mean(errs ** 2)))


def residual_check(field: SolutionField, op: OperatorSpec,
                   source: Optional[Callable], points, h: float) -> float:
    """Max |L u - f| by finite differences over interior points."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    lu = apply_operator_fd(op, field.evaluate, pts, h)
    f = source(pts[:, 0], pts[:, 1]) if source is not None else 0.0
    return float(np.max(np.abs(lu - f), initial=0.0))


def boundary_residual(result: RunResult, samples_per_knot: int = 4) -> float:
    """Max |u - g| at off-knot boundary points.

    Sample parameters sit halfway between consecutive fine-grid positions
    so none coincides with a collocation knot; exactness at the knots
    therefore cannot mask boundary error.
    """
    problem = result.problem
    n = result.config.knots * samples_per_knot
    t = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    pts = problem.domain.boundary_point(t)
    normals = problem.domain.outward_normal(t)
    data = _boundary_data(problem, None, pts, normals)
    if problem.bc_kind == "dirichlet":
        got = result.field.evaluate(pts[:, 0], pts[:, 1])
    else:
        got = np.einsum("pk,pk->p", normals, result.field.gradient(pts[:, 0], pts[:, 1]))
    return float(np.max(np.abs(got - data)))


def evaluation_points(config: RunConfig) -> np.ndarray:
    problem = config.resolve_problem()
    return interior_eval_points(problem.domain, config.rings, config.per_ring)


def convergence_study(config: RunConfig,
                      knot_counts: Sequence[int]) -> List[ConvergenceRow]:
    if list(knot_counts) != sorted(set(knot_counts)):
        raise ConfigurationError("knot counts must be strictly increasing")
    rows = []
    for n_knots in knot_counts:
        cfg = replace(config, knots=int(n_knots))
        try:
            result = run_pipeline(cfg)
            points = evaluation_points(cfg)
            if result.problem.exact is not None:
                max_err, rms_err = error_metrics(result.field.evaluate,
                                                 result.problem.exact, points)
            else:
                max_err = rms_err = float("nan")
            rows.append(ConvergenceRow(
                knots=int(n_knots), max_err=max_err, rms_err=rms_err,
                boundary_residual=boundary_residual(result),
                condition_estimate=result.diagnostics.condition_estimate,
                assemble_ms=result.timings.assemble_ms,
                solve_ms=result.timings.solve_ms,
                particular_ms=result.timings.particular_ms))
        except ConfigurationError:
            raise
        except QuasiRbfError as exc:
            nan = float("nan")
            rows.append(ConvergenceRow(
                knots=int(n_knots), max_err=nan, rms_err=nan,
                boundary_residual=nan, condition_estimate=nan,
                assemble_ms=nan, solve_ms=nan, particular_ms=nan,
                error=str(exc)))
    return rows


def rows_to_csv(rows: Sequence[ConvergenceRow]) -> str:
    """CSV_HEADER and one line per row, timings quantized to TIMING_QUANTUM_MS
    (NaN stays NaN and prints as "nan")."""
    lines = [CSV_HEADER]
    for row in rows:
        ms = np.array([row.assemble_ms, row.solve_ms, row.particular_ms])
        values = [row.max_err, row.rms_err, row.boundary_residual, row.condition_estimate,
                  *np.round(ms / TIMING_QUANTUM_MS) * TIMING_QUANTUM_MS]
        lines.append(",".join([str(row.knots)] + [np.format_float_scientific(v, trim="-")
                                                  for v in values]))
    return "\n".join(lines) + "\n"
