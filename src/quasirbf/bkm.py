"""Boundary-knot collocation for the homogeneous part of the split.

Kernel mode (Helmholtz / modified Helmholtz / convection-diffusion):
centers coincide with the boundary collocation knots, the kernel is
finite at r = 0, and the system is square by default. Poisson instead
uses the circular-harmonic (Trefftz) basis

    { 1, (rho/R)^m cos(m theta), (rho/R)^m sin(m theta) },  m = 1..order,

about a given center with scale R, every member of which is harmonic. assemble alone makes
that choice. Every collocation matrix, kernel or harmonic, Dirichlet or Neumann, is the
expansion below of the identity's coefficients at the knots (column j: the basis member of
unit coefficient e_j), of rank at most 2M + 1, or 2(2M + 3) for Neumann, up to rounding; so
the basis and its gradient ladder are written once, for assembly and evaluation alike.

Evaluation sums no kernels: u_h = e^{-a.(x - o)} Re sum_{m <= M} b_m Z_m(mu r) e^{i m theta}
about the centres' centroid o, b from Graf's addition theorem (the harmonics: mu = 2 / R,
Z_m = (r/R)^m). u_h and, by the Bessel ladder, grad u_h are real-linear in the Z_m e^{i m
theta} viewed as floats: each map is built once per solution, on first use (_Expansion), so a
block of points costs one bessel_orders call and one real GEMM. M is the first order whose
term bound (mu^2 rho_max r / 4)^M / M!^2 is at most 1e-17, with r = 2 rho_max or a block's
farthest point (|J_M(mu r)| <= 1 caps the r part for J; I gains e^{(mu/2)^2 (rho_max^2 + r^2)
/ (M+1)}). Conv-diff's drift split, a = v / 2D outside the sum and w_j = e^{a.(s_j - o)} in b,
costs relative rounding up to e^{|a| (rho_max + r)}.

Dense solves are LU with partial pivoting, or truncated SVD for
ill-conditioned systems; condition estimates are always reported so the
ill-conditioning of the full collocation matrix is observable, and a
solve that inverts a singular value at or below s_max eps N emits a
RankDeficientWarning (LU below full rank, TSVD with too small a cutoff).
assemble caches each geometry's matrix (read-only) and its singular values,
keyed on exactly what the matrix depends on: a repeated solve with new data
skips the expansion and the O(N^3) decomposition.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .errors import (ConfigurationError, KernelOverflowError, RankDeficientWarning,
                     SingularMatrixError, UnsupportedOperatorError)
from .geometry import BoundaryKnots, point_blocks
# kernel_value / kernel_gradient go unused here: perfbench/tracing.py patches them on bkm
from .operators import OperatorSpec, Poisson, kernel_gradient, kernel_value
from .particular import _read_only
from .specfun import bessel_i0, bessel_orders

DEFAULT_TSVD_CUTOFF = 1e-12


@dataclass(frozen=True)
class KernelMode:
    op: OperatorSpec


@dataclass(frozen=True)
class TrefftzMode:
    order: int
    center: np.ndarray
    scale: float


Mode = Union[KernelMode, TrefftzMode]


@dataclass(frozen=True)
class LU:
    pass


@dataclass(frozen=True)
class TSVD:
    cutoff: float = DEFAULT_TSVD_CUTOFF

    def __post_init__(self):
        if not 0.0 <= self.cutoff < 1.0:  # NaN fails too
            raise ConfigurationError(f"svd_cutoff must lie in [0, 1), got {self.cutoff}")


Strategy = Union[LU, TSVD]


@dataclass(eq=False)
class _Factor:
    """A matrix (N, M) and, on first use, its thin SVD for TSVD or values-only singular values
    for LU (last bits differ). About 24 N M bytes, 1.5 MiB at 256."""
    matrix: np.ndarray

    @cached_property
    def svd(self):
        return _read_only(*np.linalg.svd(self.matrix, full_matrices=False))

    @cached_property
    def singular_values(self) -> np.ndarray:
        return _read_only(np.linalg.svd(self.matrix, compute_uv=False))[0]


@dataclass(frozen=True)
class _Keyed:
    """An lru_cache argument that hashes and compares as `key` alone. A miss keeps what
    `build()` returns; a build that raises keeps nothing, so it takes no slot."""
    key: tuple
    build: Callable[[], object] = field(compare=False)


# a sweep of 4 N's needs 4
_cached_factor = lru_cache(maxsize=8)(lambda keyed: _Factor(keyed.build()))


@dataclass(frozen=True)
class CollocationSystem:
    matrix: np.ndarray
    rhs: np.ndarray
    centers: np.ndarray  # (N, 2) centre positions
    mode: Mode
    # assemble's cache entry; solve_dense reuses it only while factor.matrix is matrix
    factor: Optional[_Factor] = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class SolveDiagnostics:
    condition_estimate: float
    effective_rank: int
    residual_norm: float
    strategy_used: str


@dataclass(frozen=True)
class _Expansion:  # u_h = 2^shift e^{-drift.(x - center)} Re sum b_m Z_m(mu r) e^{i m theta}
    """Real maps, each built on first use, from phi_j = Z_j e^{i j theta} as floats to u (values,
    j <= M) and to (d_x u, d_y u) (gradients, j <= M + 1) per solution: rows [Re w_j, -Im w_j] for
    the terms Re phi_j w_j, w = b, or mu (dn + up) / 2 and i mu (dn - up) / 2 less drift u by the
    ladder (d_x -/+ i d_y) phi_m = mu phi_{m-1}, sign mu phi_{m+1}: dn_j = b_{j+1} (j + 1 times for
    the harmonics), up_j = sign b_{j-1} (+ sign conj(b_0) at j = 1: phi_{-1} = sign conj(phi_1))."""
    center: np.ndarray
    mu: float
    sign: int  # picks Z: -1 J, +1 I, 0 the harmonics (specfun.bessel_orders)
    drift: Optional[np.ndarray]  # v / 2D, None for v = 0
    radius: float  # the centres' largest distance from center
    b: np.ndarray  # (M + 1,) + K, M = orders
    shift: int = 0  # b holds b / 2^shift (exact), below 2^64, so I's phi @ b overflows late
    orders = property(lambda self: len(self.b) - 1)
    values = cached_property(lambda s: np.stack([s.b.real, -s.b.imag], 1).reshape(2 * len(s.b), -1))

    @cached_property
    def gradients(self) -> np.ndarray:  # (2 (M + 2), 2 K)
        b, sign = self.b.reshape(len(self.b), -1), self.sign
        dn, up = np.zeros((2, len(b) + 1, b.shape[1]), complex)
        up[1:], dn[:-2] = sign * b, b[1:] * (1 if sign else np.arange(1.0, len(b))[:, None])
        up[1] += sign * b[0].conj()
        g = np.stack([0.5 * self.mu * (dn + up), 0.5j * self.mu * (dn - up)], axis=-1)
        if self.drift is not None:
            g[:-1] -= b[..., None] * self.drift
        return np.stack([g.real, -g.imag], 1).reshape(2 * len(g), -1)


@dataclass(frozen=True)
class HomogeneousSolution:
    mode: Mode
    coefficients: np.ndarray  # (width,) or (width, K), K solutions
    centers: np.ndarray  # (N, 2) centre positions
    expansion = cached_property(lambda self: _expand(self))  # built once: keep the arrays fixed


def _expand(sol: HomogeneousSolution, reach: float = 0.0) -> _Expansion:
    """sol's expansion with the orders that r <= max(reach, 2 radius) needs."""
    c, mode = sol.coefficients, sol.mode
    if isinstance(mode, TrefftzMode):  # b_0 = c_0, b_m = c_{2m-1} - i c_{2m}
        return _Expansion(np.asarray(mode.center, float), 2.0 / mode.scale, 0, None, 0.0,
                          np.concatenate([c[:1], c[1::2] - 1j * c[2::2]]))
    k = mode.op.coefficients
    if k.mu2 == 0.0:
        raise UnsupportedOperatorError(f"{mode.op!r} has mu = 0 and no radial kernel")
    d = sol.centers - (center := sol.centers.mean(axis=0))
    rho, sign, drift = float(np.hypot(*d.T).max()), int(np.sign(k.mu2)), k.v / (2.0 * k.D)
    hp, hr = 0.5 * k.mu * rho, 0.5 * k.mu * max(reach, 2.0 * rho)  # (mu/2) (rho, r)
    orders, near, far, growth = 0, 1.0, 1.0, hp * hp + hr * hr if sign > 0 else 0.0
    while near * min(far, 1e300 if sign > 0 else 1.0) > 1e-17 * math.exp(-growth / (orders + 1)):
        orders += 1
        near, far = near * hp / orders, far * hr / orders
    eps = np.append(1.0, 2.0 * (-sign) ** np.arange(1, orders + 1))  # eps_m sigma_m
    z = bessel_orders(k.mu * d.view(complex)[:, 0], orders, sign).view(np.float64)
    b = (((c.T * np.exp(d @ drift)) @ z).view(complex) * eps).T.conj()  # one real GEMM
    shift = max(0, math.frexp(float(np.abs(b).max()))[1] - 64)  # I at large mu rho only
    return _Expansion(center, k.mu, sign, drift if k.drift else None, rho, b * 2.0 ** -shift, shift)


def assemble(op: OperatorSpec, knots: BoundaryKnots, bc_kind: str, data,
             trefftz: TrefftzMode = None) -> CollocationSystem:
    """Build the dense collocation system for the homogeneous solve.

    bc_kind ("dirichlet" or "neumann") applies to every row: row i
    collocates u_h or n_i . grad u_h at knot i against data[i]. Poisson
    takes the basis `trefftz`, every other operator its kernel about each
    knot; the system is N x (2 order + 1) or N x N, one expansion of the
    identity evaluated at the knots. I0 of mu times the knots' largest
    distance raises KernelOverflowError past double precision."""
    n = len(knots)
    if bc_kind not in ("dirichlet", "neumann"):
        raise ConfigurationError(f"bc_kind must be 'dirichlet' or 'neumann', got {bc_kind!r}")
    rhs = np.asarray(data, dtype=float)
    if n < 1 or rhs.shape != (n,):
        raise ConfigurationError(
            f"need matching knots and boundary data, got {n} and shape {rhs.shape}")
    mode: Mode = KernelMode(op=op)
    width, neumann, basis = n, bc_kind == "neumann", None
    if isinstance(op, Poisson):
        if trefftz is None:
            raise ConfigurationError("Poisson requires a Trefftz basis")
        if not (0 <= trefftz.order <= (n - 1) / 2 and trefftz.scale > 0):
            raise ConfigurationError(
                f"Trefftz basis needs 0 <= order <= (N-1)/2 = {(n - 1) // 2} and scale > 0, "
                f"got order {trefftz.order} and scale {trefftz.scale}")
        mode, width = trefftz, 2 * trefftz.order + 1
        basis = (trefftz.order, np.asarray(trefftz.center, float).tobytes(), float(trefftz.scale))
    pos, normals = knots.points, knots.normals

    def build():
        if (k := op.coefficients).mu2 > 0.0:  # I0 of the largest kernel argument
            x, y = pos.T
            bessel_i0(k.mu * float(np.hypot(x[:, None] - x, y[:, None] - y).max()))
        t = _evaluate(HomogeneousSolution(mode, np.eye(width), pos), pos, neumann)
        return _read_only(np.einsum("pjk,pk->pj", t, normals) if neumann else t)[0]

    key = (tuple(np.hstack(op.coefficients[:3])), neumann, basis,  # (D, v, c)
           *(np.asarray(a, float).tobytes() for a in (pos, normals)))
    factor = _cached_factor(_Keyed(key, build))
    return CollocationSystem(factor.matrix, rhs, pos, mode, factor)


def solve_dense(system: CollocationSystem,
                strategy: Strategy = LU()) -> Tuple[np.ndarray, SolveDiagnostics]:
    a, b = system.matrix, system.rhs
    n, m = a.shape
    factor = system.factor if getattr(system.factor, "matrix", None) is a else _Factor(a)

    if isinstance(strategy, LU):
        if n != m:
            raise ConfigurationError("LU requires a square system; use TSVD")
        try:
            coeffs = np.linalg.solve(a, b)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(
                "collocation matrix is exactly singular; retry with the TSVD "
                "strategy") from exc
        if not np.all(np.isfinite(coeffs)):
            raise SingularMatrixError(
                "LU solve produced non-finite coefficients; retry with TSVD")
        strategy_name, advice = "lu", "use the TSVD strategy"
        svals = factor.singular_values  # for the condition and rank only
        inverted = svals  # LU inverts every singular value, implicitly
        eff_rank = int(np.sum(svals > svals[0] * np.finfo(float).eps * n))
    else:
        u, svals, vt = factor.svd
        keep = svals > strategy.cutoff * svals[0]
        inverted = svals[keep]
        eff_rank = len(inverted)
        inv = np.zeros_like(svals)
        inv[keep] = 1.0 / inverted
        coeffs = vt.T @ (inv * (u.T @ b))
        strategy_name = f"tsvd(cutoff={strategy.cutoff:g})"
        advice = "use a larger svd_cutoff"

    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else math.inf
    if np.any(inverted <= svals[0] * np.finfo(float).eps * n):
        warnings.warn(
            f"{strategy_name} solve at N={n} inverts singular values at or below the rounding "
            f"floor s_max*eps*N (effective rank {eff_rank}, condition estimate "
            f"{cond:.3g}); its coefficients are dominated by rounding noise, {advice}",
            RankDeficientWarning, stacklevel=2)
    residual = float(np.linalg.norm(a @ coeffs - b))
    diag = SolveDiagnostics(condition_estimate=cond, effective_rank=eff_rank,
                            residual_norm=residual, strategy_used=strategy_name)
    return coeffs, diag


def _evaluate(sol: HomogeneousSolution, x, gradient: bool) -> np.ndarray:
    """u_h (shape (...) + K) or grad u_h (shape (...) + K + (2,)) at points x (2,) or (..., 2),
    for coefficients of shape (width,) + K: per block, one real GEMM of the basis values
    viewed as floats with the expansion's map, then the drift factor."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflow raises below
        e = sol.expansion
        pts, blocks, shape = point_blocks(x, e.orders + 2)
        out = np.empty((len(pts), e.b[0].size * (1 + gradient)))
        for blk in blocks:
            d = pts[blk] - e.center
            z = e.mu * d.view(complex)[:, 0]
            reach = float(np.maximum.reduce(np.abs(z))) / e.mu
            f = _expand(sol, reach) if e.sign and reach > 2.0 * e.radius else e
            phi = bessel_orders(z, f.orders + gradient, f.sign).view(np.float64)
            u = np.matmul(phi, f.gradients if gradient else f.values, out=out[blk])
            if f.drift is not None:
                u *= np.exp(-(d @ f.drift))[:, None]
            if f.shift:
                np.ldexp(u, f.shift, out=u)
    if not np.isfinite(out).all():
        raise KernelOverflowError(f"u_h's expansion about {e.center} overflows double precision")
    return out.reshape(shape + sol.coefficients.shape[1:] + ((2,) if gradient else ()))


def eval_homogeneous(sol: HomogeneousSolution, x):
    """u_h at points x, (2,) or (..., 2); the result has shape (...)."""
    return _evaluate(sol, x, gradient=False)[()]


def eval_homogeneous_gradient(sol: HomogeneousSolution, x) -> np.ndarray:
    """grad u_h at points x, (2,) or (..., 2); the result has x's shape."""
    return _evaluate(sol, x, gradient=True)
