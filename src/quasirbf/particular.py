"""Particular solution on a periodic embedding box via FFT.

The source f is multiplied by a C-infinity taper so that its periodic
extension over the square box is smooth and compactly supported; the
equation L u = f_tapered is then solved mode-by-mode by dividing the FFT
coefficients by the operator's Fourier symbol. The resulting field
satisfies the governing equation exactly on the physical domain (where
the taper is 1), which is all a particular solution has to do.

The samples are real and sigma(-w) = conj sigma(w), so only the rfft2 half
spectrum is divided and kept. u_p is evaluated in real arithmetic from one real
matrix M folded from it: per block of points, two narrow GEMMs of the cos/sin
phases with a seeded low-rank factor of M, or one with M itself (see SpectralField).

With L u = D laplace(u) + v . grad(u) + c u (see the operators module), the
zero mode has symbol c. For c = 0 it is repaired by the compensator
u_c = quad |x - x0|^2 + lin.(x - x0) about the box centre x0:

    c = 0, v = 0:    quad = mean / 4D         (Poisson)
    c = 0, v != 0:   lin = mean * v / |v|^2   (conv-diff, kappa = 0)

For c > 0 (Helmholtz) the symbol vanishes on a circle of modes; near-resonant
modes with non-negligible source energy abort the solve with ResonantBoxError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import ConfigurationError, DomainError, ResonantBoxError
from .geometry import Box2, StarDomain, bounding_box, point_blocks, stack_xy
from .operators import OperatorSpec, fourier_symbol

RESONANCE_SYMBOL_TOL = 1e-8
RESONANCE_SOURCE_TOL = 1e-10

_GRID_SIZES = (32, 64, 128, 256, 512, 1024)


@dataclass(frozen=True)
class TaperSpec:
    """Normalized half-width of the smooth rise region per box axis."""
    inner_fraction: float = 0.15

    def __post_init__(self):
        if not (0.0 < self.inner_fraction < 0.5):
            raise ConfigurationError(
                f"taper inner_fraction must lie in (0, 0.5), got {self.inner_fraction}")


@dataclass(frozen=True)
class Compensator:
    """u_c = quad |x - center|^2 + lin.(x - center), which the operator maps to
    the source mean that the dropped zero mode carried."""
    center: np.ndarray
    quad: float = 0.0
    lin: Tuple[float, float] = (0.0, 0.0)

    def value(self, x1, x2):
        d1, d2 = x1 - self.center[0], x2 - self.center[1]
        return self.quad * (d1 ** 2 + d2 ** 2) + (self.lin[0] * d1 + self.lin[1] * d2)

    def gradient(self, x1, x2) -> np.ndarray:
        d = np.stack([x1 - self.center[0], x2 - self.center[1]], axis=-1)
        return d * (2.0 * self.quad) + self.lin


def check_grid_size(n: int):
    """Reject a grid size other than a power of two in [32, 1024]."""
    if n not in _GRID_SIZES:
        raise ConfigurationError(f"grid size must be a power of two in [32, 1024], got {n}")


@dataclass(frozen=True)
class SourceGrid:
    box: Box2
    n: int
    samples: np.ndarray

    def __post_init__(self):
        check_grid_size(self.n)
        if self.samples.shape != (self.n, self.n):
            raise ConfigurationError(
                f"samples must be {self.n}x{self.n}, got {self.samples.shape}")
        if not np.all(np.isfinite(self.samples)):
            raise ConfigurationError("source samples must be finite")
        side = self.box.side
        if abs(side[0] - side[1]) > 1e-12 * side[0]:
            raise ConfigurationError("embedding box must be square")


class SpectralField:
    """Truncated Fourier series u_p(x) = Re sum_m c_m exp(i w_m.(x - min_corner))
    plus an optional zero-mode compensator.

    The coefficients c are the half spectrum `half` (columns 0..n/2, the last
    at -n/2) of a Hermitian (n, n) array `coeffs`, completed on first read (for
    conv-diff, whose symbol is not even, it differs from a full fft2 division
    on the Nyquist ring). With phases a_k, b_k of mode k = 0..n/2 on the two
    axes, u_p = [cos a, sin a] M [cos b, sin b] (`real_matrix`) = row dot of
    [cos a, sin a] U and [cos b, sin b] V (`_factor`).
    """

    def __init__(self, box: Box2, n: int, half: np.ndarray,
                 compensator: Optional[Compensator] = None):
        self.box, self.n, self.half, self.compensator = box, n, half, compensator

    @cached_property
    def coeffs(self) -> np.ndarray:
        """The full (n, n) coefficients: the Hermitian completion of `half`."""
        tail = np.conj(self.half[-np.arange(self.n) % self.n, self.n // 2 - 1:0:-1])
        return np.concatenate([self.half, tail], axis=1)

    @cached_property
    def omega(self) -> np.ndarray:
        """Frequencies 2 pi k / side of the modes k = 0..n/2 of one axis."""
        return np.abs(_frequencies(self.n, self.box)[:self.n // 2 + 1])

    @cached_property
    def real_matrix(self) -> np.ndarray:
        """M (n+2, n+2) with Re sum_ij c_ij E_i F_j = [cos a, sin a] M [cos b, sin b].

        Grid mode i of an axis has integer frequency m_i with |m_i| = k <= h =
        n/2 (the Nyquist mode i = h has m_h = -h), so E_i = cos a_k + i
        sign(m_i) sin a_k. With the row fold (F_s c)_k = c_k + s c_{n-k} for
        0 < k < h, c_0 at k = 0 and s c_h at k = h,
            sum_i c_ij E_i = sum_k cos a_k (F_+ c)_kj + sin a_k i (F_- c)_kj.
        Along the second axis F_{n-l} = conj(F_l) and F_h = conj(exp(i b_h)),
        and Re z = Re conj z, so for any complex row v
            Re sum_j v_j F_j = Re sum_{l<=h} (G_+ v)_l exp(i b_l),
        with the column fold (G_s v)_l = v_l + s conj(v_{n-l}) for 0 < l < h,
        v_0 at l = 0 and s conj(v_h) at l = h; G_+(i v) = i G_-(v). Finally
        Re(w exp(i b)) = [Re w, -Im w].[cos b, sin b]. So rows (k, cos), (k,
        sin) of M are conj G_+(F_+ c)_k, conj(i G_-(F_- c)_k); rows and columns
        interleave the cos and sin of each mode. Column n - l of `coeffs` holds
        conj(c_{n-k,l}) in row k, so G_s doubles columns 0 < l < h, or cancels
        them on the sin rows of k = 0, h, which are their own partners. Row and
        column (0, sin) are 0.
        """
        c, n, h = self.half, self.n, self.n // 2
        m = np.empty((h + 1, 2, h + 1), dtype=complex)
        rows = np.empty((h + 1, h + 1), dtype=complex)
        for a, (op, s) in enumerate(((np.add, 1.0), (np.subtract, -1.0))):
            rows[0] = c[0]  # rows = F_s c
            op(c[1:h], c[:h:-1], out=rows[1:h])
            np.multiply(c[h], s, out=rows[h])
            m[:, a, 0] = rows[:, 0]
            np.multiply(rows[:, 1:h], 2.0, out=m[:, a, 1:h])
            if s < 0:
                m[[0, h], a, 1:h] = 0.0
            np.multiply(np.conj(rows[:, h]), s, out=m[:, a, h])
        np.conjugate(m, out=m)
        m[:, 1] *= -1j
        mat = m.view(np.float64).reshape(n + 2, n + 2)
        mat[1] = mat[:, 1] = 0.0
        return mat

    @cached_property
    def _factor(self):
        """(U, V), (n+2, 32), with U = D^-1 Q, V = (D M)^T Q and Q R = D M Omega
        for a seeded Gaussian Omega (Halko et al. 2011, Alg. 4.1), when that is
        M to rounding: |R_32,32| <= 1e-15 |D M omega_32|, so the probe column
        omega_32 adds nothing to the others. Else, or for n < 62, None: one
        product with M costs less. D = diag(1 + k) on the rows of mode k
        scales Q's rounding in U by 1 / (1 + k), as d/dx weights them by w_k."""
        mat, d = self.real_matrix, 1.0 + np.arange(self.n + 2)[:, None] // 2
        y = d * (mat @ np.random.default_rng(20110).standard_normal((self.n + 2, 32)))
        q, r = np.linalg.qr(y)
        if self.n >= 62 and abs(r[-1, -1]) <= 1e-15 * np.linalg.norm(y[:, -1]):
            return q / d, mat.T @ (d * q)
        return None

    @cached_property
    def _split_tables(self):
        """Fine frequencies w_q, q < L, and coarse turns L p / side for the
        modes L p <= n/2 (in extended precision), L = isqrt(n/2 + 1)."""
        step = math.isqrt(self.n // 2 + 1)
        return (self.omega[:step],
                np.arange(0, self.n // 2 + 1, step, dtype=np.longdouble) / self.box.side[0])

    def _phases(self, x: np.ndarray) -> np.ndarray:
        """Phase factors exp(i w_k (x - min_corner)) of the modes k = 0..n/2
        at points x (P, 2) in the box (else DomainError), (2, P, n/2+1).

        Mode k = L p + q, L = isqrt(n/2 + 1), is the product of a coarse
        factor (w_{Lp}) and a fine one (w_q), so each axis exponentiates
        about 2 sqrt(n/2) phases instead of n/2 + 1. Coarse phases reach
        pi n; their turns L p (x - min_corner) / side are reduced mod 1 in
        extended precision (np.longdouble) before the exponential: in double
        precision the rounding of such arguments alone costs up to ~1e-12 at
        n = 1024, as it does for a direct exp(i w_k (x - min_corner))."""
        inside = self.box.contains(x)
        if not inside.all():
            x1, x2 = x[np.argmin(inside)]
            raise DomainError(f"point ({x1}, {x2}) lies outside the embedding box")
        fine_w, coarse_turns = self._split_tables
        d = (x - self.box.min_corner).T[:, :, None]
        turns = d.astype(np.longdouble) * coarse_turns
        turns -= np.round(turns)
        coarse = np.exp(2j * np.pi * turns.astype(float))
        fine = np.exp(1j * fine_w * d)
        z = coarse[..., None] * fine[:, :, None, :]
        return z.reshape(2, len(x), -1)[..., :self.n // 2 + 1]

    def _series(self, ex: np.ndarray, ey: np.ndarray) -> np.ndarray:
        """Re sum_kl (ex M)_k ey_l per point for phase factors ex, ey (P, n/2+1)
        of the two axes, or their derivatives, viewed as floats: the row dot
        of ex M and ey, or of ex U and ey V."""
        a, b = ex.view(np.float64), ey.view(np.float64)
        u, v = self._factor or (self.real_matrix, None)
        return np.einsum("pk,pk->p", a @ u, b if v is None else b @ v)


def _frequencies(n: int, box: Box2) -> np.ndarray:
    """Mode frequencies w_m = 2 pi m / side of the n-point grid on the square
    box, m the integer mode numbers in fftfreq order, (n,)."""
    return 2.0 * np.pi * (np.fft.fftfreq(n) * n) / float(box.side[0])


def _bump(s):
    """exp(-1/s) for s > 0, else 0; vectorized."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    pos = s > 0
    out[pos] = np.exp(-1.0 / s[pos])
    return out


def _eta(s):
    """Smooth step: 0 for s <= 0, 1 for s >= 1, eta(s) + eta(1-s) = 1."""
    a = _bump(s)
    b = _bump(1.0 - np.asarray(s, dtype=float))
    return a / (a + b)


def _axis_weight(xi, t: float):
    """Taper weight along one axis at xi = (x - min) / side in [0, 1]:
    0 on both box edges, 1 on the plateau [t, 1 - t]."""
    xi = np.asarray(xi, dtype=float)
    rise = _eta(xi / t)
    fall = _eta((1.0 - xi) / t)
    return np.minimum(rise, fall)


def required_margin(taper: TaperSpec) -> float:
    """Smallest box_margin for which the taper plateau contains the domain."""
    t = taper.inner_fraction
    return t / (1.0 - 2.0 * t)


def extend_source(f: Callable, domain: StarDomain,
                  box: Box2, n: int, taper: TaperSpec) -> SourceGrid:
    """Sample the tapered extension of f on the n x n periodic grid.

    f follows the callback contract of the presets module. It is called once,
    on the open grid of the block of points where both axis weights of the
    separable taper are nonzero (every point off the box's lower edges): x1
    holds the block's row coordinates, shape (r, 1), and x2 its column
    coordinates, shape (1, c). A result that does not broadcast to (r, c)
    raises ConfigurationError. Inside the physical domain the taper weight
    is 1, so samples there equal f exactly; the check below enforces that
    the domain's tight bounding box lies within the taper plateau.
    """
    t = taper.inner_fraction
    tight = bounding_box(domain, 0.0)
    plateau_lo = box.min_corner + t * box.side
    plateau_hi = box.max_corner - t * box.side
    if np.any(tight.min_corner < plateau_lo) or np.any(tight.max_corner > plateau_hi):
        raise ConfigurationError(
            "taper plateau does not contain the physical domain; "
            f"with inner_fraction={t} the box needs box_margin >= "
            f"{required_margin(taper):.4g}")
    # the weight is the outer product of per-axis weights, each nonzero on one interval
    axes = box.min_corner[:, None] + float(box.side[0]) * np.arange(n) / n  # (2, n)
    axis_w = _axis_weight((axes - box.min_corner[:, None]) / box.side[:, None], t)
    (r0, r1), (c0, c1) = (np.flatnonzero(w)[[0, -1]] + (0, 1) for w in axis_w)
    x1, x2 = axes[0, r0:r1, None], axes[1, None, c0:c1]  # (r, 1), (1, c)
    samples = np.zeros((n, n))
    block = np.multiply.outer(axis_w[0, r0:r1], axis_w[1, c0:c1], out=samples[r0:r1, c0:c1])
    values = f(x1, x2)
    try:
        block *= np.broadcast_to(values, block.shape)
    except ValueError:
        raise ConfigurationError(
            f"source returned shape {np.shape(values)}, which does not broadcast "
            f"to the sampled block's shape {block.shape}") from None
    return SourceGrid(box=box, n=n, samples=samples)


def solve_particular(op: OperatorSpec, grid: SourceGrid) -> SpectralField:
    """Divide the rfft2 half spectrum by the Fourier symbol; O(n^2 log n)."""
    n, h = grid.n, grid.n // 2
    fhat = np.fft.rfft2(grid.samples)
    m = np.fft.fftfreq(n) * n
    w = _frequencies(n, grid.box)
    # no operator has a mixed w1*w2 term, so the symbol on the grid is the
    # outer sum sigma(w1, 0) + sigma(0, w2) - sigma(0, 0)
    sigma = np.add.outer(fourier_symbol(op, stack_xy(w, 0.0)),
                         fourier_symbol(op, stack_xy(0.0, w[:h + 1]))
                         - fourier_symbol(op, (0.0, 0.0)))

    D, v, c = op.coefficients[:3]
    compensator = None
    if c == 0.0:
        mean = float(grid.samples.mean())
        compensator = (Compensator(grid.box.center, lin=tuple(mean * v / float(v @ v)))
                       if v.any() else Compensator(grid.box.center, quad=mean / (4.0 * D)))
        fhat[0, 0] = 0.0
        sigma[0, 0] = 1.0  # placeholder; coefficient is zero anyway

    if c > 0.0:
        # |fhat| and the symbol are even: the half grid sees every mode
        near = np.abs(sigma) <= RESONANCE_SYMBOL_TOL * max(1.0, c)
        if np.any(near):
            fmax = float(np.abs(fhat).max())
            bad = near & (np.abs(fhat) > RESONANCE_SOURCE_TOL * fmax)
            if np.any(bad):
                idx = np.argwhere(bad)[0]
                raise ResonantBoxError(
                    f"Fourier mode {tuple(int(m[i]) for i in idx)} of the embedding box "
                    f"is resonant for {op} and carries source energy; "
                    "change box_margin or the grid size to detune the box")
            fhat[near] = 0.0
            sigma[near] = 1.0  # clamped: the mode carries no source energy

    sigma *= n * n  # the series coefficients are fft2 / (sigma n^2)
    half = np.divide(fhat, sigma, out=fhat)
    return SpectralField(box=grid.box, n=n, half=half, compensator=compensator)


def _evaluate(sf: SpectralField, x, gradient: bool) -> np.ndarray:
    """u_p (shape (...)) or grad u_p (shape (..., 2)) at points x (2,) or (..., 2):
    per block of points, real GEMMs of the phase factors with the folded matrix
    or its factor (see SpectralField). The derivative phases i w exp(i w x) go
    through the same matrices."""
    pts, blocks, shape = point_blocks(x, sf.n // 2 + 1)
    out = np.empty((len(pts), 2) if gradient else len(pts))
    iw = 1j * sf.omega
    for blk in blocks:
        ex, ey = sf._phases(pts[blk])
        if gradient:
            out[blk, 0], out[blk, 1] = sf._series(iw * ex, ey), sf._series(ex, iw * ey)
        else:
            out[blk] = sf._series(ex, ey)
        del ex, ey  # frees this block's phases before the next block's are built
    if sf.compensator is not None:
        c = sf.compensator
        out += (c.gradient if gradient else c.value)(pts[:, 0], pts[:, 1])
    return out.reshape(shape + out.shape[1:])


def eval_particular(sf: SpectralField, x):
    """u_p at points x, (2,) or (..., 2); the result has shape (...)."""
    return _evaluate(sf, x, gradient=False)[()]


def eval_particular_gradient(sf: SpectralField, x) -> np.ndarray:
    """grad u_p at points x, (2,) or (..., 2); the result has x's shape."""
    return _evaluate(sf, x, gradient=True)
