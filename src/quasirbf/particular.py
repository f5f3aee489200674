"""Particular solution on a periodic embedding box via FFT.

The source f is multiplied by a C-infinity taper so that its periodic
extension over the square box is smooth and compactly supported; the
equation L u = f_tapered is then solved mode-by-mode by dividing the FFT
coefficients by the operator's Fourier symbol. The resulting field
satisfies the governing equation exactly on the physical domain (where
the taper is 1), which is all a particular solution has to do.

Zero-symbol modes are repaired by closed-form compensators:

    Poisson:                u_c = mean * |x - c|^2 / 4
    conv-diff, kappa = 0:   u_c = mean * v.(x - c) / |v|^2

Near-resonant Helmholtz modes with non-negligible source energy abort
the solve with ResonantBoxError.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np

from .errors import ConfigurationError, DomainError, ResonantBoxError
from .geometry import Box2, StarDomain, bounding_box, point_blocks, stack_xy
from .operators import (ConvectionDiffusion, Helmholtz, OperatorSpec, Poisson,
                        fourier_symbol)

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
class PoissonQuad:
    """Compensator u_c = mean * |x - center|^2 / 4 with laplace(u_c) = mean."""
    mean: float
    center: np.ndarray

    def value(self, x1, x2):
        return self.mean * ((x1 - self.center[0]) ** 2 + (x2 - self.center[1]) ** 2) / 4.0

    def gradient(self, x1, x2) -> np.ndarray:
        return self.mean * np.stack([x1 - self.center[0], x2 - self.center[1]], axis=-1) / 2.0


@dataclass(frozen=True)
class ConvectionLinear:
    """Compensator u_c = mean * v.(x - center) / |v|^2 with v.grad(u_c) = mean."""
    mean: float
    velocity: np.ndarray
    center: np.ndarray

    def value(self, x1, x2):
        v = self.velocity
        return self.mean * (v[0] * (x1 - self.center[0]) + v[1] * (x2 - self.center[1])) \
            / float(v @ v)

    def gradient(self, x1, x2) -> np.ndarray:
        v = self.velocity
        return np.broadcast_to(self.mean * v / float(v @ v), np.shape(x1) + (2,))


Compensator = Union[None, PoissonQuad, ConvectionLinear]


@dataclass(frozen=True)
class SourceGrid:
    box: Box2
    n: int
    samples: np.ndarray

    def __post_init__(self):
        if self.n not in _GRID_SIZES:
            raise ConfigurationError(
                f"grid size must be a power of two in [32, 1024], got {self.n}")
        if self.samples.shape != (self.n, self.n):
            raise ConfigurationError(
                f"samples must be {self.n}x{self.n}, got {self.samples.shape}")
        if not np.all(np.isfinite(self.samples)):
            raise ConfigurationError("source samples must be finite")
        side = self.box.side
        if abs(side[0] - side[1]) > 1e-12 * side[0]:
            raise ConfigurationError("embedding box must be square")


@dataclass(frozen=True)
class SpectralField:
    """Truncated Fourier series u_p(x) = Re sum_m c_m exp(i w_m.(x - min_corner))
    plus an optional zero-mode compensator.

    u_p is the real part of the series, so it is evaluated from the series
    folded onto the half spectrum of the second axis: for 0 < j < n/2 the
    column n-j carries the conjugate phase of column j, and Re(z) = Re(conj z)
    moves its coefficients onto column j (see `folded`).
    """
    box: Box2
    n: int
    coeffs: np.ndarray
    compensator: Compensator = None

    @cached_property
    def frequencies(self) -> np.ndarray:
        return _frequencies(self.n, self.box)

    @cached_property
    def folded(self):
        """Half-spectrum coefficients D (n, n/2+1) and Nyquist tail t (n/2-1,).

        With E_i, F_j the phase factors of the two axes, F_{n-j} = conj(F_j)
        and, for every row i but the Nyquist row h = n/2, conj(E_i) = E_{-i}.
        Hence, for any coefficient array c,
            Re sum_ij c_ij E_i F_j = Re sum_{j<=h} (E D)_j F_j
                                     + Re E_h sum_{0<k<h} conj(t_k F_k),
        where D[:, j] = c[:, j] + conj(c[-i mod n, n-j]) for 0 < j < h and
        i != h, D = c elsewhere, and t_k = conj(c[h, n-k]): the Nyquist row's
        phase conj(E_h) is no grid mode, so its columns above h stay a tail.
        The same D serves the gradient, whose phases i w E and i w F pair up
        the same way.
        """
        c = self.coeffs
        h = self.n // 2
        d = c[:, :h + 1].copy()
        mirror = np.roll(c[::-1, :h:-1], 1, axis=0)  # mirror[i, j-1] = c[-i mod n, n-j]
        d[:, 1:h] += np.conj(mirror)
        d[h, 1:h] = c[h, 1:h]
        return d, np.conj(c[h, :h:-1])

    def _phases(self, x: np.ndarray):
        """Phase factors exp(i w (x_k - min_k)) at points x (P, 2) in the box
        (else DomainError): all n modes on axis 1, (P, n), and the n/2+1
        modes of the folded half spectrum on axis 2, (P, n/2+1). Only the
        half spectrum is exponentiated: mode n-k of axis 1 is conj(mode k)."""
        inside = self.box.contains(x)
        if not inside.all():
            x1, x2 = x[np.argmin(inside)]
            raise DomainError(f"point ({x1}, {x2}) lies outside the embedding box")
        h = self.n // 2
        half = np.exp(1j * self.frequencies[:h + 1] * (x - self.box.min_corner)[:, :, None])
        ex = np.concatenate([half[:, 0], np.conj(half[:, 0, h - 1:0:-1])], axis=1)
        return ex, half[:, 1]

    def _series(self, ex: np.ndarray, ey: np.ndarray) -> np.ndarray:
        """Re sum_ij c_ij ex_i ey_j per point, for phases ex (P, n) and the half
        spectrum ey (P, n/2+1) of the axes (or of their derivatives)."""
        d, tail = self.folded
        h = self.n // 2
        nyquist = ex[:, h] * np.conj(ey[:, 1:h] @ tail)
        return np.real(np.sum((ex @ d) * ey, axis=1) + nyquist)


def _frequencies(n: int, box: Box2) -> np.ndarray:
    """Mode frequencies w_m = 2 pi m / side of the n-point grid on the square
    box, m the integer mode numbers in fftfreq order, (n,)."""
    return 2.0 * np.pi * (np.fft.fftfreq(n) * n) / float(box.side[0])


def taper_weight(box: Box2, taper: TaperSpec, x):
    """Separable C-infinity bump weight at a point (2,) or points (..., 2):
    0 on the box edge, 1 on the plateau."""
    x = np.asarray(x, dtype=float)
    if not np.all(box.contains(x)):
        raise DomainError(f"taper_weight: point {x} lies outside the box")
    xi = (x - box.min_corner) / box.side
    return (_axis_weight(xi[..., 0], taper.inner_fraction)
            * _axis_weight(xi[..., 1], taper.inner_fraction))[()]


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

    f(x1, x2) takes coordinate arrays and is called once, on the block of
    grid points where both axis weights of the separable taper are nonzero
    (every point off the box's lower edges). Inside the physical domain the
    taper weight is 1, so samples there equal f exactly; the check below
    enforces that the domain's tight bounding box lies within the taper
    plateau.
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
    # the weight is the outer product of the per-axis weights on the grid
    axes = box.min_corner[:, None] + float(box.side[0]) * np.arange(n) / n  # (2, n)
    axis_w = _axis_weight((axes - box.min_corner[:, None]) / box.side[:, None], t)
    rows, cols = np.flatnonzero(axis_w[0]), np.flatnonzero(axis_w[1])
    x1, x2 = np.meshgrid(axes[0, rows], axes[1, cols], indexing="ij")
    samples = np.zeros((n, n))
    samples[np.ix_(rows, cols)] = (np.multiply.outer(axis_w[0, rows], axis_w[1, cols])
                                   * np.broadcast_to(f(x1, x2), x1.shape))
    return SourceGrid(box=box, n=n, samples=samples)


def solve_particular(op: OperatorSpec, grid: SourceGrid) -> SpectralField:
    """Divide FFT coefficients by the Fourier symbol; O(n^2 log n)."""
    n = grid.n
    fhat = np.fft.fft2(grid.samples)
    m = np.fft.fftfreq(n) * n
    w = _frequencies(n, grid.box)
    # no operator has a mixed w1*w2 term, so the symbol on the grid is the
    # outer sum sigma(w1, 0) + sigma(0, w2) - sigma(0, 0)
    sigma = np.add.outer(fourier_symbol(op, stack_xy(w, 0.0)),
                         fourier_symbol(op, stack_xy(0.0, w)) - fourier_symbol(op, (0.0, 0.0)))

    mean = float(grid.samples.mean())
    center = grid.box.center
    compensator: Compensator = None
    if isinstance(op, Poisson):
        compensator = PoissonQuad(mean=mean, center=center)
    elif isinstance(op, ConvectionDiffusion) and op.reaction == 0.0:
        compensator = ConvectionLinear(mean=mean, velocity=op.velocity, center=center)
    if compensator is not None:
        fhat[0, 0] = 0.0
        sigma[0, 0] = 1.0  # placeholder; coefficient is zero anyway

    safe = None
    if isinstance(op, Helmholtz):
        near = np.abs(sigma) <= RESONANCE_SYMBOL_TOL * max(1.0, op.k ** 2)
        if np.any(near):
            fmax = float(np.abs(fhat).max())
            bad = near & (np.abs(fhat) > RESONANCE_SOURCE_TOL * fmax)
            if np.any(bad):
                idx = np.argwhere(bad)[0]
                raise ResonantBoxError(
                    f"Fourier mode {tuple(int(m[i]) for i in idx)} of the embedding box "
                    f"is resonant for Helmholtz k={op.k} and carries source energy; "
                    "change box_margin or the grid size to detune the box")
            safe = ~near

    sigma *= n * n  # the series coefficients are fft2 / (sigma n^2)
    if safe is None:
        coeffs = np.divide(fhat, sigma, out=fhat)
    else:
        coeffs = np.zeros_like(fhat)
        coeffs[safe] = fhat[safe] / sigma[safe]
    return SpectralField(box=grid.box, n=n, coeffs=coeffs, compensator=compensator)


def eval_particular(sf: SpectralField, x):
    """u_p at points x, (2,) or (..., 2): per block of points, the folded
    series is summed as the row sums of (E_x D) * F_y."""
    pts, blocks, shape = point_blocks(x, sf.n)
    val = np.empty(len(pts))
    for blk in blocks:
        val[blk] = sf._series(*sf._phases(pts[blk]))
    if sf.compensator is not None:
        val += sf.compensator.value(pts[:, 0], pts[:, 1])
    return val.reshape(shape)[()]


def eval_particular_gradient(sf: SpectralField, x) -> np.ndarray:
    """grad u_p at points x, (2,) or (..., 2); the result has x's shape."""
    pts, blocks, shape = point_blocks(x, sf.n)
    g = np.empty((len(pts), 2))
    iw = 1j * sf.frequencies
    for blk in blocks:
        ex, ey = sf._phases(pts[blk])
        g[blk, 0] = sf._series(iw * ex, ey)
        g[blk, 1] = sf._series(ex, iw[:sf.n // 2 + 1] * ey)
    if sf.compensator is not None:
        g += sf.compensator.gradient(pts[:, 0], pts[:, 1])
    return g.reshape(shape + (2,))
