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
from typing import Callable, Union

import numpy as np

from .errors import ConfigurationError, DomainError, ResonantBoxError
from .geometry import Box2, StarDomain, bounding_box, point_blocks
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
    plus an optional zero-mode compensator."""
    box: Box2
    n: int
    coeffs: np.ndarray
    compensator: Compensator = None

    def _phases(self, x: np.ndarray):
        """Mode frequencies w (n,) and phase factors exp(i w (x_k - min_k)), (P, n)
        per axis k, at points x (P, 2) in the box (else DomainError)."""
        inside = self.box.contains(x)
        if not inside.all():
            x1, x2 = x[np.argmin(inside)]
            raise DomainError(f"point ({x1}, {x2}) lies outside the embedding box")
        side = float(self.box.side[0])
        m = np.fft.fftfreq(self.n) * self.n  # integer mode numbers
        w = 2.0 * np.pi * m / side
        ex = np.exp(1j * w * (x[:, :1] - self.box.min_corner[0]))
        ey = np.exp(1j * w * (x[:, 1:] - self.box.min_corner[1]))
        return w, ex, ey


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

    f(x1, x2) takes coordinate arrays and is called once, at the grid points
    where the taper weight is nonzero. Inside the physical domain the taper
    weight is 1, so samples there equal f exactly; the check below enforces
    that the domain's tight bounding box lies within the taper plateau.
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
    c = float(box.side[0]) * np.arange(n) / n
    x1g, x2g = np.meshgrid(box.min_corner[0] + c, box.min_corner[1] + c, indexing="ij")
    weight = taper_weight(box, taper, np.stack([x1g, x2g], axis=-1))
    samples = np.zeros((n, n))
    live = weight != 0.0
    x1, x2 = x1g[live], x2g[live]
    samples[live] = weight[live] * np.broadcast_to(f(x1, x2), x1.shape)
    return SourceGrid(box=box, n=n, samples=samples)


def solve_particular(op: OperatorSpec, grid: SourceGrid) -> SpectralField:
    """Divide FFT coefficients by the Fourier symbol; O(n^2 log n)."""
    n = grid.n
    side = float(grid.box.side[0])
    fhat = np.fft.fft2(grid.samples)
    m = np.fft.fftfreq(n) * n
    w1 = 2.0 * np.pi * m / side
    sigma = fourier_symbol(op, np.stack(np.meshgrid(w1, w1, indexing="ij"), axis=-1))

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

    coeffs = np.zeros_like(fhat)
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
            coeffs[safe] = fhat[safe] / sigma[safe]
        else:
            coeffs = fhat / sigma
    else:
        coeffs = fhat / sigma

    coeffs = coeffs / (n * n)
    return SpectralField(box=grid.box, n=n, coeffs=coeffs, compensator=compensator)


def eval_particular(sf: SpectralField, x):
    """u_p at points x, (2,) or (..., 2): per block of points, the series is
    summed as the row sums of (E_x C) * E_y."""
    pts, blocks, shape = point_blocks(x, sf.n)
    val = np.empty(len(pts))
    for blk in blocks:
        _, ex, ey = sf._phases(pts[blk])
        val[blk] = np.real(np.sum((ex @ sf.coeffs) * ey, axis=1))
    if sf.compensator is not None:
        val += sf.compensator.value(pts[:, 0], pts[:, 1])
    return val.reshape(shape)[()]


def eval_particular_gradient(sf: SpectralField, x) -> np.ndarray:
    """grad u_p at points x, (2,) or (..., 2); the result has x's shape."""
    pts, blocks, shape = point_blocks(x, sf.n)
    g = np.empty((len(pts), 2))
    for blk in blocks:
        w, ex, ey = sf._phases(pts[blk])
        g[blk, 0] = np.real(np.sum(((1j * w * ex) @ sf.coeffs) * ey, axis=1))
        g[blk, 1] = np.real(np.sum((ex @ sf.coeffs) * (1j * w * ey), axis=1))
    if sf.compensator is not None:
        g += sf.compensator.gradient(pts[:, 0], pts[:, 1])
    return g.reshape(shape + (2,))
