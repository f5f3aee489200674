"""Star-shaped 2D domains, boundary knots, interior sampling, embedding boxes.

A domain is described by a radial function rho(t) > 0 about a center point,
so the boundary curve is gamma(t) = center + rho(t) * (cos t, sin t) for
t in [0, 2*pi). Everything downstream (knot placement, normals, embedding
boxes, interior sampling) reduces to evaluating rho and its derivative.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import ConfigurationError

_BOX_SAMPLES = 1024  # parameter samples used by bounding_box

# Batched evaluations at many points work through blocks of at most this
# many (point, basis function) pairs, which bounds their temporary memory.
BLOCK_PAIRS = 16384


def stack_xy(x1, x2) -> np.ndarray:
    """Components x1, x2 (floats or arrays, broadcast together) stacked on a
    last axis: points (..., 2) from coordinates, or vectors from components."""
    out = np.empty(np.broadcast(x1, x2).shape + (2,))
    out[..., 0], out[..., 1] = x1, x2
    return out


def point_blocks(x, width: int):
    """Points (2,) or (..., 2) as a (P, 2) array, the slices that cut it into
    blocks of at most BLOCK_PAIRS // width points, and the batch shape (...)."""
    x = np.asarray(x, dtype=float)
    step = max(1, BLOCK_PAIRS // max(width, 1))
    blocks = [slice(i, i + step) for i in range(0, x.size // 2, step)]
    return x.reshape(-1, 2), blocks, x.shape[:-1]


def _as_point(p) -> np.ndarray:
    a = np.asarray(p, dtype=float)
    if a.shape != (2,):
        raise ConfigurationError(f"expected a 2D point, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class Circle:
    radius: float

    def __post_init__(self):
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ConfigurationError(f"circle radius must be positive, got {self.radius}")

    def rho(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.radius)

    def rho_deriv(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))


@dataclass(frozen=True)
class Ellipse:
    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0 and math.isfinite(self.a) and math.isfinite(self.b)):
            raise ConfigurationError(f"ellipse semi-axes must be positive, got a={self.a}, b={self.b}")

    def rho(self, t):
        t = np.asarray(t, dtype=float)
        return self.a * self.b / np.sqrt((self.b * np.cos(t)) ** 2 + (self.a * np.sin(t)) ** 2)

    def rho_deriv(self, t):
        t = np.asarray(t, dtype=float)
        w = (self.b * np.cos(t)) ** 2 + (self.a * np.sin(t)) ** 2
        return -self.a * self.b * (self.a ** 2 - self.b ** 2) * np.sin(t) * np.cos(t) * w ** -1.5


@dataclass(frozen=True)
class Star:
    """Cosine-perturbed circle: rho(t) = base + amplitude * cos(lobes * t)."""
    base: float
    amplitude: float
    lobes: int

    def __post_init__(self):
        if not (self.base > 0 and math.isfinite(self.base)):
            raise ConfigurationError(f"star base radius must be positive, got {self.base}")
        if not (abs(self.amplitude) < self.base):
            raise ConfigurationError(
                f"star amplitude must satisfy |A| < base (got A={self.amplitude}, base={self.base})")
        if not (isinstance(self.lobes, int) and self.lobes >= 1):
            raise ConfigurationError(f"star lobe count must be a positive integer, got {self.lobes}")

    def rho(self, t):
        t = np.asarray(t, dtype=float)
        return self.base + self.amplitude * np.cos(self.lobes * t)

    def rho_deriv(self, t):
        t = np.asarray(t, dtype=float)
        return -self.amplitude * self.lobes * np.sin(self.lobes * t)


Shape = Union[Circle, Ellipse, Star]


@dataclass(frozen=True)
class StarDomain:
    """A domain star-shaped about `center`, bounded by a radial curve."""
    shape: Shape
    center: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self):
        object.__setattr__(self, "center", _as_point(self.center))
        if not np.all(np.isfinite(self.center)):
            raise ConfigurationError("domain center must be finite")

    def rho(self, t):
        return self.shape.rho(t)

    def rho_deriv(self, t):
        return self.shape.rho_deriv(t)

    def boundary_point(self, t):
        """gamma(t), vectorized over t."""
        t = np.asarray(t, dtype=float)
        r = self.rho(t)
        return stack_xy(self.center[0] + r * np.cos(t), self.center[1] + r * np.sin(t))

    def outward_normal(self, t):
        """Unit outward normal at gamma(t), vectorized over t: the curve
        tangent (counterclockwise parametrization) rotated by -90 degrees."""
        t = np.asarray(t, dtype=float)
        r = self.rho(t)
        dr = self.rho_deriv(t)
        # gamma'(t) = rho'(cos,sin) + rho(-sin,cos)
        tx = dr * np.cos(t) - r * np.sin(t)
        ty = dr * np.sin(t) + r * np.cos(t)
        norm = np.hypot(tx, ty)
        return np.stack([ty / norm, -tx / norm], axis=-1)

    def max_radius(self) -> float:
        t = np.linspace(0.0, 2.0 * np.pi, _BOX_SAMPLES, endpoint=False)
        return float(np.max(self.rho(t)))


@dataclass(frozen=True)
class BoundaryKnots:
    """N boundary knots as arrays: parameters t (N,), points gamma(t) (N, 2)
    and unit outward normals (N, 2). Iterating yields the points."""
    param: np.ndarray
    points: np.ndarray
    normals: np.ndarray

    def __len__(self) -> int:
        return len(self.param)

    def __iter__(self):
        return iter(self.points)


@dataclass(frozen=True)
class Box2:
    min_corner: np.ndarray
    max_corner: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "min_corner", _as_point(self.min_corner))
        object.__setattr__(self, "max_corner", _as_point(self.max_corner))
        if not np.all(self.max_corner > self.min_corner):
            raise ConfigurationError("box max_corner must strictly dominate min_corner")

    @property
    def side(self) -> np.ndarray:
        return self.max_corner - self.min_corner

    def contains(self, p):
        """Closed-box membership of a point (2,), or of each point in (..., 2)."""
        p = np.asarray(p, dtype=float)
        return np.all((p >= self.min_corner) & (p <= self.max_corner), axis=-1)

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.min_corner + self.max_corner)


def boundary_nodes(domain: StarDomain, n: int) -> BoundaryKnots:
    """Place n knots at uniform parameter values t_i = 2*pi*i/n, with their
    outward normals."""
    if n < 1:
        raise ConfigurationError(f"need at least one boundary node, got {n}")
    t = 2.0 * np.pi * np.arange(n) / n
    return BoundaryKnots(param=t, points=domain.boundary_point(t),
                         normals=domain.outward_normal(t))


def bounding_box(domain: StarDomain, margin_fraction: float) -> Box2:
    """Square axis-aligned box around the boundary curve.

    The curve is sampled at 1024 parameters; each side is inflated by
    margin_fraction times the larger raw extent, and the box is squared
    up to the larger inflated extent about the raw bounding-box center. A
    margin that makes that side non-finite raises ConfigurationError.
    """
    if margin_fraction < 0:
        raise ConfigurationError(f"margin_fraction must be >= 0, got {margin_fraction}")
    t = np.linspace(0.0, 2.0 * np.pi, _BOX_SAMPLES, endpoint=False)
    pts = domain.boundary_point(t)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    extent = hi - lo
    pad = margin_fraction * float(extent.max())
    side = float((extent + 2.0 * pad).max())
    if not math.isfinite(side):
        raise ConfigurationError(f"margin_fraction {margin_fraction} makes the box side non-finite")
    mid = 0.5 * (lo + hi)
    half = 0.5 * side
    return Box2(min_corner=mid - half, max_corner=mid + half)


def interior_eval_points(domain: StarDomain, rings: int, per_ring: int) -> np.ndarray:
    """Deterministic interior sample: scaled-down copies of the boundary,
    as a (rings * per_ring, 2) array, ring by ring.

    Ring r (1-based) uses the radial scale r/(rings+1), so every point is
    strictly inside the domain.
    """
    if rings < 1 or per_ring < 1:
        raise ConfigurationError("rings and per_ring must both be >= 1")
    t = 2.0 * np.pi * np.arange(per_ring) / per_ring
    r = domain.rho(t)
    s = (np.arange(1, rings + 1) / (rings + 1))[:, None]
    return np.stack([domain.center[0] + s * r * np.cos(t),
                     domain.center[1] + s * r * np.sin(t)], axis=-1).reshape(-1, 2)
