"""Independent numerical oracles used to freeze expected test values.

These deliberately avoid the code paths they check:

* Bessel oracles evaluate the ascending power series in 45-digit decimal
  arithmetic (J only below x = 20; above that the integral representation
  with a 10000-point trapezoid rule takes over, which is spectrally
  accurate for these periodic integrands).
* The minimum-norm least-squares oracle builds the pseudo-inverse from a
  known low-rank factorization via normal equations, never via an SVD.
* Geometry oracles: finite-difference tangents of the boundary curve and
  even-odd ray casting against a dense polygon.
* The taper oracle evaluates the separable bump weight point by point from
  its definition, without the package's per-axis sampling.
* The circular-harmonic oracle takes numpy powers of z = (x + iy - c)/R,
  not the package's product ladder.
"""
from __future__ import annotations

import math
from decimal import Decimal, getcontext

import numpy as np

getcontext().prec = 45

_J_SERIES_LIMIT = 20.0
_INTEGRAL_POINTS = 10000


def _decimal_series(nu: int, x: float, sign: int, terms: int = 160) -> float:
    xd = Decimal(float(x))  # exact binary-to-decimal conversion
    q = xd * xd / 4
    t = xd / 2 if nu == 1 else Decimal(1)
    s = t
    for m in range(1, terms):
        t = sign * t * q / (m * (m + nu))
        s += t
    return float(s)


def _integral_j(nu: int, x: float) -> float:
    theta = np.linspace(0.0, np.pi, _INTEGRAL_POINTS + 1)
    integrand = np.cos(nu * theta - x * np.sin(theta))
    return float(np.trapezoid(integrand, theta) / np.pi)


def oracle_j0(x: float) -> float:
    return _decimal_series(0, x, -1) if x <= _J_SERIES_LIMIT else _integral_j(0, x)


def oracle_j1(x: float) -> float:
    return _decimal_series(1, x, -1) if x <= _J_SERIES_LIMIT else _integral_j(1, x)


def oracle_i0(x: float) -> float:
    return _decimal_series(0, x, 1)


def oracle_i1(x: float) -> float:
    return _decimal_series(1, x, 1)


def j0_first_zero(lo: float = 2.0, hi: float = 3.0, tol: float = 1e-14) -> float:
    """Bisection on the decimal-series oracle."""
    flo = oracle_j0(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = oracle_j0(mid)
        if (flo > 0) == (fmid > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def min_norm_from_factors(left: np.ndarray, right: np.ndarray,
                          b: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of (left @ right) x = b.

    left (n x r) and right (r x m) must have full rank r; then
    A^+ = right^T (right right^T)^{-1} (left^T left)^{-1} left^T.
    """
    y = np.linalg.solve(left.T @ left, left.T @ b)
    return right.T @ np.linalg.solve(right @ right.T, y)


def fd_tangent(domain, t: float, h: float = 1e-7) -> np.ndarray:
    """Central-difference tangent of the boundary curve at parameter t."""
    p_plus = domain.boundary_point(t + h)
    p_minus = domain.boundary_point(t - h)
    return (p_plus - p_minus) / (2.0 * h)


def polygon_contains(domain, p, sides: int = 4096) -> bool:
    """Even-odd ray casting against a dense polygonal boundary sample."""
    t = 2.0 * np.pi * np.arange(sides) / sides
    x1, y1 = domain.boundary_point(t).T
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    x, y = float(p[0]), float(p[1])
    straddle = (y1 > y) != (y2 > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
    return bool(np.count_nonzero(straddle & (x < x_cross)) % 2)


def taper_weight(box, t: float, x) -> np.ndarray:
    """Taper weight at points x (..., 2) of the box: the product over both
    axes of min(eta(xi/t), eta((1-xi)/t)), xi = (x - min_corner)/side, with
    eta(s) = b(s)/(b(s) + b(1-s)) and b(s) = exp(-1/s) for s > 0, else 0."""
    def b(s):
        return np.where(s > 0, np.exp(-1.0 / np.where(s > 0, s, 1.0)), 0.0)

    def eta(s):
        return b(s) / (b(s) + b(1.0 - s))

    xi = (np.asarray(x, dtype=float) - box.min_corner) / box.side
    w = np.minimum(eta(xi / t), eta((1.0 - xi) / t))
    return w[..., 0] * w[..., 1]


def oracle_harmonics(order: int, center, scale: float, x):
    """Values (P, 2 order + 1) and gradients (P, 2 order + 1, 2) of the circular
    harmonics 1, Re z^m, Im z^m (m = 1..order) at points x (P, 2) or (2,), with
    z = (x1 + i x2 - c) / R: f = z^m by numpy power and f' = m z^{m-1} / R, whence
    grad Re f = (Re f', -Im f') and grad Im f = (Im f', Re f')."""
    x = np.asarray(x, dtype=float).reshape(-1, 2)
    z = (((x[:, 0] - center[0]) + 1j * (x[:, 1] - center[1])) / scale)[:, None]
    m = np.arange(1, order + 1)
    f, df = z ** m, m * z ** (m - 1) / scale
    values = np.ones((len(x), 2 * order + 1))
    values[:, 1::2], values[:, 2::2] = f.real, f.imag
    grads = np.zeros((len(x), 2 * order + 1, 2))
    grads[:, 1::2] = np.stack([df.real, -df.imag], -1)
    grads[:, 2::2] = np.stack([df.imag, df.real], -1)
    return values, grads


def central_gradient(f, x1: float, x2: float, h: float = 1e-6) -> np.ndarray:
    return np.array([
        (f(x1 + h, x2) - f(x1 - h, x2)) / (2.0 * h),
        (f(x1, x2 + h) - f(x1, x2 - h)) / (2.0 * h),
    ])
