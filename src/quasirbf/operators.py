"""Elliptic operators: Fourier symbols, nonsingular kernels, FD application.

Every operator is L u = D laplace(u) + v . grad(u) + c u. One table maps
each to its (D, v, c), which `op.coefficients` returns (sign conventions
fixed once, used everywhere):

    Poisson               laplace(u) = f                           (1, 0, 0)
    Helmholtz             laplace(u) + k^2 u = f                   (1, 0, k^2)
    ModifiedHelmholtz     laplace(u) - k^2 u = f                   (1, 0, -k^2)
    ConvectionDiffusion   D laplace(u) + v . grad(u) - kappa u = f (D, v, -kappa)

The symbol, the FD stencil and the kernel are each written once over
(D, v, c). The kernel exp(-v.d / 2D) Z0(mu r), with r = |d| and
mu^2 = |v|^2 / 4D^2 - c / D, satisfies the homogeneous equation everywhere
and stays finite at r = 0: Z0 is J0 for mu^2 < 0 (Helmholtz) and I0 for
mu^2 > 0 (modified Helmholtz, convection-diffusion). Poisson has mu^2 = 0
and no such kernel beyond constants; its homogeneous solutions are handled
by the circular-harmonic basis in the bkm module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Union

import numpy as np

from .errors import ConfigurationError, KernelOverflowError, UnsupportedOperatorError
from .specfun import bessel_i0, bessel_i1, bessel_j0, bessel_j1

class Coefficients(NamedTuple):
    """L u = D laplace(u) + v . grad(u) + c u, and the kernel's
    mu2 = |v|^2 / 4D^2 - c / D with mu = sqrt(|mu2|); drift is v != 0."""
    D: float
    v: np.ndarray
    c: float
    mu2: float
    mu: float
    drift: bool


class _Operator:
    @cached_property
    def coefficients(self) -> Coefficients:
        """(D, v, c) of this operator, with the kernel's mu2 and mu; computed once."""
        D, v, c = _COEFFICIENTS[type(self)](self)
        mu2 = float(v @ v) / (4.0 * D ** 2) - c / D
        return Coefficients(D, v, c, mu2, math.sqrt(abs(mu2)), bool(v.any()))

    def _check_kernel(self):
        """ConfigurationError unless mu2 is a nonzero finite double, which the
        kernel Z0(mu r) needs (Poisson, with mu2 = 0, has no such kernel)."""
        try:
            with np.errstate(over="ignore"):
                mu2 = self.coefficients.mu2
        except (ZeroDivisionError, OverflowError):
            mu2 = math.nan
        if mu2 == 0.0 or not math.isfinite(mu2):
            raise ConfigurationError(
                f"{self!r} has mu^2 = |v|^2 / 4D^2 - c / D = {mu2}, not a nonzero finite double")


@dataclass(frozen=True)
class Poisson(_Operator):
    pass


@dataclass(frozen=True)
class Helmholtz(_Operator):
    k: float

    def __post_init__(self):
        if not (self.k > 0 and math.isfinite(self.k)):
            raise ConfigurationError(f"Helmholtz wavenumber must be positive, got {self.k}")
        self._check_kernel()


@dataclass(frozen=True)
class ModifiedHelmholtz(_Operator):
    k: float

    def __post_init__(self):
        if not (self.k > 0 and math.isfinite(self.k)):
            raise ConfigurationError(f"modified-Helmholtz parameter must be positive, got {self.k}")
        self._check_kernel()


@dataclass(frozen=True)
class ConvectionDiffusion(_Operator):
    diffusivity: float
    velocity: np.ndarray
    reaction: float = 0.0

    def __post_init__(self):
        velocity = np.array(self.velocity, dtype=float)
        velocity.flags.writeable = False  # the coefficients are computed once
        object.__setattr__(self, "velocity", velocity)
        if self.velocity.shape != (2,) or not np.all(np.isfinite(self.velocity)):
            raise ConfigurationError("velocity must be a finite 2-vector")
        if not (self.diffusivity > 0 and math.isfinite(self.diffusivity)):
            raise ConfigurationError(f"diffusivity must be positive, got {self.diffusivity}")
        if not (self.reaction >= 0 and math.isfinite(self.reaction)):
            raise ConfigurationError(f"reaction must be >= 0, got {self.reaction}")
        if self.reaction == 0.0 and not np.any(self.velocity):
            raise ConfigurationError(
                "convection-diffusion with zero velocity and zero reaction is the "
                "Poisson operator (up to D); use Poisson instead")
        self._check_kernel()


OperatorSpec = Union[Poisson, Helmholtz, ModifiedHelmholtz, ConvectionDiffusion]

_COEFFICIENTS = {  # operator type -> (D, v, c)
    Poisson: lambda op: (1.0, np.zeros(2), 0.0),
    Helmholtz: lambda op: (1.0, np.zeros(2), op.k ** 2),
    ModifiedHelmholtz: lambda op: (1.0, np.zeros(2), -op.k ** 2),
    ConvectionDiffusion: lambda op: (op.diffusivity, op.velocity, -op.reaction),
}


def fourier_symbol(op, omega):
    """sigma(omega) = c - D |omega|^2 + i v.omega, with L exp(i omega.x) =
    sigma(omega) exp(i omega.x).

    op is an operator or its (D, v, c); omega is one frequency (2,) or an
    array of them (..., 2); the result is complex with shape (...).
    """
    D, v, c = getattr(op, "coefficients", op)[:3]
    omega = np.asarray(omega, dtype=float)
    w1, w2 = omega[..., 0], omega[..., 1]
    return (c - D * (w1 ** 2 + w2 ** 2)) + 1j * (v[0] * w1 + v[1] * w2)


def _kernel(op: OperatorSpec, d, gradient: bool):
    """exp(-v.d / 2D) Z0(mu r) (shape (...)) or its gradient (d's shape) at
    displacements d, (2,) or (..., 2). With Z0' = mu Z1 (Z1 = -J1 or I1) the
    gradient is exp(-v.d / 2D) (mu Z1 d / r - v / 2D Z0); for v = 0 neither
    computes the drift, and the gradient no Z0. Only conv-diff has v != 0, and
    its c = -kappa <= 0 gives mu^2 > 0, so the drift goes with I0. The drift
    and I0 can each be finite with an infinite product: that raises
    KernelOverflowError."""
    k = op.coefficients
    if k.mu2 == 0.0:
        raise UnsupportedOperatorError(
            f"{op!r} has mu = 0 and no nonsingular radial kernel; use the Trefftz basis")
    d = np.asarray(d, dtype=float)
    r = np.hypot(d[..., :1], d[..., 1:])
    oscillating = k.mu2 < 0.0
    # every d / r term has a zero numerator at r = 0, where 1 is a safe divisor
    safe_r = np.where(r == 0.0, 1.0, r) if gradient else None
    if not k.drift:
        if not gradient:
            return (bessel_j0 if oscillating else bessel_i0)(k.mu * r)[..., 0][()]
        z1 = bessel_j1 if oscillating else bessel_i1
        return (-k.mu if oscillating else k.mu) * z1(k.mu * r) * d / safe_r
    z0, z1 = bessel_i0(k.mu * r), (bessel_i1(k.mu * r) if gradient else None)
    with np.errstate(over="ignore", invalid="ignore"):
        drift = np.exp((k.v[0] * d[..., :1] + k.v[1] * d[..., 1:]) / (-2.0 * k.D))
        out = ((drift * z0)[..., 0][()] if not gradient
               else drift * (k.mu * z1 / safe_r * d - k.v / (2.0 * k.D) * z0))
    if not np.all(np.isfinite(out)):
        raise KernelOverflowError(
            f"the kernel of {op!r} overflows double precision: exp(-v.d / 2D) "
            f"I0(mu r) is not finite for r up to {float(r.max()):.4g}")
    return out


def kernel_value(op: OperatorSpec, d):
    """Nonsingular general-solution kernel at displacements d = x - s,
    (2,) or (..., 2); the result has shape (...)."""
    return _kernel(op, d, gradient=False)


def kernel_gradient(op: OperatorSpec, d) -> np.ndarray:
    """Gradient of kernel_value with respect to x, with analytic r=0 limits,
    at displacements d, (2,) or (..., 2); the result has d's shape."""
    return _kernel(op, d, gradient=True)


def apply_operator_fd(op: OperatorSpec, u: Callable, x, h: float):
    """Second-order finite-difference application of L to a scalar field.

    5-point stencil for the Laplacian, centered differences for the
    convective term; error is O(h^2) for C^4 fields. Used as the
    independent check that kernels and solved fields satisfy L u = f.
    x is one point (2,) or points (..., 2); u(x1, x2) is called once per
    stencil offset with the coordinate arrays, and the result has shape (...).
    """
    D, v, c = op.coefficients[:3]
    x = np.asarray(x, dtype=float)
    x1, x2 = x[..., 0], x[..., 1]
    uc = u(x1, x2)
    ue, uw = u(x1 + h, x2), u(x1 - h, x2)
    un, us = u(x1, x2 + h), u(x1, x2 - h)
    lap = (ue + uw + un + us - 4.0 * uc) / (h * h)
    gx = (ue - uw) / (2.0 * h)
    gy = (un - us) / (2.0 * h)
    return D * lap + v[0] * gx + v[1] * gy + c * uc
