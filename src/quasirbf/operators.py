"""Elliptic operators: Fourier symbols, nonsingular kernels, FD application.

Sign conventions (fixed once, used everywhere):

    Poisson               laplace(u) = f
    Helmholtz             laplace(u) + k^2 u = f
    ModifiedHelmholtz     laplace(u) - k^2 u = f
    ConvectionDiffusion   D laplace(u) + v . grad(u) - kappa u = f

Each non-Poisson operator has a radial (up to an exponential factor for
convection-diffusion) kernel that satisfies the homogeneous equation
everywhere and stays finite at r = 0. Poisson has no such kernel beyond
constants; its homogeneous solutions are handled by the circular-harmonic
basis in the bkm module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import ConfigurationError, UnsupportedOperatorError
from .specfun import bessel_i0, bessel_i0_i1, bessel_i1, bessel_j0, bessel_j1


@dataclass(frozen=True)
class Poisson:
    pass


@dataclass(frozen=True)
class Helmholtz:
    k: float

    def __post_init__(self):
        if not (self.k > 0 and math.isfinite(self.k)):
            raise ConfigurationError(f"Helmholtz wavenumber must be positive, got {self.k}")


@dataclass(frozen=True)
class ModifiedHelmholtz:
    k: float

    def __post_init__(self):
        if not (self.k > 0 and math.isfinite(self.k)):
            raise ConfigurationError(f"modified-Helmholtz parameter must be positive, got {self.k}")


@dataclass(frozen=True)
class ConvectionDiffusion:
    diffusivity: float
    velocity: np.ndarray
    reaction: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "velocity", np.asarray(self.velocity, dtype=float))
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

    @property
    def mu(self) -> float:
        """Decay rate of the reduced modified-Helmholtz problem."""
        v2 = float(self.velocity @ self.velocity)
        return math.sqrt(v2 / (4.0 * self.diffusivity ** 2) + self.reaction / self.diffusivity)


OperatorSpec = Union[Poisson, Helmholtz, ModifiedHelmholtz, ConvectionDiffusion]


def fourier_symbol(op: OperatorSpec, omega):
    """sigma(omega) with L exp(i omega.x) = sigma(omega) exp(i omega.x).

    omega is one frequency (2,) or an array of them (..., 2); the result
    is complex with shape (...).
    """
    omega = np.asarray(omega, dtype=float)
    w1, w2 = omega[..., 0], omega[..., 1]
    ww = w1 ** 2 + w2 ** 2
    if isinstance(op, Poisson):
        return -ww + 0j
    if isinstance(op, Helmholtz):
        return op.k ** 2 - ww + 0j
    if isinstance(op, ModifiedHelmholtz):
        return -(op.k ** 2 + ww) + 0j
    if isinstance(op, ConvectionDiffusion):
        return ((-op.diffusivity * ww - op.reaction)
                + 1j * (op.velocity[0] * w1 + op.velocity[1] * w2))
    raise UnsupportedOperatorError(f"unknown operator {op!r}")


def _drift(op: ConvectionDiffusion, d: np.ndarray) -> np.ndarray:
    """exp(-v.d / 2D) for displacements d (..., 2), with shape (..., 1)."""
    return np.exp(-(op.velocity[0] * d[..., :1] + op.velocity[1] * d[..., 1:])
                  / (2.0 * op.diffusivity))


def kernel_value(op: OperatorSpec, d):
    """Nonsingular general-solution kernel at displacements d = x - s,
    (2,) or (..., 2); the result has shape (...)."""
    d = np.asarray(d, dtype=float)
    r = np.hypot(d[..., 0], d[..., 1])
    if isinstance(op, Helmholtz):
        return bessel_j0(op.k * r)
    if isinstance(op, ModifiedHelmholtz):
        return bessel_i0(op.k * r)
    if isinstance(op, ConvectionDiffusion):
        return _drift(op, d)[..., 0] * bessel_i0(op.mu * r)
    raise UnsupportedOperatorError(
        "Poisson has no nonsingular radial kernel; use the Trefftz basis")


def kernel_gradient(op: OperatorSpec, d) -> np.ndarray:
    """Gradient of kernel_value with respect to x, with analytic r=0 limits,
    at displacements d, (2,) or (..., 2); the result has d's shape."""
    d = np.asarray(d, dtype=float)
    r = np.hypot(d[..., :1], d[..., 1:])  # (..., 1)
    # every d / r term has a zero numerator at r = 0, where 1 is a safe divisor
    safe_r = np.where(r == 0.0, 1.0, r)
    if isinstance(op, Helmholtz):
        return -op.k * bessel_j1(op.k * r) * d / safe_r
    if isinstance(op, ModifiedHelmholtz):
        return op.k * bessel_i1(op.k * r) * d / safe_r
    if isinstance(op, ConvectionDiffusion):
        half_v = op.velocity / (2.0 * op.diffusivity)
        i0, i1 = bessel_i0_i1(op.mu * r)
        return _drift(op, d) * (op.mu * i1 / safe_r * d - half_v * i0)
    raise UnsupportedOperatorError(
        "Poisson has no nonsingular radial kernel; use the Trefftz basis")


def apply_operator_fd(op: OperatorSpec, u: Callable, x, h: float):
    """Second-order finite-difference application of L to a scalar field.

    5-point stencil for the Laplacian, centered differences for the
    convective term; error is O(h^2) for C^4 fields. Used as the
    independent check that kernels and solved fields satisfy L u = f.
    x is one point (2,) or points (..., 2); u(x1, x2) is called once per
    stencil offset with the coordinate arrays, and the result has shape (...).
    """
    x = np.asarray(x, dtype=float)
    x1, x2 = x[..., 0], x[..., 1]
    uc = u(x1, x2)
    ue, uw = u(x1 + h, x2), u(x1 - h, x2)
    un, us = u(x1, x2 + h), u(x1, x2 - h)
    lap = (ue + uw + un + us - 4.0 * uc) / (h * h)
    if isinstance(op, Poisson):
        return lap
    if isinstance(op, Helmholtz):
        return lap + op.k ** 2 * uc
    if isinstance(op, ModifiedHelmholtz):
        return lap - op.k ** 2 * uc
    if isinstance(op, ConvectionDiffusion):
        gx = (ue - uw) / (2.0 * h)
        gy = (un - us) / (2.0 * h)
        return (op.diffusivity * lap
                + op.velocity[0] * gx + op.velocity[1] * gy
                - op.reaction * uc)
    raise UnsupportedOperatorError(f"unknown operator {op!r}")
