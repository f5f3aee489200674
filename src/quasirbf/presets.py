"""Built-in manufactured problems with analytic exact solutions.

Each preset carries a whole-plane analytic source f and (where known) the
exact solution u* and its gradient, so boundary data comes from tracing
u* and errors are measurable. Registration verifies L u* = f by finite
differences at interior probe points, so a preset with a typo cannot
enter the registry.

Callback contract (source, exact, exact_gradient, and any f given to
particular.extend_source): a callback takes coordinates x1, x2, floats or
arrays that broadcast together, and returns an array of their broadcast
shape, or anything that broadcasts to it, such as a constant or an array
of one coordinate alone; exact_gradient adds a trailing axis of length 2.
extend_source samples the source on the r x c block of grid points where
the taper is nonzero, and makes three kinds of call: once, 4n seeded
random points of the block as x1 and x2 of one shape (4n,); then single
rows, x1 of shape (1, 1) and x2 of shape (1, c), and single columns, x1
of shape (r, 1) and x2 of shape (1, 1), one row and one column per rank
of the tapered source, and one more row that stops the cross (see
particular._cross). The whole block is passed, once, as an open grid, x1
of shape (r, 1) and x2 of shape (1, c), when the block is no larger than
particular.RANK_CAP, when the source has no cross of that rank, and when
a factored grid's samples are read; a factor that depends on one
coordinate is then computed on r or c points and only the final product
on r * c. The other callers pass arrays of one shape.
Write callbacks with numpy functions (np.sin, not math.sin).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from .errors import ConfigurationError
from .geometry import Circle, Star, StarDomain, interior_eval_points, stack_xy
from .operators import (ConvectionDiffusion, Helmholtz, ModifiedHelmholtz,
                        OperatorSpec, Poisson, apply_operator_fd,
                        kernel_gradient, kernel_value)

# (x1, x2) -> values of their broadcast shape (...); a VectorField returns (..., 2)
Field = Callable[[np.ndarray, np.ndarray], np.ndarray]
VectorField = Callable[[np.ndarray, np.ndarray], np.ndarray]

_SELF_CONSISTENCY_H = 1e-3
_SELF_CONSISTENCY_TOL = 1e-4


@dataclass(frozen=True)
class ProblemPreset:
    name: str
    description: str
    operator: OperatorSpec
    domain: StarDomain
    exact: Optional[Field]
    exact_gradient: Optional[VectorField]
    source: Optional[Field]  # None declares a homogeneous problem (f == 0)
    bc_kind: str = "dirichlet"


def check_self_consistency(preset: ProblemPreset, h: float = _SELF_CONSISTENCY_H) -> float:
    """Max |L u* - f| over interior probe points (NaN if no exact solution)."""
    if preset.exact is None:
        return float("nan")
    p = interior_eval_points(preset.domain, rings=2, per_ring=4)
    lu = apply_operator_fd(preset.operator, preset.exact, p, h)
    f = preset.source(p[:, 0], p[:, 1]) if preset.source is not None else 0.0
    return float(np.max(np.abs(lu - f)))


_REGISTRY: Dict[str, ProblemPreset] = {}


def _register(preset: ProblemPreset):
    mismatch = check_self_consistency(preset)
    if mismatch == mismatch and mismatch > _SELF_CONSISTENCY_TOL:
        raise ConfigurationError(
            f"preset {preset.name!r} is inconsistent: |L u* - f| = {mismatch:.3g}")
    _REGISTRY[preset.name] = preset


def preset_names():
    return list(_REGISTRY)


def get_preset(name: str) -> ProblemPreset:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {', '.join(_REGISTRY)}") from None


def all_presets():
    return list(_REGISTRY.values())


_unit_disc = StarDomain(Circle(1.0))
_star5 = StarDomain(Star(base=1.0, amplitude=0.2, lobes=5))

_register(ProblemPreset(
    name="helmholtz_disc",
    description="Helmholtz k=2 on the unit disc, u* = sin(2 x1), homogeneous",
    operator=Helmholtz(2.0),
    domain=_unit_disc,
    exact=lambda x, y: np.sin(2.0 * x),
    exact_gradient=lambda x, y: stack_xy(2.0 * np.cos(2.0 * x), 0.0),
    source=None,
))

_register(ProblemPreset(
    name="helmholtz_star",
    description="Helmholtz k=2 on a five-lobed star, u* = sin(2 x1), homogeneous",
    operator=Helmholtz(2.0),
    domain=_star5,
    exact=lambda x, y: np.sin(2.0 * x),
    exact_gradient=lambda x, y: stack_xy(2.0 * np.cos(2.0 * x), 0.0),
    source=None,
))

_kt_op = Helmholtz(2.0)
_kt_center = np.array([1.0, 0.0])

_register(ProblemPreset(
    name="helmholtz_kernel_trace",
    description="Helmholtz k=2 on the unit disc; boundary data is a kernel "
                "centered at (1, 0), so the exact field lies in the trial span",
    operator=_kt_op,
    domain=_unit_disc,
    exact=lambda x, y: kernel_value(_kt_op, stack_xy(x, y) - _kt_center),
    exact_gradient=lambda x, y: kernel_gradient(_kt_op, stack_xy(x, y) - _kt_center),
    source=None,
))

_register(ProblemPreset(
    name="modhelm_source",
    description="Modified Helmholtz k=1 on the unit disc, "
                "u* = sin(pi x1) sin(pi x2)",
    operator=ModifiedHelmholtz(1.0),
    domain=_unit_disc,
    exact=lambda x, y: np.sin(math.pi * x) * np.sin(math.pi * y),
    exact_gradient=lambda x, y: stack_xy(
        math.pi * np.cos(math.pi * x) * np.sin(math.pi * y),
        math.pi * np.sin(math.pi * x) * np.cos(math.pi * y)),
    source=lambda x, y: -(2.0 * math.pi ** 2 + 1.0)
    * np.sin(math.pi * x) * np.sin(math.pi * y),
))

_register(ProblemPreset(
    name="poisson_disc",
    description="Poisson on the unit disc, u* = sin(pi x1) sin(pi x2), "
                "circular-harmonic basis",
    operator=Poisson(),
    domain=_unit_disc,
    exact=lambda x, y: np.sin(math.pi * x) * np.sin(math.pi * y),
    exact_gradient=lambda x, y: stack_xy(
        math.pi * np.cos(math.pi * x) * np.sin(math.pi * y),
        math.pi * np.sin(math.pi * x) * np.cos(math.pi * y)),
    source=lambda x, y: -2.0 * math.pi ** 2
    * np.sin(math.pi * x) * np.sin(math.pi * y),
))

_register(ProblemPreset(
    name="convdiff_disc",
    description="Convection-diffusion D=1, v=(2,0), kappa=1 on the unit disc, "
                "u* = exp(x1)",
    operator=ConvectionDiffusion(diffusivity=1.0, velocity=(2.0, 0.0), reaction=1.0),
    domain=_unit_disc,
    exact=lambda x, y: np.exp(x),
    exact_gradient=lambda x, y: stack_xy(np.exp(x), 0.0),
    source=lambda x, y: 2.0 * np.exp(x),
))

# Disc of radius pi/2: with box_margin = 0.5 the embedding box is exactly
# [-pi, pi]^2, whose (1, 0) mode is resonant for k = 1 while the source
# concentrates exactly there. Demonstrates the resonance guard.
_register(ProblemPreset(
    name="helmholtz_resonant",
    description="Helmholtz k=1 on a disc of radius pi/2, f = cos(x1); with "
                "box_margin 0.5 the embedding box is resonant",
    operator=Helmholtz(1.0),
    domain=StarDomain(Circle(math.pi / 2.0)),
    exact=lambda x, y: 0.5 * x * np.sin(x),
    exact_gradient=lambda x, y: stack_xy(0.5 * (np.sin(x) + x * np.cos(x)), 0.0),
    source=lambda x, y: np.cos(x),
))
