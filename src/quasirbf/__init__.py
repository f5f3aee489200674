"""Meshfree 2D elliptic solver: spectral particular solutions on an
embedding box combined with boundary-knot collocation."""

from .bkm import (LU, TSVD, CollocationSystem, HomogeneousSolution,
                  SolveDiagnostics, assemble, eval_homogeneous,
                  eval_homogeneous_gradient, solve_dense)
from .errors import (ConfigurationError, DomainError, KernelOverflowError,
                     NumericalError, QuasiRbfError, RankDeficientWarning,
                     ResonantBoxError, SingularMatrixError,
                     UnsupportedOperatorError)
from .geometry import (BoundaryKnots, Box2, Circle, Ellipse, Star, StarDomain,
                       boundary_nodes, bounding_box, interior_eval_points)
from .operators import (ConvectionDiffusion, Helmholtz, ModifiedHelmholtz,
                        Poisson, apply_operator_fd, fourier_symbol,
                        kernel_gradient, kernel_value)
from .particular import (SourceGrid, SpectralField, TaperSpec, eval_particular,
                         eval_particular_gradient, extend_source,
                         solve_particular)
from .pipeline import (ConvergenceRow, InlineProblem, RunConfig, SolutionField,
                       convergence_study, error_metrics, residual_check,
                       rows_to_csv, run_pipeline)
from .presets import ProblemPreset, all_presets, get_preset, preset_names
from .specfun import bessel_i0, bessel_i0_i1, bessel_i1, bessel_j0, bessel_j1

__version__ = "0.1.0"
