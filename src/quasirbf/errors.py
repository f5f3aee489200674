"""Exception hierarchy shared by all solver modules."""


class QuasiRbfError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(QuasiRbfError):
    """A run configuration or module precondition is violated.

    Maps to CLI exit code 2.
    """


class DomainError(QuasiRbfError, ValueError):
    """An argument lies outside the mathematical domain of an operation
    (non-finite input, point outside the embedding box, ...)."""


class UnsupportedOperatorError(QuasiRbfError):
    """The requested operation is not defined for this operator variant."""


class NumericalError(QuasiRbfError):
    """A numerical failure during the solve. Maps to CLI exit code 3."""


class ResonantBoxError(NumericalError):
    """A Fourier mode of the embedding box is (near-)resonant for the
    Helmholtz operator and carries non-negligible source energy."""


class SingularMatrixError(NumericalError):
    """LU factorization hit an exactly singular collocation matrix."""


class KernelOverflowError(NumericalError, OverflowError):
    """A kernel's Bessel function is asked for a value beyond double
    precision (its argument mu r exceeds the function's overflow limit)."""


class RankDeficientWarning(RuntimeWarning):
    """A dense solve inverted a singular value at or below the rounding
    floor s_max eps N, so its coefficients are dominated by amplified
    rounding noise."""
