"""Exception hierarchy shared across the package."""


class PhaselearnError(Exception):
    """Base class for all package errors."""


class ConfigError(PhaselearnError):
    """Malformed or inconsistent experiment configuration."""


class PlanInfeasibleError(PhaselearnError):
    """The prescription yields no usable sample count: the targets and
    constants sit outside its regime, or N overflows the desk-scale guard.

    On overflow ``log2_n`` carries the base-2 exponent of the prescribed N, so
    callers can report how far out of reach the run is; otherwise it is None.
    """

    def __init__(self, message: str, log2_n: float | None = None):
        self.log2_n = log2_n
        super().__init__(message)


class NumericalError(PhaselearnError):
    """Integrator underflow, NaN contamination, or failed convergence."""


class DegenerateSteadyStateError(PhaselearnError):
    """The generator kernel is more than one-dimensional; no unique fixed point."""


class EmptyCellError(PhaselearnError):
    """No training samples fall in the requested parameter cell."""
