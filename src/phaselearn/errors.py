"""Exception hierarchy shared across the package."""


class PhaselearnError(Exception):
    """Base class for all package errors."""


class ConfigError(PhaselearnError):
    """Malformed or inconsistent experiment configuration."""


class PlanInfeasibleError(PhaselearnError):
    """The prescription yields no usable sample count: the targets and
    constants sit outside its regime, or N overflows the desk-scale guard
    (the message then gives the base-2 exponent of the prescribed N)."""


class NumericalError(PhaselearnError):
    """Integrator underflow, a certified envelope that overflows, NaN
    contamination, or failed convergence."""


class DegenerateSteadyStateError(PhaselearnError):
    """The generator kernel is more than one-dimensional; no unique fixed point."""


class EmptyCellError(PhaselearnError):
    """No training samples fall in the requested parameter cell."""
