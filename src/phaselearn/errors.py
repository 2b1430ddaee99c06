"""Exception hierarchy shared across the package."""


class PhaselearnError(Exception):
    """Base class for all package errors."""


class ConfigError(PhaselearnError):
    """Malformed or inconsistent experiment configuration."""


class PlanInfeasibleError(PhaselearnError):
    """The prescribed sample count overflows the desk-scale guard (2**63).

    Carries the base-2 exponent of the prescribed N so callers can report
    how far out of reach the run is.
    """

    def __init__(self, log2_n: float):
        self.log2_n = log2_n
        super().__init__(f"plan infeasible: prescribed N ~ 2**{log2_n:.1f} exceeds 2**63")


class NumericalError(PhaselearnError):
    """Integrator underflow, NaN contamination, or failed convergence."""


class DegenerateSteadyStateError(PhaselearnError):
    """The generator kernel is more than one-dimensional; no unique fixed point."""


class EmptyCellError(PhaselearnError):
    """No training samples fall in the requested parameter cell."""
