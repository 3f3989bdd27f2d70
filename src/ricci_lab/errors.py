"""Exception hierarchy shared across the toolkit, and the finiteness guard
that raises into it."""

import math


class RicciLabError(Exception):
    """Base class for all toolkit errors; the command line exits with
    exit_code and prints prefix before the message (README, "Exit codes")."""

    exit_code = 3
    prefix = "error"


class PreconditionError(RicciLabError):
    """Input outside what an operation accepts."""

    exit_code = 2
    prefix = "precondition failure"


class NumericalError(RicciLabError):
    """A computation on admissible input failed."""

    prefix = "numerical failure"


class DomainError(PreconditionError):
    """Input outside the declared domain of an operation."""


class DegenerateProfile(PreconditionError):
    """Warping function is non-positive where it must be positive."""


class InvalidScale(PreconditionError):
    """Metric rescaling factor must be strictly positive."""


class SignError(PreconditionError):
    """a, c, m must be nonzero and share one sign."""


class DegenerateLevel(PreconditionError):
    """Energy level sits on (or below) the window floor: constant orbit."""


class WindowError(PreconditionError):
    """Energy level at or above the admissible window's upper limit."""


class OutsideFamily(PreconditionError):
    """(c, m, ell) does not classify into the closed-form solution family."""


class RangeError(PreconditionError):
    """Parameter outside the open interval a map is defined on."""


class NotImmersible(PreconditionError):
    """Parameters admit no rotational realization in the 3-sphere."""


class NonFiniteDerivative(NumericalError):
    """Curvature derivatives or the Ricci residual are not finite."""


class QuadratureFailure(NumericalError):
    """Adaptive quadrature could not meet tolerance within its budget."""


class BlowUp(NumericalError):
    """Trajectory approached x = 0 closer than the guard."""


class StepFailure(NumericalError):
    """ODE step controller stalled."""


class NoBracket(NumericalError):
    """Root scan found no sign change at the requested resolution."""


class PoleSingularity(NumericalError):
    """Stereographic projection evaluated at (or too near) the pole."""


class SeamMismatch(NumericalError):
    """Profile curve endpoint does not wrap back to its start."""


class IoError(RicciLabError):
    """Mesh/table emission failed."""

    exit_code = 74
    prefix = "output failure"


def require_finite(**values) -> None:
    """Raise DomainError naming the first of values that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
