"""Exception hierarchy shared across the toolkit, and the finiteness guard
that raises into it."""

import math


class RicciLabError(Exception):
    """Base class for all toolkit errors."""


# --- precondition / domain failures -----------------------------------------

class DomainError(RicciLabError):
    """Input outside the declared domain of an operation."""


class DegenerateProfile(RicciLabError):
    """Warping function is non-positive where it must be positive."""


class InvalidScale(RicciLabError):
    """Metric rescaling factor must be strictly positive."""


class SignError(RicciLabError):
    """a, c, m must be nonzero and share one sign."""


class DegenerateLevel(RicciLabError):
    """Energy level sits on (or below) the window floor: constant orbit."""


class WindowError(RicciLabError):
    """Energy level at or above the admissible window's upper limit."""


class OutsideFamily(RicciLabError):
    """(c, m, ell) does not classify into the closed-form solution family."""


class RangeError(RicciLabError):
    """Parameter outside the open interval a map is defined on."""


class NotImmersible(RicciLabError):
    """Parameters admit no rotational realization in the 3-sphere."""


# --- numerical failures ------------------------------------------------------

class NonFiniteDerivative(RicciLabError):
    """Curvature derivatives or the Ricci residual are not finite."""


class QuadratureFailure(RicciLabError):
    """Adaptive quadrature could not meet tolerance within its budget."""


class BlowUp(RicciLabError):
    """Trajectory approached x = 0 closer than the guard."""


class StepFailure(RicciLabError):
    """ODE step controller stalled."""


class NoBracket(RicciLabError):
    """Root scan found no sign change at the requested resolution."""


class PoleSingularity(RicciLabError):
    """Stereographic projection evaluated at (or too near) the pole."""


class SeamMismatch(RicciLabError):
    """Profile curve endpoint does not wrap back to its start."""


class IoError(RicciLabError):
    """Mesh/table emission failed."""


def require_finite(**values) -> None:
    """Raise DomainError naming the first of values that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
