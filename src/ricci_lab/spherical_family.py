"""Closed-form a = 4 solution family and its parameter geography.

For c > 0 and (m, ell) with m > 0, ell > sqrt(c m), the warping function

    f(s) = sqrt((ell + sqrt(ell^2 - c m) sin(2 sqrt(c) s)) / c)

is a positive (pi/sqrt(c))-periodic solution of
(f')^2 + c f^2 + m f^(-2) = 2 ell.  This module classifies parameters,
evaluates f and its derivatives, the curvature range, the isometry-class
invariants, and the special sub-families (minimal, Delaunay, constant).
numpy is imported only by the array evaluators, so classification and the
minimal-slice map run without it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .errors import DomainError, OutsideFamily, RangeError, require_finite

if TYPE_CHECKING:
    from .warped_geometry import MetricProfile

__all__ = [
    "Classification",
    "SphericalParams",
    "CurvatureRange",
    "Verdict",
    "IsometryVerdict",
    "classify",
    "f_closed",
    "f_derivs",
    "metric_profile",
    "edo_residual",
    "curvature_range",
    "nonisometry_certificate",
    "delaunay_parameters",
    "minimal_params",
    "minimal_modulus",
]

BOUNDARY_TOL = 1e-14
# Power of two that rescales ell^2 and c m exactly when either overflows.
_RESCALE = 2.0 ** -600


class Classification(enum.Enum):
    INTERIOR_LAMBDA = "InteriorLambda"
    INTERIOR_LAMBDA_PRIME = "InteriorLambdaPrime"
    BOUNDARY_CONSTANT = "BoundaryConstant"
    OUTSIDE = "Outside"


def classify(c: float, m: float, ell: float) -> Classification:
    """Admissibility classification of (m, ell) for fixed c > 0.

    m <= 0 is Outside by convention: the m = 0 solution develops cusps.
    """
    # inline rather than require_finite: theta' reclassifies at every sample
    if not (math.isfinite(c) and math.isfinite(m) and math.isfinite(ell)):
        raise DomainError(f"classify needs finite c, m, ell, got {c}, {m}, {ell}")
    if c <= 0:
        raise DomainError(f"classify requires c > 0, got c={c}")
    if m <= 0 or ell <= 0:
        return Classification.OUTSIDE
    ell_sq, cm = ell * ell, c * m
    if math.isinf(ell_sq) or math.isinf(cm):
        # the same test on values scaled by a power of two, exact since c m
        # overflows only when c and m exceed 1
        ell_sq = (ell * _RESCALE) * (ell * _RESCALE)
        cm = (c * _RESCALE) * (m * _RESCALE)
    disc = ell_sq - cm
    # the rounding error of ell^2 - c m is relative to ell^2 + c m
    if abs(disc) <= BOUNDARY_TOL * (ell_sq + cm):
        return Classification.BOUNDARY_CONSTANT
    if disc < 0:
        return Classification.OUTSIDE
    if m < 1.0 / c and ell < (c * m + 1.0) / 2.0:
        return Classification.INTERIOR_LAMBDA_PRIME
    return Classification.INTERIOR_LAMBDA


@dataclass(frozen=True)
class SphericalParams:
    """Parameters (c, m, ell) of one member of the family."""

    c: float
    m: float
    ell: float

    def __post_init__(self):
        require_finite(c=self.c, m=self.m, ell=self.ell)
        if self.c <= 0:
            raise DomainError(f"c must be positive, got {self.c}")

    @property
    def classification(self) -> Classification:
        return classify(self.c, self.m, self.ell)

    @property
    def amplitude(self) -> float:
        """sqrt(ell^2 - c m), clamped to 0 on the constant boundary."""
        return math.sqrt(max(self.ell * self.ell - self.c * self.m, 0.0))

    @property
    def period(self) -> float:
        return math.pi / math.sqrt(self.c)

    @property
    def f_sq_min(self) -> float:
        return (self.ell - self.amplitude) / self.c

    @property
    def f_sq_max(self) -> float:
        return (self.ell + self.amplitude) / self.c


_VALID = (
    Classification.INTERIOR_LAMBDA,
    Classification.INTERIOR_LAMBDA_PRIME,
    Classification.BOUNDARY_CONSTANT,
)


def _require_family(params: SphericalParams) -> Classification:
    cls = params.classification
    if cls not in _VALID:
        raise OutsideFamily(
            f"(c={params.c}, m={params.m}, ell={params.ell}) is outside the family"
        )
    return cls


def f_derivs(params: SphericalParams, s):
    """f and its first four derivatives via g = f^2 (a shifted sinusoid)."""
    import numpy as np

    _require_family(params)
    c, ell = params.c, params.ell
    amp = params.amplitude
    w = 2.0 * math.sqrt(c)
    ph = w * np.asarray(s, dtype=float)
    g = (ell + amp * np.sin(ph)) / c
    g1 = amp * w * np.cos(ph) / c
    g2 = -w * w * (g - ell / c)
    g3 = -w * w * g1
    g4 = -w * w * g2

    f = np.sqrt(g)
    f1 = g1 / (2.0 * f)
    f2 = g2 / (2.0 * f) - g1**2 / (4.0 * g * f)
    f3 = (g3 / (2.0 * f) - 0.75 * g1 * g2 / (g * f)
          + 0.375 * g1**3 / (g * g * f))
    f4 = (g4 / (2.0 * f) - (g1 * g3 + 0.75 * g2**2) / (g * f)
          + 2.25 * g1**2 * g2 / (g * g * f)
          - 0.9375 * g1**4 / (g**3 * f))
    return f, f1, f2, f3, f4


def f_closed(params: SphericalParams, s):
    """(f, f', f'') of the closed-form periodic solution."""
    f, f1, f2, _, _ = f_derivs(params, s)
    return f, f1, f2


def metric_profile(params: SphericalParams) -> MetricProfile:
    """Closed-form MetricProfile; its derivs is one f_derivs call per grid."""
    from . import warped_geometry as wg

    _require_family(params)
    # f_derivs is looked up at each call, so a wrapper set on the module
    # attribute sees every one
    return wg.MetricProfile(derivs=lambda s: f_derivs(params, s))


def edo_residual(params: SphericalParams, s_grid) -> float:
    """max |(f')^2 + c f^2 + m f^(-2) - 2 ell| over the grid."""
    import numpy as np

    f, f1, _ = f_closed(params, np.asarray(s_grid, dtype=float))
    res = f1 * f1 + params.c * f * f + params.m / (f * f) - 2.0 * params.ell
    return float(np.max(np.abs(res)))


@dataclass(frozen=True)
class CurvatureRange:
    """Endpoints of the range of (c - K): 0 < L1 <= L2."""

    L1: float
    L2: float


def curvature_range(params: SphericalParams) -> CurvatureRange:
    """Range of c - K = m f^(-4): L_i = m c^2 / (ell +- sqrt(ell^2 - c m))^2."""
    cls = _require_family(params)
    c, m, ell = params.c, params.m, params.ell
    if cls is Classification.BOUNDARY_CONSTANT:
        flat = m * c * c / (ell * ell)
        return CurvatureRange(L1=flat, L2=flat)
    amp = params.amplitude
    return CurvatureRange(
        L1=m * c * c / (ell + amp) ** 2,
        L2=m * c * c / (ell - amp) ** 2,
    )


class Verdict(enum.Enum):
    NON_ISOMETRIC = "NonIsometric"
    SAME_PARAMETERS = "SameParameters"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class IsometryVerdict:
    verdict: Verdict
    witness: Optional[str] = None


def nonisometry_certificate(c: float, p1: SphericalParams,
                            p2: SphericalParams) -> IsometryVerdict:
    """Distinguish metrics by the curvature-range endpoints (Gauss-invariant)
    and the scaling relation sqrt(m1) ell2 = sqrt(m2) ell1."""
    for p in (p1, p2):
        if classify(c, p.m, p.ell) not in (
            Classification.INTERIOR_LAMBDA,
            Classification.INTERIOR_LAMBDA_PRIME,
        ):
            raise OutsideFamily(f"(m={p.m}, ell={p.ell}) is not interior")
    if (abs(p1.m - p2.m) <= 1e-12 * (1.0 + abs(p1.m))
            and abs(p1.ell - p2.ell) <= 1e-12 * (1.0 + abs(p1.ell))):
        return IsometryVerdict(Verdict.SAME_PARAMETERS)

    r1 = curvature_range(SphericalParams(c=c, m=p1.m, ell=p1.ell))
    r2 = curvature_range(SphericalParams(c=c, m=p2.m, ell=p2.ell))
    if abs(r1.L1 - r2.L1) > 1e-10 * max(r1.L1, r2.L1):
        return IsometryVerdict(Verdict.NON_ISOMETRIC,
                               witness=f"L1 differs: {r1.L1} vs {r2.L1}")
    if abs(r1.L2 - r2.L2) > 1e-10 * max(r1.L2, r2.L2):
        return IsometryVerdict(Verdict.NON_ISOMETRIC,
                               witness=f"L2 differs: {r1.L2} vs {r2.L2}")
    lhs = math.sqrt(p1.m) * p2.ell
    rhs = math.sqrt(p2.m) * p1.ell
    if abs(lhs - rhs) > 1e-10 * max(abs(lhs), abs(rhs)):
        return IsometryVerdict(
            Verdict.NON_ISOMETRIC,
            witness=f"sqrt(m1) ell2 = {lhs} != sqrt(m2) ell1 = {rhs}",
        )
    return IsometryVerdict(Verdict.INCONCLUSIVE)


def delaunay_parameters(params: SphericalParams):
    """(B, H) with B^2 = 4 ell - 1, H^2 = c when 4 c m = (1 - 2 ell)^2.

    Returns None off the Delaunay locus and on non-interior parameters.
    """
    if params.classification not in (Classification.INTERIOR_LAMBDA,
                                     Classification.INTERIOR_LAMBDA_PRIME):
        return None
    c, m, ell = params.c, params.m, params.ell
    lhs = 4.0 * c * m
    rhs = (1.0 - 2.0 * ell) ** 2
    if abs(lhs - rhs) <= 1e-12 * (1.0 + rhs) and 4.0 * ell > 1.0:
        return (math.sqrt(4.0 * ell - 1.0), math.sqrt(c))
    return None


def minimal_params(c: float, j: float):
    """Minimal-surface modulus j in (0,1) -> (m, ell) = ((1-j^2)/(4c), 1/2)."""
    require_finite(c=c, j=j)
    if not 0.0 < j < 1.0:
        raise RangeError(f"j must lie in (0, 1), got {j}")
    if c <= 0:
        raise DomainError(f"c must be positive, got {c}")
    return ((1.0 - j * j) / (4.0 * c), 0.5)


def minimal_modulus(c: float, m: float) -> float:
    """Inverse map: (m, ell=1/2) with m in (0, 1/(4c)) -> j = sqrt(1 - 4cm)."""
    require_finite(c=c, m=m)
    if c <= 0:
        raise DomainError(f"c must be positive, got {c}")
    if not 0.0 < m < 1.0 / (4.0 * c):
        raise RangeError(f"m must lie in (0, 1/(4c)) = (0, {1.0 / (4 * c)}), got {m}")
    return math.sqrt(1.0 - 4.0 * c * m)
