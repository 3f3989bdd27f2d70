"""Warped rotationally symmetric metrics ds^2 + f(s)^2 dt^2.

A profile is its derivs: one call maps an array of s to the arrays
(f, f', f'', f''', f'''').  Curvature of the warped chart is K = -f''/f; the
rotationally invariant Laplacian of an s-only function is u'' + (f'/f) u'.
The generalized Ricci residual R = (K - c) Lap(K) - (K')^2 - (a K + b)(K - c)^2
is evaluated in one array pass from those closed-form derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import (
    DegenerateProfile,
    DomainError,
    InvalidScale,
    NonFiniteDerivative,
    require_finite,
)

if TYPE_CHECKING:
    from .phase_portrait import RicciParams

__all__ = [
    "RicciType",
    "MetricProfile",
    "ResidualReport",
    "gaussian_curvature",
    "laplacian_rotinv",
    "ricci_residual",
    "rescale_params",
]


@dataclass(frozen=True)
class RicciType:
    """Type triple (a, b, c); every constructor here keeps b = 0."""

    a: float
    c: float
    b: float = 0.0

    def __post_init__(self):
        require_finite(a=self.a, b=self.b, c=self.c)


@dataclass(frozen=True)
class MetricProfile:
    """Warping function f > 0 on an open s-interval, given by its derivatives.

    derivs takes a scalar or an array of s and returns the values of
    (f, f', f'', f''', f'''') there.
    """

    derivs: Callable[[np.ndarray], tuple]
    domain: tuple = (-math.inf, math.inf)


def _checked_derivs(profile: MetricProfile, s):
    """profile.derivs(s), after checking s against the domain and f > 0."""
    s = np.asarray(s, dtype=float)
    lo, hi = profile.domain
    outside = ~((lo < s) & (s < hi))
    if outside.any():
        raise DomainError(f"s={s[outside][0]} outside domain ({lo}, {hi})")
    f, f1, f2, f3, f4 = profile.derivs(s)
    bad = np.flatnonzero(f <= 0)
    if bad.size:
        i = bad[0]
        raise DegenerateProfile(f"f({s.flat[i]}) = {np.ravel(f)[i]} <= 0")
    return f, f1, f2, f3, f4


def _curvature(f, f2):
    """K = -f''/f."""
    return -f2 / f


def _laplacian(f, f1, du, d2u):
    """Laplacian of an s-only function: u'' + (f'/f) u'."""
    return d2u + (f1 / f) * du


def gaussian_curvature(profile: MetricProfile, s):
    """K(s) = -f''(s) / f(s) at a scalar or an array of s."""
    f, _, f2, _, _ = _checked_derivs(profile, s)
    return _curvature(f, f2)


def laplacian_rotinv(profile: MetricProfile, s, du, d2u):
    """Laplacian u'' + (f'/f) u' of an s-only function u at a scalar or an
    array of s, from its derivatives du = u'(s) and d2u = u''(s)."""
    f, f1, _, _, _ = _checked_derivs(profile, s)
    return _laplacian(f, f1, du, d2u)


@dataclass(frozen=True)
class ResidualReport:
    """Pointwise Ricci residuals and their scale-free maximum."""

    residuals: np.ndarray
    max_normalized: float
    scale: float


def ricci_residual(profile: MetricProfile, rtype: RicciType,
                   s_grid) -> ResidualReport:
    """Residual of (K - c) Lap(K) - (K')^2 - (a K + b)(K - c)^2 on a grid.

    Normalized by max over the grid of (1, |K - c|, |K - c|^3) so the
    acceptance threshold is scale-free.  A residual or scale that is not
    finite (the derivatives overflow) raises NonFiniteDerivative.
    """
    a, b, c = rtype.a, rtype.b, rtype.c
    s_grid = np.asarray(s_grid, dtype=float)
    if s_grid.ndim != 1 or s_grid.size == 0:
        raise DomainError(f"ricci_residual needs a non-empty 1-D grid, got "
                          f"shape {s_grid.shape}")
    # overflow is reported by the finiteness check below, not as a warning
    with np.errstate(all="ignore"):
        f, f1, f2, f3, f4 = _checked_derivs(profile, s_grid)
        k = _curvature(f, f2)
        k1 = -f3 / f + f2 * f1 / f**2
        k2 = (-f4 / f + 2.0 * f3 * f1 / f**2 + f2**2 / f**2
              - 2.0 * f2 * f1**2 / f**3)
        gap = k - c
        residuals = (gap * _laplacian(f, f1, k1, k2) - k1 * k1
                     - (a * k + b) * gap * gap)
    if not np.all(np.isfinite(residuals)):
        i = np.argmin(np.isfinite(residuals))
        raise NonFiniteDerivative(f"non-finite Ricci residual at s={s_grid[i]}")
    gap_max = float(np.max(np.abs(gap)))
    try:
        scale = max(1.0, gap_max, gap_max**3)
    except OverflowError:
        raise NonFiniteDerivative(
            f"residual scale |K - c|^3 overflows at |K - c| = {gap_max}"
        ) from None
    return ResidualReport(residuals=residuals,
                          max_normalized=float(np.max(np.abs(residuals)) / scale),
                          scale=scale)


def rescale_params(params: RicciParams, eta: float) -> RicciParams:
    """Parameter image of metric scaling by eta with arclength s~ = sqrt(eta) s.

    (a, c, m, ell) -> (a, c/eta, m eta^((a-2)/2), ell); the energy level and
    the admissibility classification are preserved.
    """
    from .phase_portrait import RicciParams

    if eta <= 0:
        raise InvalidScale(f"eta must be positive, got {eta}")
    return RicciParams(
        a=params.a,
        c=params.c / eta,
        m=params.m * eta ** ((params.a - 2.0) / 2.0),
        ell=params.ell,
    )
