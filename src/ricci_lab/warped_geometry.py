"""Warped rotationally symmetric metrics ds^2 + f(s)^2 dt^2.

Curvature of the warped chart is K = -f''/f; the rotationally invariant
Laplacian of an s-only function is u'' + (f'/f) u'.  The generalized Ricci
residual R = (K - c) Lap(K) - (K')^2 - (a K + b)(K - c)^2 is evaluated in one
array pass from closed-form derivatives when the profile carries them,
otherwise from per-point 4th-order central differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegenerateProfile,
    DomainError,
    InvalidScale,
    NonFiniteDerivative,
    require_finite,
)
from .phase_portrait import RicciParams

__all__ = [
    "RicciType",
    "MetricProfile",
    "TorusLattice",
    "ScalarProfile",
    "ResidualReport",
    "gaussian_curvature",
    "laplacian_rotinv",
    "ricci_residual",
    "rescale_params",
]

_EPS_CBRT = float(np.finfo(float).eps) ** (1.0 / 3.0)


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
    """Warping function with derivative evaluators on an open s-interval.

    f, df and d2f take one s.  derivs is optional: it takes an array of s and
    returns the arrays (f, f', f'', f''', f''''); when present the Ricci
    residual is closed-form instead of finite-differenced.
    """

    f: Callable[[float], float]
    df: Callable[[float], float]
    d2f: Callable[[float], float]
    domain: tuple
    provenance: str = "closed-form"
    derivs: Optional[Callable[[np.ndarray], tuple]] = None

    def check_point(self, s: float) -> float:
        lo, hi = self.domain
        if not (lo < s < hi):
            raise DomainError(f"s={s} outside domain ({lo}, {hi})")
        fv = self.f(s)
        if fv <= 0:
            raise DegenerateProfile(f"f({s}) = {fv} <= 0")
        return fv


@dataclass(frozen=True)
class TorusLattice:
    """Lattice (T, gamma1) Z + (0, gamma2) Z carrying the metric."""

    T: float
    gamma1: float
    gamma2: float

    def __post_init__(self):
        if self.T <= 0:
            raise DomainError(f"fundamental period must be positive, got {self.T}")
        if self.gamma2 == 0:
            raise DomainError("gamma2 must be nonzero")


@dataclass(frozen=True)
class ScalarProfile:
    """An s-only scalar with first and second derivative evaluators."""

    u: Callable[[float], float]
    du: Callable[[float], float]
    d2u: Callable[[float], float]


def gaussian_curvature(profile: MetricProfile, s: float) -> float:
    """K(s) = -f''(s) / f(s)."""
    fv = profile.check_point(s)
    return -profile.d2f(s) / fv


def laplacian_rotinv(profile: MetricProfile, u: ScalarProfile, s: float) -> float:
    """Laplacian of an s-only function: u'' + (f'/f) u'."""
    fv = profile.check_point(s)
    return u.d2u(s) + (profile.df(s) / fv) * u.du(s)


def _fd_step(s: float) -> float:
    return max(1e-5, _EPS_CBRT * (1.0 + abs(s)))


def _curvature_derivs(profile: MetricProfile, s: float):
    """(K, K', Lap K) at s from 4th-order central differences of K."""
    fv = profile.check_point(s)
    h = _fd_step(s)
    lo, hi = profile.domain
    if not (lo < s - 2.0 * h and s + 2.0 * h < hi):
        raise NonFiniteDerivative(
            f"finite-difference stencil around s={s} leaves the domain"
        )
    kv = [gaussian_curvature(profile, s + k * h) for k in (-2, -1, 0, 1, 2)]
    k1 = (kv[0] - 8.0 * kv[1] + 8.0 * kv[3] - kv[4]) / (12.0 * h)
    k2 = (-kv[0] + 16.0 * kv[1] - 30.0 * kv[2] + 16.0 * kv[3] - kv[4]) / (
        12.0 * h * h)
    if not (math.isfinite(k1) and math.isfinite(k2)):
        raise NonFiniteDerivative(f"non-finite curvature derivative at s={s}")
    return kv[2], k1, k2 + (profile.df(s) / fv) * k1


def _closed_form_curvature(profile: MetricProfile, s: np.ndarray):
    """(K, K', Lap K) on the whole grid from one call of profile.derivs."""
    lo, hi = profile.domain
    outside = ~((lo < s) & (s < hi))
    if outside.any():
        raise DomainError(f"s={s[outside][0]} outside domain ({lo}, {hi})")
    f, f1, f2, f3, f4 = profile.derivs(s)
    if np.any(f <= 0):
        i = np.argmax(f <= 0)
        raise DegenerateProfile(f"f({s[i]}) = {f[i]} <= 0")
    k = -f2 / f
    k1 = -f3 / f + f2 * f1 / f**2
    k2 = (-f4 / f + 2.0 * f3 * f1 / f**2 + f2**2 / f**2
          - 2.0 * f2 * f1**2 / f**3)
    return k, k1, k2 + (f1 / f) * k1


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
    acceptance threshold is scale-free.
    """
    a, b, c = rtype.a, rtype.b, rtype.c
    s_grid = np.asarray(s_grid, dtype=float)
    if s_grid.ndim != 1 or s_grid.size == 0:
        raise DomainError(f"ricci_residual needs a non-empty 1-D grid, got "
                          f"shape {s_grid.shape}")
    if profile.derivs is not None:
        k, k1, lap_k = _closed_form_curvature(profile, s_grid)
    else:
        k, k1, lap_k = np.array(
            [_curvature_derivs(profile, s) for s in s_grid]).T
    gap = k - c
    residuals = gap * lap_k - k1 * k1 - (a * k + b) * gap * gap
    gap_max = float(np.max(np.abs(gap)))
    scale = max(1.0, gap_max, gap_max**3)
    return ResidualReport(residuals=residuals,
                          max_normalized=float(np.max(np.abs(residuals)) / scale),
                          scale=scale)


def rescale_params(params: RicciParams, eta: float) -> RicciParams:
    """Parameter image of metric scaling by eta with arclength s~ = sqrt(eta) s.

    (a, c, m, ell) -> (a, c/eta, m eta^((a-2)/2), ell); the energy level and
    the admissibility classification are preserved.
    """
    if eta <= 0:
        raise InvalidScale(f"eta must be positive, got {eta}")
    return RicciParams(
        a=params.a,
        c=params.c / eta,
        m=params.m * eta ** ((params.a - 2.0) / 2.0),
        ell=params.ell,
    )
