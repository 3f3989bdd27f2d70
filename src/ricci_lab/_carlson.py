"""Carlson's symmetric elliptic integrals R_F and R_J by duplication.

One loop serves both integrals, because their duplication steps share
x, y and z (Carlson, "Numerical computation of real or complex elliptic
integrals", Numer. Algorithms 10 (1995); DLMF 19.36).  The arguments
broadcast against each other; scalars stay numpy scalars, which keeps a
single evaluation cheap.

Each duplication step of R_J adds 3 R_C(alpha^2, beta^2) with the positive
sums alpha = p (sqrt x + sqrt y + sqrt z) + sqrt(x y z) and
beta = sqrt p (p + lambda), so no step subtracts.  It is evaluated as
R_C(1, (beta/alpha)^2)/alpha, because squaring alpha and beta underflows
for arguments near 1e-160.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureFailure

__all__ = ["rf_rj", "rf_rj_unguarded"]

_EPS = np.finfo(float).eps / 2.0
# Carlson's stopping rule: iterate until 4^-m Q < |A_m|, Q = _Q * spread.
_Q_RF = (3.0 * _EPS) ** (-1.0 / 6.0)
_Q_RJ = (0.25 * _EPS) ** (-1.0 / 6.0)
# The spread of the arguments shrinks fourfold per step against their common
# limit, so a ratio of 1e300 between p and x, y, z takes about 500 steps; past
# 511 steps 4^-m would leave the normal range.
_MAX_STEPS = 511
# R_C(1, 1 - u) = sum_k u^k / (2k + 1) is used for |u| <= _SERIES_U, where
# the closed forms below turn into 0/0; three terms leave an error below
# u^3/7 = 1.5e-19.  Farther out the closed forms keep full accuracy: an
# error eps in u moves R_C by about eps/3.
_SERIES_U = 1e-6


def _rc_unit(r):
    """R_C(1, r^2) for r > 0: log for r < 1, atan for r > 1, series near 1."""
    u = (1.0 - r) * (1.0 + r)
    near = 1.0 + u * (1.0 / 3.0 + u / 5.0)
    s = np.sqrt(u)
    below = (np.log1p(s) - np.log(r)) / s
    w = np.sqrt((1.0 - 1.0 / r) * (1.0 + 1.0 / r))
    above = np.arctan(r * w) / (r * w)
    return np.where(abs(u) <= _SERIES_U, near,
                    np.where(np.real(r) < 1.0, below, above))


def _all(flags) -> bool:
    """flags.all() without the reduction machinery for a numpy scalar."""
    return bool(flags.all() if flags.ndim else flags)


def rf_rj(x, y, z, p):
    """(R_F(x, y, z), R_J(x, y, z, p)) for x, y, z >= 0 (at most one zero), p > 0.

    Raises QuadratureFailure, naming the argument, when one is NaN or inf;
    when the duplication does not converge within its step budget; or when
    a result is not finite (for example when the true value overflows).
    Never returns NaN, and numpy prints no floating-point warning.
    """
    with np.errstate(all="ignore"):
        return rf_rj_unguarded(x, y, z, p)


def rf_rj_unguarded(x, y, z, p):
    """rf_rj for a caller that holds np.errstate(all="ignore") already, so
    that one errstate also covers the arithmetic around the kernel call."""
    x, y, z, p = (np.asarray(v)[()] for v in (x, y, z, p))
    a0_f = (x + y + z) / 3.0
    a0_j = (x + y + z + 2.0 * p) / 5.0
    q_f = _Q_RF * np.maximum(np.maximum(abs(a0_f - x), abs(a0_f - y)),
                             abs(a0_f - z))
    q_j = _Q_RJ * np.maximum(np.maximum(abs(a0_j - x), abs(a0_j - y)),
                             np.maximum(abs(a0_j - z), abs(a0_j - p)))
    xm, ym, zm, pm, a_f, a_j = x, y, z, p, a0_f, a0_j
    alphas, betas = [], []
    scale = 1.0  # 4^-m
    for _ in range(_MAX_STEPS):
        if _all((scale * q_f < abs(a_f)) & (scale * q_j < abs(a_j))):
            break
        sx, sy, sz = np.sqrt(xm), np.sqrt(ym), np.sqrt(zm)
        lam = sx * sy + sx * sz + sy * sz
        # 4^m alpha_m and 4^m beta_m, so that term m is R_C(1, r^2)/alpha;
        # scaled before the products, which underflow late in a long run
        alphas.append((pm / scale) * (sx + sy + sz) + (sx * sy) * (sz / scale))
        betas.append(np.sqrt(pm) * ((pm + lam) / scale))
        xm = 0.25 * (xm + lam)
        ym = 0.25 * (ym + lam)
        zm = 0.25 * (zm + lam)
        pm = 0.25 * (pm + lam)
        a_f = 0.25 * (a_f + lam)
        a_j = 0.25 * (a_j + lam)
        scale *= 0.25
    else:
        # a NaN or inf argument never meets the stopping rule; it is
        # named here, off the converging path
        bad = [name for name, v in zip("xyzp", (x, y, z, p))
               if not _all(np.isfinite(v))]
        if bad:
            raise QuadratureFailure(
                f"Carlson integral got a non-finite argument "
                f"({', '.join(bad)})")
        raise QuadratureFailure(
            f"Carlson duplication did not converge in {_MAX_STEPS} steps")

    X = scale * (a0_f - x) / a_f
    Y = scale * (a0_f - y) / a_f
    Z = -(X + Y)
    e2 = X * Y - Z * Z
    e3 = X * Y * Z
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0
          - 3.0 * e2 * e3 / 44.0) / np.sqrt(a_f)

    X = scale * (a0_j - x) / a_j
    Y = scale * (a0_j - y) / a_j
    Z = scale * (a0_j - z) / a_j
    P = -(X + Y + Z) / 2.0
    xyz = X * Y * Z
    e2 = X * Y + X * Z + Y * Z - 3.0 * P * P
    e3 = xyz + 2.0 * e2 * P + 4.0 * P * P * P
    e4 = (2.0 * xyz + e2 * P + 3.0 * P * P * P) * P
    e5 = xyz * P * P
    # 4^-m A^-3/2 in this order: A^3/2 underflows for arguments near 1e-300
    rj = (scale / a_j) * (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0
                          + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0
                          - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0) / np.sqrt(a_j)
    if alphas:
        alpha, beta = np.array(alphas), np.array(betas)
        rj = rj + 3.0 * (_rc_unit(beta / alpha) / alpha).sum(axis=0)
    if not _all(np.isfinite(rf) & np.isfinite(rj)):
        raise QuadratureFailure(
            "Carlson integral is not finite (arguments out of range)")
    return rf, rj
