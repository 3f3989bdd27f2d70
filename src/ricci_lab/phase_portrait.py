"""Phase-portrait machinery for the profile equation f'' = m f^(1-a) - c f.

The second-order equation is analyzed through its first-order system
(x, y) = (f, f'), which is conservative with energy E = y^2/2 + P(x).
Periodic orbits live on compact level sets E = ell surrounding the unique
positive equilibrium, and their minimal period is computed two independent
ways: a turning-point quadrature and a return-map ODE integration.

SciPy is imported inside the functions that use it, so importing this
module (and the CLI, which imports it) loads numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BlowUp,
    DegenerateLevel,
    DomainError,
    QuadratureFailure,
    SignError,
    StepFailure,
    WindowError,
    require_finite,
)

__all__ = [
    "RicciParams",
    "EnergyWindow",
    "OrbitSample",
    "ConformalCheck",
    "potential",
    "energy",
    "admissible_energy_window",
    "turning_points",
    "period_integral",
    "integrate_orbit",
    "orbit_period_numeric",
    "conformal_profile_check",
]

# Degeneracy tolerance: levels this close to the window floor are routed to
# the constant solution (the period integral is ill-conditioned there).
DEGENERACY_TOL = 1e-14


def _check_signs(a: float, c: float, m: float) -> None:
    require_finite(a=a, c=c, m=m)
    if a == 0 or c == 0 or m == 0:
        raise SignError(f"a, c, m must be nonzero, got a={a}, c={c}, m={m}")
    if not (a * c > 0 and c * m > 0):
        raise SignError(f"a, c, m must share one sign, got a={a}, c={c}, m={m}")


def potential(a: float, c: float, m: float, x: float) -> float:
    """Potential P(x) of the conservative system; minimum at x* = (m/c)^(1/a)."""
    if x <= 0:
        raise DomainError(f"potential requires x > 0, got x={x}")
    if a == 2:
        return -m * math.log(x) + 0.5 * c * x * x
    return -m * x ** (2.0 - a) / (2.0 - a) + 0.5 * c * x * x


def _potential_derivs(a: float, c: float, m: float, x: float):
    """First four x-derivatives of P; the a = 2 log branch is the same formula."""
    p1 = -m * x ** (1.0 - a) + c * x
    p2 = -m * (1.0 - a) * x ** (-a) + c
    p3 = m * a * (1.0 - a) * x ** (-a - 1.0)
    p4 = -m * a * (1.0 - a) * (a + 1.0) * x ** (-a - 2.0)
    return p1, p2, p3, p4


def energy(a: float, c: float, m: float, x: float, y: float) -> float:
    """Conserved energy E(x, y) = y^2/2 + P(x)."""
    return 0.5 * y * y + potential(a, c, m, x)


@dataclass(frozen=True)
class EnergyWindow:
    """Open energy interval whose level sets are compact periodic orbits."""

    lower: float
    upper: float
    equilibrium: float

    def contains(self, ell: float) -> bool:
        return self.lower < ell < self.upper

    def is_degenerate(self, ell: float) -> bool:
        return ell <= self.lower + DEGENERACY_TOL * (1.0 + abs(self.lower))


def admissible_energy_window(a: float, c: float, m: float) -> EnergyWindow:
    """Energy window (P(x*), lim_{x->0} P(x)) for periodic orbits."""
    _check_signs(a, c, m)
    x_star = (m / c) ** (1.0 / a)
    lower = potential(a, c, m, x_star)
    upper = math.inf if a >= 2 else 0.0
    return EnergyWindow(lower=lower, upper=upper, equilibrium=x_star)


@dataclass(frozen=True)
class RicciParams:
    """Parameter chart (a, c, m, ell); validated against the energy window."""

    a: float
    c: float
    m: float
    ell: float

    def __post_init__(self):
        require_finite(ell=self.ell)
        win = admissible_energy_window(self.a, self.c, self.m)
        if self.ell >= win.upper:
            raise WindowError(
                f"ell={self.ell} at or above the window limit {win.upper}"
            )
        if self.ell < win.lower - DEGENERACY_TOL * (1.0 + abs(win.lower)):
            raise WindowError(f"ell={self.ell} below the window floor {win.lower}")

    @property
    def window(self) -> EnergyWindow:
        return admissible_energy_window(self.a, self.c, self.m)

    @property
    def degenerate(self) -> bool:
        """True when ell sits on the window floor (constant solution)."""
        return self.window.is_degenerate(self.ell)


def _checked_level(a, c, m, ell) -> EnergyWindow:
    require_finite(ell=ell)
    win = admissible_energy_window(a, c, m)
    if win.is_degenerate(ell):
        raise DegenerateLevel(f"ell={ell} on the window floor {win.lower}")
    if ell >= win.upper:
        raise WindowError(f"ell={ell} at or above the window limit {win.upper}")
    return win


def turning_points(a: float, c: float, m: float, ell: float):
    """Two positive roots x- < x* < x+ of P(x) = ell."""
    win = _checked_level(a, c, m, ell)
    x_star = win.equilibrium
    if a == 4:
        disc = math.sqrt(ell * ell - c * m)
        return (
            math.sqrt((ell - disc) / c),
            math.sqrt((ell + disc) / c),
        )

    from scipy.optimize import brentq

    def g(x):
        return potential(a, c, m, x) - ell

    lo = max(1e-12, x_star * 1e-6)
    while g(lo) <= 0 and lo > 1e-300:
        lo *= 0.1
    hi = 2.0 * x_star
    while g(hi) <= 0:
        hi *= 2.0
    x_minus = brentq(g, lo, x_star, xtol=1e-15, rtol=8.9e-16)
    x_plus = brentq(g, x_star, hi, xtol=1e-15, rtol=8.9e-16)
    return x_minus, x_plus


def _quad_checked(fn, lo, hi, *, epsabs=1e-12, epsrel=1e-10, limit=2000, points=None):
    if points is not None:
        points = [p for p in points if lo < p < hi]
        if not points:
            points = None
    from scipy.integrate import quad

    out = quad(fn, lo, hi, epsabs=epsabs, epsrel=epsrel, limit=limit,
               points=points, full_output=1)
    val, abserr = out[0], out[1]
    if len(out) > 3 or abserr > 100.0 * max(epsabs, epsrel * abs(val)):
        raise QuadratureFailure(
            f"quadrature on [{lo}, {hi}] reached error estimate {abserr}"
        )
    return val


def _gap_from_equilibrium(a, c, m, x_star, xi):
    """P(x* + xi) - P(x*) with the vanishing linear term cancelled analytically.

    Writing t = xi / x* and using m x*^(2-a) = c x*^2, the increment equals
    c x*^2 phi(t) with phi(t) = t + t^2/2 - ((1+t)^(2-a) - 1)/(2-a), whose
    Taylor coefficients follow the binomial recurrence below (the a = 2 log
    branch is the beta -> 0 limit of the same recurrence).
    """
    beta = 2.0 - a
    t = xi / x_star
    total = 0.5 * a * t * t
    coef = (beta - 1.0) / 2.0  # C(beta, 2)/beta
    tk = t * t
    for k in range(3, 60):
        coef *= (beta - k + 1.0) / k
        tk *= t
        term = -coef * tk
        total += term
        if abs(term) <= 1e-18 * abs(total):
            break
    return c * x_star * x_star * total


def period_integral(a: float, c: float, m: float, ell: float) -> float:
    """Minimal period T = sqrt(2) * int dx / sqrt(ell - P(x)) over one libration.

    Substituting x = x- + (x+ - x-)(1 - cos(phi))/2 removes the square-root
    endpoint singularities: the integrand becomes sqrt(2/Q(x)) with
    Q = (ell - P) / ((x - x-)(x+ - x)) smooth and positive.  Near the turning
    points ell - P is evaluated by a Taylor expansion to dodge cancellation;
    for levels just above the window floor the whole gap is evaluated through
    the equilibrium expansion for the same reason.
    """
    win = admissible_energy_window(a, c, m)
    x_minus, x_plus = turning_points(a, c, m, ell)
    delta = x_plus - x_minus
    gap_ell = ell - win.lower
    near_floor = delta < 0.05 * win.equilibrium

    def level_gap(x, d_minus, d_plus):
        # ell - P(x); d_minus = x - x-, d_plus = x+ - x (both >= 0)
        if d_minus < 1e-4 * delta:
            x0, d = x_minus, d_minus
        elif d_plus < 1e-4 * delta:
            x0, d = x_plus, -d_plus
        elif near_floor:
            return gap_ell - _gap_from_equilibrium(a, c, m, win.equilibrium,
                                                   x - win.equilibrium)
        else:
            return ell - potential(a, c, m, x)
        p1, p2, p3, p4 = _potential_derivs(a, c, m, x0)
        return -d * (p1 + d * (p2 / 2.0 + d * (p3 / 6.0 + d * p4 / 24.0)))

    def integrand(phi):
        sh = math.sin(0.5 * phi) ** 2
        ch = math.cos(0.5 * phi) ** 2
        d_minus = delta * sh
        d_plus = delta * ch
        x = x_minus + d_minus
        w = level_gap(x, d_minus, d_plus)
        return math.sqrt(2.0 * d_minus * d_plus / w)

    return _quad_checked(integrand, 0.0, math.pi)


@dataclass
class OrbitSample:
    """Time-stamped trajectory of the (f, f') system with an energy ledger."""

    s: np.ndarray
    x: np.ndarray
    y: np.ndarray
    energies: np.ndarray
    energy_drift: float
    n_steps: int
    rtol: float
    atol: float
    dense: object = field(repr=False, default=None)

    @property
    def steps(self):
        return list(zip(self.s, self.x, self.y))


def _orbit_ode(a, c, m, guard):
    """Right-hand side of x' = y, y' = m x^(1-a) - c x for solve_ivp, and the
    terminal event of x falling through the guard."""

    def rhs(_s, u):
        x = u[0]
        return (u[1], m * x ** (1.0 - a) - c * x)

    def hit_guard(_s, u):
        return u[0] - guard

    hit_guard.terminal = True
    hit_guard.direction = -1.0
    return rhs, hit_guard


def integrate_orbit(a, c, m, x0, y0, s_span, rtol=1e-11, atol=1e-11,
                    n_out=None, guard=1e-8) -> OrbitSample:
    """Adaptive DOP853 integration of x' = y, y' = m x^(1-a) - c x."""
    _check_signs(a, c, m)
    if x0 <= 0:
        raise DomainError(f"integrate_orbit requires x0 > 0, got {x0}")
    from scipy.integrate import solve_ivp

    rhs, hit_guard = _orbit_ode(a, c, m, guard)
    t_eval = np.linspace(s_span[0], s_span[1], n_out) if n_out else None
    sol = solve_ivp(rhs, s_span, (x0, y0), method="DOP853", rtol=rtol, atol=atol,
                    dense_output=True, events=hit_guard, t_eval=t_eval)
    if sol.status == 1:
        raise BlowUp(f"trajectory fell below the x > {guard} guard")
    if sol.status != 0:
        raise StepFailure(sol.message)

    xs, ys = sol.y
    e0 = energy(a, c, m, x0, y0)
    energies = 0.5 * ys * ys + np.array(
        [potential(a, c, m, xv) for xv in xs]
    )
    drift = float(np.max(np.abs(energies - e0))) if len(xs) else 0.0
    return OrbitSample(s=sol.t, x=xs, y=ys, energies=energies,
                       energy_drift=drift, n_steps=sol.t.size,
                       rtol=rtol, atol=atol, dense=sol.sol)


def orbit_period_numeric(a, c, m, ell, rtol=1e-11, atol=1e-11) -> float:
    """Period from the return map: first re-crossing of {y = 0, x > x*}.

    Independent of period_integral: starts at the bottom of the well moving
    left and times two successive downward crossings of y = 0 (which occur
    only at x = x+).
    """
    win = _checked_level(a, c, m, ell)
    from scipy.integrate import solve_ivp

    x_star = win.equilibrium
    y0 = -math.sqrt(2.0 * (ell - win.lower))
    rhs, hit_guard = _orbit_ode(a, c, m, 1e-8)

    def section(_s, u):
        return u[1]

    section.direction = -1.0

    span = 8.0 * 2.0 * math.pi / math.sqrt(a * c)
    for _ in range(8):
        sol = solve_ivp(rhs, (0.0, span), (x_star, y0), method="DOP853",
                        rtol=rtol, atol=atol, dense_output=True,
                        events=(section, hit_guard))
        if sol.status == 1:
            raise BlowUp("trajectory fell below the x > 1e-8 guard")
        if sol.status not in (0, 1):
            raise StepFailure(sol.message)
        crossings = sol.t_events[0]
        if crossings.size >= 2:
            return float(crossings[1] - crossings[0])
        span *= 4.0
    raise StepFailure("return-map crossings not found within the span budget")


@dataclass(frozen=True)
class ConformalCheck:
    """Residual of the conformal-coordinate ODE plus the m = c family flag."""

    max_residual: float
    delaunay_type: bool


def conformal_profile_check(params: RicciParams, n_grid: int = 512) -> ConformalCheck:
    """Verify y(v) = -log f(s(v)) solves y'' = c e^(-2y) - m e^((a-2)y).

    v is the conformal coordinate dv = ds / f.  y is differentiated twice in
    v by 4th-order central differences on a uniform v-grid obtained from the
    ODE ds/dv = f(s).
    """
    a, c, m, ell = params.a, params.c, params.m, params.ell
    delaunay = abs(m - c) <= 1e-12 * (1.0 + abs(c))

    if params.degenerate:
        # constant solution: y is constant and the residual is algebraic
        f0 = (m / c) ** (1.0 / a)
        y0 = -math.log(f0)
        res = abs(c * math.exp(-2.0 * y0) - m * math.exp((a - 2.0) * y0))
        return ConformalCheck(max_residual=res, delaunay_type=delaunay)

    from scipy.integrate import solve_ivp

    period = period_integral(a, c, m, ell)
    s_hi = 2.0 * period

    if a == 4 and c > 0:
        from . import spherical_family as sf

        sp = sf.SphericalParams(c=c, m=m, ell=ell)

        def f_of_s(s):
            return sf.f_closed(sp, s)[0]
    else:
        _, x_plus = turning_points(a, c, m, ell)
        orbit = integrate_orbit(a, c, m, x_plus, 0.0, (0.0, 1.05 * s_hi),
                                rtol=1e-12, atol=1e-12)

        def f_of_s(s):
            return float(orbit.dense(s)[0])

    v_total = _quad_checked(lambda s: 1.0 / f_of_s(s), 0.0, s_hi,
                            epsabs=1e-11, epsrel=1e-10)
    v_grid = np.linspace(0.0, v_total, n_grid)

    sol = solve_ivp(lambda _v, s: (f_of_s(s[0]),), (0.0, v_total), (0.0,),
                    method="DOP853", rtol=1e-12, atol=1e-12, t_eval=v_grid)
    if sol.status != 0:
        raise StepFailure(sol.message)
    s_of_v = sol.y[0]

    y = -np.log([f_of_s(s) for s in s_of_v])
    h = v_grid[1] - v_grid[0]
    ydd = (-y[:-4] + 16.0 * y[1:-3] - 30.0 * y[2:-2]
           + 16.0 * y[3:-1] - y[4:]) / (12.0 * h * h)
    yc = y[2:-2]
    rhs = c * np.exp(-2.0 * yc) - m * np.exp((a - 2.0) * yc)
    return ConformalCheck(max_residual=float(np.max(np.abs(ydd - rhs))),
                          delaunay_type=delaunay)
