"""Phase-portrait machinery for the profile equation f'' = m f^(1-a) - c f.

The second-order equation is analyzed through its first-order system
(x, y) = (f, f'), which is conservative with energy E = y^2/2 + P(x).
Periodic orbits live on compact level sets E = ell surrounding the unique
positive equilibrium, and their minimal period is computed two independent
ways: a turning-point quadrature and a return-map ODE integration.

Both routes are in this module and run on Python floats; numpy is imported
only by the functions that return arrays (`integrate_orbit`, the dense
output's `__call__` and `conformal_profile_check`). The quadrature is the
periodic midpoint rule (Trefethen and Weideman, SIAM Review 56 (2014)); the
ODE integrator is the Dormand-Prince 5(4) pair with step-size control and
Shampine's quartic dense output (Dormand and Prince, J. Comput. Appl. Math.
6 (1980)). The tests check both against mpmath and against SciPy's `quad`
and DOP853.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

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

if TYPE_CHECKING:
    import numpy as np

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
    try:
        return -m * x ** (2.0 - a) / (2.0 - a) + 0.5 * c * x * x
    except OverflowError:  # x^(2-a) beyond the float range dominates P
        return math.copysign(math.inf, -m / (2.0 - a))


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

    def is_degenerate(self, ell: float) -> bool:
        return ell <= self.lower + DEGENERACY_TOL * (1.0 + abs(self.lower))


def admissible_energy_window(a: float, c: float, m: float) -> EnergyWindow:
    """Energy window (P(x*), lim_{x->0} P(x)) for periodic orbits."""
    _check_signs(a, c, m)
    try:
        x_star = (m / c) ** (1.0 / a)
    except (OverflowError, ZeroDivisionError):  # m/c or x* not a float
        x_star = math.nan
    lower = potential(a, c, m, x_star) if 0.0 < x_star < math.inf else math.nan
    if not math.isfinite(lower):
        raise DomainError(f"the equilibrium (m/c)^(1/a) or its energy is out of "
                          f"the float range for a={a}, c={c}, m={m}")
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
        # x-^2 = (ell - disc)/c cancels; x-^2 x+^2 = m/c gives it stably
        disc = math.sqrt(ell * ell - c * m)
        return math.sqrt(m / (ell + disc)), math.sqrt((ell + disc) / c)

    def g(x):
        return potential(a, c, m, x) - ell

    def dg(x):
        try:
            return -m * x ** (1.0 - a) + c * x
        except OverflowError:
            return math.inf

    lo = max(1e-12, x_star * 1e-6)
    while g(lo) <= 0 and lo > 1e-300:
        lo *= 0.1
    hi = 2.0 * x_star
    while g(hi) <= 0:
        hi *= 2.0
    return _monotone_root(g, dg, lo, x_star), _monotone_root(g, dg, x_star, hi)


def _monotone_root(g, dg, lo, hi):
    """Root of g on [lo, hi], where g is monotone and changes sign.

    Newton steps, each replaced by a bisection when it would leave the
    bracket or fails to halve the previous step; the bracket shrinks with
    every evaluation. Stops when the step or the bracket is within a few
    ulp of the root.
    """
    g_lo = g(lo)
    x = 0.5 * (lo + hi)
    dx_old = hi - lo
    for _ in range(200):
        gx = g(x)
        if gx == 0.0:
            return x
        if (gx > 0.0) == (g_lo > 0.0):
            lo = x
        else:
            hi = x
        slope = dg(x)
        step = gx / slope if 0.0 < abs(slope) < math.inf else math.inf
        if lo < x - step < hi and abs(step) <= 0.5 * abs(dx_old):
            dx_old, x = step, x - step
        else:
            dx_old, x = 0.5 * (hi - lo), 0.5 * (lo + hi)
        if abs(dx_old) <= 4e-16 * x or hi - lo <= 4e-16 * x:
            return x
    return x


# Midpoint sums of a smooth periodic integrand converge geometrically until
# rounding takes over. A difference that stops shrinking is taken for that
# rounding floor only when it is already this small (relative), so that an
# early, unresolved wobble is not.
_MIDPOINT_STALL = 1e-8
_MIDPOINT_MAX_N = 1 << 14


def _periodic_midpoint(fn, length, rtol=1e-13):
    """Integral of fn over [0, length] by midpoint sums at N = 8, 16, 32, ...

    fn must extend to a smooth length-periodic function: a whole period, or
    half a period of an even function. Stops when two successive sums agree
    to rtol, or when their difference stops shrinking below
    _MIDPOINT_STALL; raises QuadratureFailure when the budget runs out.
    """
    total, diff_old = None, math.inf
    n = 8
    while n <= _MIDPOINT_MAX_N:
        h = length / n
        new = math.fsum(fn((j + 0.5) * h) for j in range(n)) * h
        if not math.isfinite(new):
            raise QuadratureFailure(f"midpoint sum on [0, {length}] is {new}")
        if total is not None:
            diff = abs(new - total)
            if (diff <= rtol * abs(new)
                    or diff_old <= diff <= _MIDPOINT_STALL * abs(new)):
                return new
            diff_old = diff
        total = new
        n *= 2
    raise QuadratureFailure(
        f"midpoint sums on [0, {length}] did not settle by N = {n // 2}: "
        f"last difference {diff_old}")


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
    Q = (ell - P) / ((x - x-)(x+ - x)) smooth and positive.  The integrand is
    then even and 2 pi-periodic in phi, so the periodic midpoint rule on
    [0, pi] converges geometrically.  Near the turning points ell - P is
    evaluated by a Taylor expansion to dodge cancellation; for levels just
    above the window floor the whole gap is evaluated through the
    equilibrium expansion for the same reason.
    """
    win = admissible_energy_window(a, c, m)
    x_minus, x_plus = turning_points(a, c, m, ell)
    delta = x_plus - x_minus
    gap_ell = ell - win.lower
    near_floor = delta < 0.05 * win.equilibrium
    # the expansion about a turning point x0 converges within |d| < x0
    near_minus = 1e-4 * min(delta, x_minus)
    near_plus = 1e-4 * min(delta, x_plus)

    def level_gap(x, d_minus, d_plus):
        # ell - P(x); d_minus = x - x-, d_plus = x+ - x (both >= 0)
        if d_minus < near_minus:
            x0, d = x_minus, d_minus
        elif d_plus < near_plus:
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
        if not w > 0.0:
            raise QuadratureFailure(
                f"ell - P(x) = {w} at x = {x} inside the orbit "
                f"[{x_minus}, {x_plus}]: the level gap is lost to rounding")
        return math.sqrt(2.0 * d_minus * d_plus / w)

    try:
        return _periodic_midpoint(integrand, math.pi)
    except OverflowError as exc:
        raise QuadratureFailure(f"the period integrand at a={a} leaves the "
                                f"float range: {exc}") from exc


@dataclass
class OrbitSample:
    """Time-stamped trajectory of the (f, f') system and its energy drift."""

    s: np.ndarray
    x: np.ndarray
    y: np.ndarray
    energy_drift: float
    n_steps: int
    dense: object = field(repr=False, default=None)


# Dormand-Prince 5(4) (Dormand and Prince, J. Comput. Appl. Math. 6 (1980)):
# the 5th-order solution is propagated, and its last stage is the first
# stage of the next step.
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
# 5th- minus 4th-order weights, over all seven stages
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
         22 / 525, -1 / 40)
# Shampine's quartic dense output: u(t + th) = u + h sum_i k_i p_i(th), with
# p_i(th) = sum_j _DP_P[i][j] th^(j + 1)
_DP_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423,
     69997945 / 29380423),
)


def _combine(u, h, weights, ks):
    """u + h sum_i weights[i] ks[i], componentwise on tuples of floats."""
    return tuple([ui + h * sum(map(operator.mul, weights, kc))
                  for ui, kc in zip(u, zip(*ks))])


class _DormandPrince:
    """Adaptive Dormand-Prince 5(4) for an autonomous u' = rhs(u).

    The state is a tuple of Python floats. Steps are controlled by the RMS
    norm of the embedded error against atol + rtol |u| (Hairer, Norsett and
    Wanner, "Solving ODEs I", II.4). A right-hand side that returns NaN (off
    its domain) makes the step fail, and the step shrinks.
    """

    def __init__(self, rhs, t, u, rtol, atol):
        self.rhs, self.rtol, self.atol = rhs, rtol, atol
        self.t, self.u = t, tuple(u)
        self.f = rhs(self.u)
        self.h = self._initial_step()
        self.rejected = False
        self.last = None  # (t, h, u, stages) of the last accepted step

    def _norm(self, e, u, u_new):
        total = 0.0
        for ei, ui, vi in zip(e, u, u_new):
            total += (ei / (self.atol + self.rtol * max(abs(ui), abs(vi)))) ** 2
        return math.sqrt(total / len(e))

    def _initial_step(self):
        d0 = self._norm(self.u, self.u, self.u)
        d1 = self._norm(self.f, self.u, self.u)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        f1 = self.rhs(_combine(self.u, h0, (1.0,), (self.f,)))
        d2 = self._norm([p - q for p, q in zip(f1, self.f)], self.u, self.u) / h0
        if max(d1, d2) <= 1e-15:
            h1 = max(1e-6, 1e-3 * h0)
        else:
            h1 = (0.01 / max(d1, d2)) ** 0.2
        return min(100.0 * h0, h1) if math.isfinite(h1) else h0

    def step(self, t_end=math.inf):
        """Take one accepted step, ending at t_end at the latest."""
        rhs, u = self.rhs, self.u
        while True:
            h = min(self.h, t_end - self.t)
            if not h > 8.0 * math.ulp(self.t):
                raise StepFailure(f"step size {h} underflows at t = {self.t}")
            ks = [self.f]
            for row in _DP_A:
                ks.append(rhs(_combine(u, h, row, ks)))
            u_new = _combine(u, h, _DP_B, ks)
            ks.append(rhs(u_new))
            err = self._norm(_combine((0.0,) * len(u), h, _DP_E, ks), u, u_new)
            if err <= 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.2)
                if self.rejected:
                    factor = min(1.0, factor)
                self.last = (self.t, h, u, ks)
                self.t = self.t + h if h < t_end - self.t else t_end
                self.u, self.f = u_new, ks[6]
                self.h, self.rejected = h * factor, False
                return
            # a NaN error (a stage left the domain) shrinks by the most
            self.h = h * (max(0.2, 0.9 * err ** -0.2) if err == err else 0.2)
            self.rejected = True


def _dense_state(u, h, ks, theta):
    weights = [theta * (p0 + theta * (p1 + theta * (p2 + theta * p3)))
               for p0, p1, p2, p3 in _DP_P]
    return _combine(u, h, weights, ks)


class _DenseOutput:
    """Piecewise-quartic interpolant over accepted Dormand-Prince steps.

    A scalar s gives the state as an array of shape (n,), an array of s
    gives shape (n, len(s)); s outside the steps extrapolates the end steps.
    """

    def __init__(self):
        self.starts = []
        self.steps = []

    def add(self, step):
        self.starts.append(step[0])
        self.steps.append(step)

    def at(self, s):
        i = min(max(bisect.bisect_right(self.starts, s) - 1, 0),
                len(self.steps) - 1)
        t, h, u, ks = self.steps[i]
        return _dense_state(u, h, ks, (s - t) / h)

    def __call__(self, s):
        import numpy as np

        s = np.asarray(s, dtype=float)
        if s.ndim == 0:
            return np.array(self.at(float(s)))
        return np.array([self.at(v) for v in s.ravel().tolist()]).T


def _integrate(rhs, t0, u0, t_end, rtol, atol, guard=None):
    """Integrate u' = rhs(u) from t0 to t_end; returns the accepted step ends
    and the dense output. A first component at or below guard raises BlowUp."""
    solver = _DormandPrince(rhs, t0, u0, rtol, atol)
    ts, us, dense = [t0], [solver.u], _DenseOutput()
    while solver.t < t_end:
        solver.step(t_end)
        dense.add(solver.last)
        ts.append(solver.t)
        us.append(solver.u)
        if guard is not None and solver.u[0] <= guard:
            raise BlowUp(f"trajectory fell below the x > {guard} guard")
    return ts, us, dense


def _orbit_rhs(a, c, m):
    """x' = y, y' = m x^(1-a) - c x, and NaN where x^(1-a) is not a float."""
    e = 1.0 - a

    def rhs(u):
        x, y = u
        try:
            return y, m * math.pow(x, e) - c * x
        except (ValueError, OverflowError):
            return y, math.nan

    return rhs


def integrate_orbit(a, c, m, x0, y0, s_span, rtol=1e-11, atol=1e-11,
                    n_out=None, guard=1e-8) -> OrbitSample:
    """Adaptive Dormand-Prince 5(4) integration of x' = y, y' = m x^(1-a) - c x.

    Without n_out the samples are the accepted step ends; with it, n_out
    evenly spaced points of the dense output. `dense` evaluates the state
    anywhere in s_span.
    """
    import numpy as np

    _check_signs(a, c, m)
    require_finite(x0=x0, y0=y0, s_start=s_span[0], s_end=s_span[1])
    if x0 <= 0:
        raise DomainError(f"integrate_orbit requires x0 > 0, got {x0}")
    if not s_span[1] > s_span[0]:
        raise DomainError(f"integrate_orbit requires s_span increasing, got {s_span}")

    ts, us, dense = _integrate(_orbit_rhs(a, c, m), float(s_span[0]),
                               (float(x0), float(y0)), float(s_span[1]),
                               rtol, atol, guard)
    if n_out:
        s = np.linspace(s_span[0], s_span[1], n_out)
        xs, ys = dense(s)
    else:
        s = np.array(ts)
        xs, ys = np.array(us).T
    e0 = energy(a, c, m, x0, y0)
    energies = 0.5 * ys * ys + np.array(
        [potential(a, c, m, xv) for xv in xs]
    )
    drift = float(np.max(np.abs(energies - e0))) if len(xs) else 0.0
    return OrbitSample(s=s, x=xs, y=ys, energy_drift=drift,
                       n_steps=len(ts) - 1, dense=dense)


_RETURN_MAP_STEPS = 100_000


def orbit_period_numeric(a, c, m, ell, rtol=1e-11, atol=1e-11) -> float:
    """Period from the return map: first re-crossing of {y = 0, x > x*}.

    Independent of period_integral: starts at the bottom of the well moving
    left and times two successive downward crossings of y = 0 (which occur
    only at x = x+), each located inside its step on the dense output.
    """
    win = _checked_level(a, c, m, ell)
    guard = 1e-8
    y0 = -math.sqrt(2.0 * (ell - win.lower))
    solver = _DormandPrince(_orbit_rhs(a, c, m), 0.0, (win.equilibrium, y0),
                            rtol, atol)
    crossings = []
    for _ in range(_RETURN_MAP_STEPS):
        y_old = solver.u[1]
        solver.step()
        if solver.u[0] <= guard:
            raise BlowUp(f"trajectory fell below the x > {guard} guard")
        if y_old > 0.0 >= solver.u[1]:
            crossings.append(_section_time(solver))
            if len(crossings) == 2:
                return crossings[1] - crossings[0]
    raise StepFailure(
        f"return-map crossings not found within {_RETURN_MAP_STEPS} steps")


def _section_time(solver):
    """Time in the last step at which the dense y falls through 0."""
    t, h, u, ks = solver.last

    def y(theta):
        return _dense_state(u, h, ks, theta)[1]

    def dy(theta):
        return h * solver.rhs(_dense_state(u, h, ks, theta))[1]

    return t + h * _monotone_root(y, dy, 0.0, 1.0)


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
    import numpy as np

    a, c, m, ell = params.a, params.c, params.m, params.ell
    delaunay = abs(m - c) <= 1e-12 * (1.0 + abs(c))

    if params.degenerate:
        # constant solution: y is constant and the residual is algebraic
        f0 = (m / c) ** (1.0 / a)
        y0 = -math.log(f0)
        res = abs(c * math.exp(-2.0 * y0) - m * math.exp((a - 2.0) * y0))
        return ConformalCheck(max_residual=res, delaunay_type=delaunay)

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
            return orbit.dense.at(s)[0]

    # 1/f over two whole periods of f is periodic
    v_total = _periodic_midpoint(lambda s: 1.0 / f_of_s(s), s_hi, rtol=1e-10)
    v_grid = np.linspace(0.0, v_total, n_grid)

    _, _, s_dense = _integrate(lambda s: (f_of_s(s[0]),), 0.0, (0.0,), v_total,
                               1e-12, 1e-12)
    s_of_v = s_dense(v_grid)[0]

    y = -np.log([f_of_s(s) for s in s_of_v])
    h = v_grid[1] - v_grid[0]
    ydd = (-y[:-4] + 16.0 * y[1:-3] - 30.0 * y[2:-2]
           + 16.0 * y[3:-1] - y[4:]) / (12.0 * h * h)
    yc = y[2:-2]
    rhs = c * np.exp(-2.0 * yc) - m * np.exp((a - 2.0) * yc)
    return ConformalCheck(max_residual=float(np.max(np.abs(ydd - rhs))),
                          delaunay_type=delaunay)
