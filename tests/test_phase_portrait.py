import functools
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from ricci_lab import phase_portrait as pp
from ricci_lab import spherical_family as sf
from ricci_lab.errors import (
    BlowUp,
    DegenerateLevel,
    DomainError,
    QuadratureFailure,
    SignError,
    WindowError,
)
from ricci_lab.spherical_family import SphericalParams


def quad_checked(fn, lo, hi, *, epsabs=1e-12, epsrel=1e-10, limit=2000):
    """SciPy's adaptive quad, refusing a result whose error estimate misses
    100 x the tolerance: the oracle for the midpoint rule."""
    out = quad(fn, lo, hi, epsabs=epsabs, epsrel=epsrel, limit=limit,
               full_output=1)
    val, abserr = out[0], out[1]
    if len(out) > 3 or abserr > 100.0 * max(epsabs, epsrel * abs(val)):
        raise QuadratureFailure(f"quad on [{lo}, {hi}] reached error {abserr}")
    return val


def mp_potential(a, c, m, x):
    if a == 2:
        return -m * mp.log(x) + c * x * x / 2
    return -m * x ** (2 - a) / (2 - a) + c * x * x / 2


@functools.lru_cache(maxsize=None)
def mp_period(a, c, m, ell):
    """30-digit period: turning points by mpmath findroot, then Gauss-Legendre
    in phi over x = x- + (x+ - x-)(1 - cos phi)/2."""
    with mp.workdps(30):
        a, c, m, ell = (mp.mpf(v) for v in (a, c, m, ell))
        x_star = (m / c) ** (1 / a)

        def gap(x):
            return mp_potential(a, c, m, x) - ell

        lo = hi = x_star
        while gap(lo) < 0:
            lo /= 2
        while gap(hi) < 0:
            hi *= 2
        x_minus = mp.findroot(gap, (lo, x_star), solver="anderson")
        x_plus = mp.findroot(gap, (x_star, hi), solver="anderson")
        delta = x_plus - x_minus

        def integrand(phi):
            d_minus = delta * mp.sin(phi / 2) ** 2
            d_plus = delta * mp.cos(phi / 2) ** 2
            return mp.sqrt(-2 * d_minus * d_plus / gap(x_minus + d_minus))

        return float(mp.quad(integrand, [0, mp.pi / 2, mp.pi],
                             method="gauss-legendre"))


def window_level(a, where):
    """(a, c, m, ell) with c = m = sign(a): an interior level, a level 1e-4
    or 1e-6 above the window floor, or ell = 50."""
    c = m = math.copysign(1.0, a)
    win = pp.admissible_energy_window(a, c, m)
    if where == "interior":
        ell = win.lower + 1.0 if math.isinf(win.upper) else 0.5 * win.lower
    elif where == "ell=50":
        ell = 50.0
    else:
        ell = win.lower + float(where)
    return a, c, m, ell


# (where, period_integral rtol, orbit_period_numeric rtol) against 30-digit
# mpmath; near the floor both routes lose digits to the conditioning of
# ell - P(x) (quad lost as many: 7.5e-10 at 1e-6 above it for a = 4)
PERIOD_CASES = [
    (a, where, rtol_int, rtol_orbit)
    for a in (2.0, 3.0, 4.0, 6.0, -2.0)
    for where, rtol_int, rtol_orbit in (("interior", 1e-13, 1e-10),
                                        ("1e-4", 5e-11, 5e-10),
                                        ("1e-6", 5e-9, 1e-8),
                                        ("ell=50", 1e-13, 1e-10))
    if not (where == "ell=50" and a in (2.0, -2.0))
]


class TestPotentialAndEnergy:
    def test_log_branch_value(self):
        assert pp.potential(2.0, 1.0, 1.0, 1.0) == pytest.approx(0.5)

    def test_quartic_branch_value(self):
        assert pp.potential(4.0, 1.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_minimum_at_equilibrium(self):
        p1 = pp.potential(4.0, 1.0, 1.0, 1.0)
        assert pp.potential(4.0, 1.0, 1.0, 0.5) > p1
        assert pp.potential(4.0, 1.0, 1.0, 2.0) > p1

    def test_nonpositive_x_rejected(self):
        with pytest.raises(DomainError):
            pp.potential(4.0, 1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            pp.energy(4.0, 1.0, 1.0, -1.0, 0.0)

    def test_equilibrium_energy_is_window_floor(self):
        win = pp.admissible_energy_window(4.0, 1.0, 1.0)
        assert pp.energy(4.0, 1.0, 1.0, win.equilibrium, 0.0) == pytest.approx(win.lower)

    def test_energy_value(self):
        assert pp.energy(4.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(1.5)


class TestEnergyWindow:
    def test_quartic_window(self):
        win = pp.admissible_energy_window(4.0, 1.0, 1.0)
        assert win.lower == pytest.approx(1.0)
        assert win.upper == math.inf
        assert win.equilibrium == pytest.approx(1.0)

    def test_equilibrium_scaling(self):
        assert pp.admissible_energy_window(4.0, 1.0, 16.0).equilibrium == pytest.approx(2.0)

    def test_negative_parameter_window(self):
        win = pp.admissible_energy_window(-2.0, -1.0, -1.0)
        assert win.upper == 0.0
        assert win.lower < win.upper
        assert win.lower == pytest.approx(pp.potential(-2.0, -1.0, -1.0, win.equilibrium))

    def test_mixed_signs_rejected(self):
        with pytest.raises(SignError):
            pp.admissible_energy_window(4.0, -1.0, 1.0)
        with pytest.raises(SignError):
            pp.admissible_energy_window(4.0, 1.0, 0.0)

    def test_params_validation(self):
        with pytest.raises(WindowError):
            pp.RicciParams(a=4.0, c=1.0, m=1.0, ell=0.5)
        with pytest.raises(WindowError):
            pp.RicciParams(a=-2.0, c=-1.0, m=-1.0, ell=0.0)
        assert pp.RicciParams(a=4.0, c=1.0, m=1.0, ell=1.0).degenerate
        assert not pp.RicciParams(a=4.0, c=1.0, m=1.0, ell=2.0).degenerate

    @pytest.mark.parametrize("field", ["a", "c", "m", "ell"])
    def test_non_finite_rejected(self, field):
        values = dict(a=4.0, c=1.0, m=1.0, ell=2.0)
        for bad in (math.nan, math.inf):
            values[field] = bad
            with pytest.raises(DomainError):
                pp.RicciParams(**values)
            with pytest.raises(DomainError):
                pp.period_integral(**values)


class TestTurningPoints:
    def test_quartic_closed_form(self):
        xm, xp = pp.turning_points(4.0, 1.0, 0.75, 1.0)
        assert xm == pytest.approx(math.sqrt(0.5), rel=1e-14)
        assert xp == pytest.approx(math.sqrt(1.5), rel=1e-14)

    def test_roots_hit_the_level(self):
        for a, c, m, ell in ((2.0, 1.0, 1.0, 1.0), (3.0, 1.0, 1.0, 1.7),
                             (4.0, 1.0, 0.75, 1.0), (-2.0, -1.0, -1.0, -0.1)):
            xm, xp = pp.turning_points(a, c, m, ell)
            x_star = pp.admissible_energy_window(a, c, m).equilibrium
            assert xm < x_star < xp
            assert pp.potential(a, c, m, xm) == pytest.approx(ell, rel=1e-12, abs=1e-12)
            assert pp.potential(a, c, m, xp) == pytest.approx(ell, rel=1e-12, abs=1e-12)

    def test_degenerate_collapse(self):
        c, m = 1.0, 1.0
        ell = math.sqrt(c * m) + 1e-8
        xm, xp = pp.turning_points(4.0, c, m, ell)
        x_star = (m / c) ** 0.25
        assert abs(xm - x_star) < 1e-3
        assert abs(xp - x_star) < 1e-3

    def test_level_errors(self):
        with pytest.raises(DegenerateLevel):
            pp.turning_points(4.0, 1.0, 1.0, 1.0)
        with pytest.raises(WindowError):
            pp.turning_points(-2.0, -1.0, -1.0, 0.5)

    @pytest.mark.parametrize("c, m, ell", [(1.0, 0.5, 50.0), (2.0, 0.01, 3.0)])
    def test_quartic_small_root_against_mpmath(self, c, m, ell):
        # (ell - disc)/c cancels: 2.8e-13 and 2.5e-15 relative at these points
        xm, xp = pp.turning_points(4.0, c, m, ell)
        with mp.workdps(40):
            disc = mp.sqrt(mp.mpf(ell) ** 2 - mp.mpf(c) * mp.mpf(m))
            want_m = mp.sqrt((mp.mpf(ell) - disc) / c)
            want_p = mp.sqrt((mp.mpf(ell) + disc) / c)
            assert abs(xm - want_m) / want_m <= 2.2e-16
            assert abs(xp - want_p) / want_p <= 2.2e-16

    @pytest.mark.parametrize("a, c, m, ell", [
        (2.0, 1.0, 1.0, 1.5), (3.0, 1.0, 0.5, 2.0), (6.0, 2.0, 0.3, 5.0),
        (-2.0, -1.0, -1.0, -0.1), (-2.0, -1.0, -1.0, -1e-3), (3.0, 1.0, 1.0, 50.0),
        (2.0, 1.0, 1.0, 5.0), (2.5, 1.0, 1.0, 3.0)])
    def test_general_roots_against_mpmath(self, a, c, m, ell):
        for x in pp.turning_points(a, c, m, ell):
            with mp.workdps(40):
                root = mp.findroot(lambda t: mp_potential(a, c, m, t) - ell,
                                   mp.mpf(x))
                assert abs(x - root) / root <= 1e-15


class TestPeriodIntegral:
    def test_quartic_period_is_constant(self):
        rng = np.random.default_rng(3)
        for _ in range(6):
            m = rng.uniform(0.2, 3.0)
            ell = math.sqrt(m) + rng.uniform(0.01, 2.0)
            assert pp.period_integral(4.0, 1.0, m, ell) == pytest.approx(math.pi, abs=1e-10)

    def test_quartic_period_scales_with_c(self):
        assert pp.period_integral(4.0, 4.0, 1.0, 3.0) == pytest.approx(math.pi / 2.0, abs=1e-10)

    def test_small_oscillation_limit(self):
        for a in (2.0, 3.0, 4.0):
            win = pp.admissible_energy_window(a, 1.0, 1.0)
            t = pp.period_integral(a, 1.0, 1.0, win.lower + 1e-6)
            assert t == pytest.approx(2.0 * math.pi / math.sqrt(a), abs=1e-3)

    def test_wide_orbit_is_pi(self):
        # x- = 0.0707 against a width of 9.93: the Taylor switch near x- is
        # scaled by x-, not by the width
        t = pp.period_integral(4.0, 1.0, 0.5, 50.0)
        assert abs(t - math.pi) <= 1e-13

    @pytest.mark.parametrize("a, c, m, ell", [
        (2.0, 1.0, 1.0, 1.5), (3.0, 1.0, 0.5, 2.0), (6.0, 2.0, 0.3, 5.0),
        (-2.0, -1.0, -1.0, -0.1), (4.0, 1.0, 0.5, 0.8)])
    def test_matches_quad_oracle(self, a, c, m, ell):
        xm, xp = pp.turning_points(a, c, m, ell)
        delta = xp - xm

        def integrand(phi):
            d_minus = delta * math.sin(0.5 * phi) ** 2
            d_plus = delta * math.cos(0.5 * phi) ** 2
            w = ell - pp.potential(a, c, m, xm + d_minus)
            return math.sqrt(2.0 * d_minus * d_plus / w) if w > 0 else 0.0

        want = quad_checked(integrand, 0.0, math.pi)
        assert abs(pp.period_integral(a, c, m, ell) - want) <= 1e-12 * want

    @pytest.mark.parametrize("a, where, rtol, _", PERIOD_CASES)
    def test_against_mpmath(self, a, where, rtol, _):
        params = window_level(a, where)
        t = pp.period_integral(*params)
        assert math.isfinite(t)
        assert abs(t - mp_period(*params)) <= rtol * t

    def test_log_potential_far_level_is_typed_failure(self):
        # x- = e^-50: the integrand has a boundary layer of width 1e-11 in
        # phi, which no midpoint sum resolves
        with pytest.raises(QuadratureFailure):
            pp.period_integral(2.0, 1.0, 1.0, 50.0)

    def test_near_floor_level_against_orbit(self):
        win = pp.admissible_energy_window(2.0, 1.0, 1.0)
        ell = win.lower + 1e-6
        t_quad = pp.period_integral(2.0, 1.0, 1.0, ell)
        t_orbit = pp.orbit_period_numeric(2.0, 1.0, 1.0, ell)
        assert t_quad == pytest.approx(2.0 * math.pi / math.sqrt(2.0), abs=1e-3)
        assert abs(t_quad - t_orbit) <= 1e-8 * (1.0 + t_quad)


class TestPeriodicMidpoint:
    def test_geometric_convergence(self):
        got = pp._periodic_midpoint(lambda p: 1.0 / (2.0 + math.cos(p)),
                                    2.0 * math.pi)
        assert abs(got - 2.0 * math.pi / math.sqrt(3.0)) <= 1e-14

    def test_rounding_floor_stops_the_doubling(self):
        # noise that no N averages below rtol: the differences stop shrinking
        rng = np.random.default_rng(5)
        calls = []

        def noisy(p):
            calls.append(p)
            return 1.0 + 1e-9 * rng.standard_normal()

        got = pp._periodic_midpoint(noisy, 1.0)
        assert abs(got - 1.0) <= 1e-9
        assert len(calls) < 2 * pp._MIDPOINT_MAX_N

    def test_kink_exhausts_the_budget(self):
        # |sin| is not smooth as a pi/2-periodic function: O(h^2) only
        with pytest.raises(QuadratureFailure):
            pp._periodic_midpoint(lambda p: abs(math.sin(p)), 0.5 * math.pi)

    def test_non_finite_sum_raises(self):
        with pytest.raises(QuadratureFailure):
            pp._periodic_midpoint(lambda p: math.inf, 1.0)


def dop853_oracle(a, c, m, x0, y0, s_eval):
    sol = solve_ivp(lambda _s, u: (u[1], m * u[0] ** (1.0 - a) - c * u[0]),
                    (s_eval[0], s_eval[-1]), (x0, y0), method="DOP853",
                    rtol=1e-13, atol=1e-13, t_eval=s_eval)
    assert sol.status == 0
    return sol.y


class TestIntegrateOrbit:
    @pytest.mark.parametrize("a, c, m, ell", [
        (2.0, 1.0, 1.0, 1.5), (3.0, 1.0, 0.5, 2.0), (4.0, 1.0, 0.5, 50.0),
        (6.0, 2.0, 0.3, 5.0), (-2.0, -1.0, -1.0, -0.1)])
    def test_samples_match_dop853(self, a, c, m, ell):
        _, x_plus = pp.turning_points(a, c, m, ell)
        span = 2.5 * pp.period_integral(a, c, m, ell)
        orbit = pp.integrate_orbit(a, c, m, x_plus, 0.0, (0.0, span), n_out=201)
        assert np.all(np.isfinite(orbit.x)) and np.all(np.isfinite(orbit.y))
        want = dop853_oracle(a, c, m, x_plus, 0.0, orbit.s)
        scale = np.max(np.abs(want), axis=1, keepdims=True)
        assert np.max(np.abs(np.array([orbit.x, orbit.y]) - want) / scale) <= 2e-9

    def test_step_ends_and_dense_output(self):
        orbit = pp.integrate_orbit(3.0, 1.0, 0.5, 1.2, 0.0, (0.0, 6.0))
        assert orbit.s[0] == 0.0 and orbit.s[-1] == 6.0
        assert orbit.n_steps == orbit.s.size - 1
        want = dop853_oracle(3.0, 1.0, 0.5, 1.2, 0.0, orbit.s)
        assert np.max(np.abs(np.array([orbit.x, orbit.y]) - want)) <= 1e-9
        assert orbit.dense(2.5).shape == (2,)
        grid = np.linspace(0.0, 6.0, 7)
        assert orbit.dense(grid).shape == (2, 7)
        assert np.array_equal(orbit.dense(grid)[:, 3], orbit.dense(3.0))
        assert np.max(np.abs(orbit.dense(grid) - dop853_oracle(
            3.0, 1.0, 0.5, 1.2, 0.0, grid))) <= 1e-9

    def test_equilibrium_is_fixed(self):
        orbit = pp.integrate_orbit(4.0, 1.0, 1.0, 1.0, 0.0, (0.0, 10.0), n_out=101)
        assert np.max(np.abs(orbit.x - 1.0)) <= 1e-12
        assert np.max(np.abs(orbit.y)) <= 1e-12

    def test_matches_closed_form_over_three_periods(self):
        params = SphericalParams(c=1.0, m=0.51, ell=0.73)
        f0, f1, _ = sf.f_closed(params, 0.0)
        span = 3.0 * math.pi
        orbit = pp.integrate_orbit(4.0, 1.0, 0.51, float(f0), float(f1),
                                   (0.0, span), n_out=301)
        f_exact = sf.f_closed(params, orbit.s)[0]
        assert np.max(np.abs(orbit.x - f_exact)) <= 1e-8

    def test_energy_drift_over_ten_periods(self):
        orbit = pp.integrate_orbit(4.0, 1.0, 0.51, 0.9, 0.0, (0.0, 10.0 * math.pi),
                                   n_out=501)
        assert orbit.energy_drift <= 1e-9

    def test_guard_raises_blowup(self):
        with pytest.raises(BlowUp):
            pp.integrate_orbit(4.0, 1.0, 1e-18, math.sqrt(2.0), 0.0, (0.0, 2.0))

    def test_invalid_start(self):
        with pytest.raises(DomainError):
            pp.integrate_orbit(4.0, 1.0, 1.0, -0.5, 0.0, (0.0, 1.0))
        with pytest.raises(DomainError):
            pp.integrate_orbit(4.0, 1.0, 1.0, 0.5, math.nan, (0.0, 1.0))
        with pytest.raises(DomainError):
            pp.integrate_orbit(4.0, 1.0, 1.0, 0.5, 0.0, (1.0, 1.0))


class TestOrbitPeriodNumeric:
    def test_quartic_return_map(self):
        assert pp.orbit_period_numeric(4.0, 1.0, 0.5, 0.8) == pytest.approx(math.pi, abs=1e-8)

    def test_dual_method_agreement(self):
        cases = ((2.0, 1.0, 1.0), (3.0, 1.0, 1.0), (4.0, 1.0, 1.0),
                 (-2.0, -1.0, -1.0))
        for a, c, m in cases:
            win = pp.admissible_energy_window(a, c, m)
            ell = win.lower + 1.0 if math.isinf(win.upper) else 0.5 * win.lower
            t_quad = pp.period_integral(a, c, m, ell)
            t_orbit = pp.orbit_period_numeric(a, c, m, ell)
            assert abs(t_quad - t_orbit) <= 1e-8 * (1.0 + t_quad)

    def test_degenerate_level_rejected(self):
        with pytest.raises(DegenerateLevel):
            pp.orbit_period_numeric(4.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("a, where, _, rtol", PERIOD_CASES)
    def test_against_mpmath(self, a, where, _, rtol):
        params = window_level(a, where)
        t = pp.orbit_period_numeric(*params)
        assert math.isfinite(t)
        assert abs(t - mp_period(*params)) <= rtol * t

    def test_guard_raises_blowup(self):
        # x- = e^-50 lies below the x > 1e-8 guard
        with pytest.raises(BlowUp):
            pp.orbit_period_numeric(2.0, 1.0, 1.0, 50.0)


class TestConformalCheck:
    def test_closed_form_route(self):
        chk = pp.conformal_profile_check(pp.RicciParams(a=4.0, c=1.0, m=0.51, ell=0.73))
        assert chk.max_residual <= 1e-5
        assert not chk.delaunay_type

    def test_orbit_route(self):
        chk = pp.conformal_profile_check(pp.RicciParams(a=3.0, c=1.0, m=1.0, ell=2.0))
        assert chk.max_residual <= 1e-4

    def test_constant_solution_is_exact(self):
        chk = pp.conformal_profile_check(pp.RicciParams(a=4.0, c=1.0, m=1.0, ell=1.0))
        assert chk.max_residual <= 1e-14

    def test_delaunay_type_flag(self):
        chk = pp.conformal_profile_check(pp.RicciParams(a=2.0, c=1.0, m=1.0, ell=1.5))
        assert chk.delaunay_type
