import math

import numpy as np
import pytest

from ricci_lab import phase_portrait as pp
from ricci_lab import spherical_family as sf
from ricci_lab.errors import (
    BlowUp,
    DegenerateLevel,
    DomainError,
    SignError,
    WindowError,
)
from ricci_lab.spherical_family import SphericalParams


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

    def test_near_floor_level_against_orbit(self):
        win = pp.admissible_energy_window(2.0, 1.0, 1.0)
        ell = win.lower + 1e-6
        t_quad = pp.period_integral(2.0, 1.0, 1.0, ell)
        t_orbit = pp.orbit_period_numeric(2.0, 1.0, 1.0, ell)
        assert t_quad == pytest.approx(2.0 * math.pi / math.sqrt(2.0), abs=1e-3)
        assert abs(t_quad - t_orbit) <= 1e-8 * (1.0 + t_quad)


class TestIntegrateOrbit:
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
