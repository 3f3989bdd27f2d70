import json
import math
import pathlib
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ricci_lab import immersion as im
from ricci_lab import spherical_family as sf
from ricci_lab._carlson import rf_rj_unguarded
from ricci_lab import mesh_io
from ricci_lab.errors import (
    DomainError,
    NoBracket,
    NotImmersible,
    PoleSingularity,
    QuadratureFailure,
    RangeError,
    SeamMismatch,
)
from ricci_lab.spherical_family import SphericalParams

EMBEDDED = im.solve_for_ell(1.0, 0.51, 1, 1)
IMMERSED = im.solve_for_ell(1.0, 0.75, 3, 2)
P_EMB = SphericalParams(c=1.0, m=0.51, ell=EMBEDDED.ell)
P_IMM = SphericalParams(c=1.0, m=0.75, ell=IMMERSED.ell)
CLIFFORD = SphericalParams(c=1.0, m=0.25, ell=0.5)


class TestThetaRate:
    def test_clifford_rate_is_constant(self):
        for s in (0.0, 0.3, 1.7):
            assert im.theta_rate(CLIFFORD, s) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_two_formulas_agree(self):
        # sqrt(c) sqrt(m + (1-2l) f^2)/(f (1-c f^2))
        # == sqrt(c) sqrt(1 - c f^2 - f'^2)/(1 - c f^2)
        p = SphericalParams(c=1.0, m=0.51, ell=0.73)
        for s in np.linspace(0.0, math.pi, 50):
            f, f1, _ = sf.f_closed(p, float(s))
            primary = im.theta_rate(p, float(s))
            alt = math.sqrt(1.0 - f * f - f1 * f1) / (1.0 - f * f)
            assert primary == pytest.approx(alt, rel=1e-12)

    def test_value_at_profile_maximum(self):
        p = SphericalParams(c=1.0, m=0.51, ell=0.73)
        s = math.pi / 4.0
        f = sf.f_closed(p, s)[0]
        assert f * f == pytest.approx(0.73 + math.sqrt(0.73**2 - 0.51), rel=1e-12)
        expected = (math.sqrt(0.51 - 0.46 * f * f)
                    / (f * (1.0 - f * f)))
        assert im.theta_rate(p, s) == pytest.approx(expected, rel=1e-12)

    def test_minimal_slice_matches_modulus_integrand(self):
        for c, j in ((1.0, 0.6), (2.0, 0.4)):
            m, ell = sf.minimal_params(c, j)
            p = SphericalParams(c=c, m=m, ell=ell)
            for s in np.linspace(0.0, 1.5, 16):
                sin2 = math.sin(2.0 * math.sqrt(c) * s)
                expected = (math.sqrt(2.0 * (1.0 - j * j) * c)
                            / ((1.0 - j * sin2) * math.sqrt(1.0 + j * sin2)))
                assert im.theta_rate(p, float(s)) == pytest.approx(expected, rel=1e-12)

    def test_immersion_slack_positive(self):
        # 1 - c f^2 - f'^2 = m/f^2 + 1 - 2 ell >= 1 - ell - sqrt(ell^2 - cm) > 0
        rng = np.random.default_rng(13)
        for _ in range(10):
            m = float(rng.uniform(0.05, 0.9))
            lower = math.sqrt(m)
            upper = (m + 1.0) / 2.0
            ell = float(rng.uniform(lower + 1e-3, upper - 1e-3))
            p = SphericalParams(c=1.0, m=m, ell=ell)
            floor = 1.0 - ell - math.sqrt(ell * ell - m)
            assert floor > 0
            for s in np.linspace(0.0, math.pi, 33):
                f, f1, _ = sf.f_closed(p, float(s))
                slack = 1.0 - f * f - f1 * f1
                assert slack == pytest.approx(m / (f * f) + 1.0 - 2.0 * ell,
                                              abs=1e-12)
                assert slack >= floor - 1e-12

    def test_not_immersible(self):
        with pytest.raises(NotImmersible):
            im.theta_rate(SphericalParams(c=1.0, m=0.0625, ell=0.75), 0.0)
        with pytest.raises(NotImmersible):
            im.theta_rate(SphericalParams(c=1.0, m=0.5, ell=0.3), 0.0)


class TestBigTheta:
    def test_embedded_example(self):
        theta_total = im.big_theta(SphericalParams(c=1.0, m=0.51, ell=0.73))
        assert abs(theta_total - 2.0 * math.pi) <= 1e-2

    def test_immersed_example(self):
        theta_total = im.big_theta(SphericalParams(c=1.0, m=0.75, ell=0.8700024))
        assert abs(theta_total - 3.0 * math.pi) <= 1e-4

    def test_minimal_slice_value_in_window(self):
        theta_total = im.big_theta(SphericalParams(c=1.0, m=0.16, ell=0.5))
        assert math.pi < theta_total < math.sqrt(2.0) * math.pi

    def test_clifford(self):
        assert im.big_theta(CLIFFORD) == pytest.approx(math.sqrt(2.0) * math.pi, rel=1e-13)

    @pytest.mark.parametrize("c, m, ell", [(1.0, 1.0, 1.0),
                                           (4.0, 0.5, math.sqrt(2.0))])
    def test_constant_boundary_needs_m_below_one_over_c(self, c, m, ell):
        params = SphericalParams(c=c, m=m, ell=ell)
        assert params.classification is sf.Classification.BOUNDARY_CONSTANT
        with pytest.raises(NotImmersible, match="m < 1/c"):
            im.big_theta(params)


@st.composite
def immersible_slice(draw):
    """(c, m, L, U): c m in [1e-3, 0.95] and its open ell-interval (L, U)."""
    c = draw(st.floats(1e-3, 1e3))
    m = draw(st.floats(1e-3, 0.95)) / c
    return c, m, math.sqrt(c * m), (1.0 + c * m) / 2.0


class TestThetaProperties:
    """Properties over random immersible slices; the lru_cache on big_theta
    is cleared (or bypassed with _theta_of_ell) so it cannot answer."""

    def test_scaling_is_bit_for_bit_when_c_m_is_exact(self):
        im.big_theta.cache_clear()
        assert 4.0 * 0.1275 == 0.51
        assert (im.big_theta(SphericalParams(c=4.0, m=0.1275, ell=0.73))
                == im.big_theta(SphericalParams(c=1.0, m=0.51, ell=0.73)))

    # The tolerance is 20x the worst relative difference, 4.5e-15, over
    # 20,000 random draws from this domain (at small c m).
    @settings(deadline=None, max_examples=60)
    @given(immersible_slice(), st.floats(1e-6, 1.0 - 1e-6))
    def test_theta_depends_on_c_and_m_through_c_m(self, cut, t):
        c, m, lower, upper = cut
        ell = lower + t * (upper - lower)
        im.big_theta.cache_clear()
        scaled = im.big_theta(SphericalParams(c=c, m=m, ell=ell))
        unit = im.big_theta(SphericalParams(c=1.0, m=c * m, ell=ell))
        assert scaled == pytest.approx(unit, rel=1e-13, abs=0.0)

    # Neighbouring ell are at least 1e-7 of the width apart, so the rise in
    # Theta stays far above its rounding error.
    @settings(deadline=None, max_examples=60)
    @given(immersible_slice(),
           st.lists(st.floats(1e-6, 1.0), min_size=3, max_size=9))
    @example((1.0, 0.51, math.sqrt(0.51), 0.755), [1e-6, 1.0, 1.0, 1e-6])
    def test_finite_positive_and_increasing_in_ell(self, cut, steps):
        c, m, lower, upper = cut
        t = np.cumsum(steps)[:-1] / sum(steps)
        theta_total = im._theta_of_ell(c, m, lower + t * (upper - lower))
        assert np.all(np.isfinite(theta_total))
        assert np.all(theta_total > 0.0)
        assert np.all(np.diff(theta_total) > 0.0), (c, m, t, theta_total)


class TestTheta:
    def test_starts_at_zero(self):
        assert im.theta(P_EMB, 0.0) == 0.0

    def test_strictly_increasing(self):
        s = np.linspace(0.0, 2.0 * math.pi, 40)
        vals = im.theta_grid(P_EMB, s)
        assert np.all(np.diff(vals) > 0)

    def test_quasi_periodicity(self):
        rng = np.random.default_rng(23)
        theta_total = im.big_theta(P_EMB)
        for s in rng.uniform(0.0, math.pi, 20):
            base = im.theta(P_EMB, float(s))
            for n in (1, 2, 3):
                shifted = im.theta(P_EMB, float(s) + n * math.pi)
                assert abs(shifted - base - n * theta_total) <= 1e-10

    def test_grid_matches_scalar(self):
        s = np.array([0.0, 0.4, 1.1, 3.5, 6.5])
        vals = im.theta_grid(P_EMB, s)
        for si, vi in zip(s, vals):
            assert vi == pytest.approx(im.theta(P_EMB, float(si)), abs=1e-11)

    def test_grid_requires_increasing_input(self):
        with pytest.raises(DomainError):
            im.theta_grid(P_EMB, [0.5, 0.1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_s_rejected(self, bad):
        with pytest.raises(DomainError):
            im.theta(P_EMB, bad)
        with pytest.raises(DomainError):
            im.theta_grid(P_EMB, [0.0, 0.5, bad])


GOLDEN = pathlib.Path(__file__).parent / "golden"


def theta_mp(c, m, ell, s_values):
    """theta(s) by 30-digit mpmath quadrature of theta', split at quarter periods."""
    with mp.workdps(30):
        c, m, ell = mp.mpf(c), mp.mpf(m), mp.mpf(ell)
        amp = mp.sqrt(ell * ell - c * m)

        def rate(u):
            g = (ell + amp * mp.sin(2 * mp.sqrt(c) * u)) / c
            return (mp.sqrt(c) * mp.sqrt(m + (1 - 2 * ell) * g)
                    / (mp.sqrt(g) * (1 - c * g)))

        quarter = mp.pi / mp.sqrt(c) / 4
        out = []
        for s in map(mp.mpf, s_values):
            knots = [quarter * j for j in range(int(s / quarter) + 1)]
            out.append(float(mp.quad(rate, knots + [s])))
        return out


class TestCarlsonForm:
    def test_theta_matches_mpmath_golden_values(self):
        cells = json.loads((GOLDEN / "theta_mpmath.json").read_text())["cells"]
        assert len(cells) == 59
        for cell in cells:
            got = im.big_theta(SphericalParams(c=cell["c"], m=cell["m"],
                                               ell=cell["ell"]))
            want = float(cell["Theta"])
            # a NaN compares false, so finiteness is asserted on its own
            assert math.isfinite(got), cell
            assert abs(got - want) <= 1e-14 * want, cell

    @pytest.mark.parametrize("c, m, ell", [
        (1.0, 0.51, 0.73), (4.0, 0.1275, 0.73), (0.5, 0.2, 0.45),
    ])
    def test_theta_over_three_periods_matches_mpmath(self, c, m, ell):
        p = SphericalParams(c=c, m=m, ell=ell)
        s = np.array([0.13, 0.5, 1.0, 1.37, 2.25, 3.0]) * p.period
        want = theta_mp(c, m, ell, s)
        got = im.theta_grid(p, s)
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - want) <= 2e-15 * np.abs(want))
        for si, wi in zip(s, want):
            assert abs(im.theta(p, float(si)) - wi) <= 2e-15 * wi

    def test_theta_depends_on_c_m_only_through_cm(self):
        assert (im.big_theta(SphericalParams(c=4.0, m=0.1275, ell=0.73))
                == im.big_theta(SphericalParams(c=1.0, m=0.51, ell=0.73)))

    @pytest.mark.parametrize("c, cm", [(1.0, 0.25), (1.0, 0.04), (2.0, 0.2)])
    def test_constant_boundary_is_the_constant_rate(self, c, cm):
        # the closed form is continuous onto A = 0, so it needs no branch there
        p = SphericalParams(c=c, m=cm / c, ell=math.sqrt(cm))
        assert p.classification is sf.Classification.BOUNDARY_CONSTANT
        rate = float(im.theta_rate(p, 0.0))
        assert abs(im.big_theta(p) - rate * p.period) <= 1e-15 * rate * p.period

    def test_clifford_theta_is_linear(self):
        s = np.linspace(0.0, 3.0 * CLIFFORD.period, 25)
        want = math.sqrt(2.0) * s
        assert np.all(np.abs(im.theta_grid(CLIFFORD, s) - want) <= 1e-14 * want[-1])

    def test_finite_next_to_the_upper_boundary(self):
        # quadrature of theta' failed within about 1e-8 of the boundary
        p = SphericalParams(c=1.0, m=0.51, ell=0.7549999999)
        assert im.big_theta(p) == pytest.approx(25.70779135429, abs=5e-12)
        vals = im.theta_grid(p, np.linspace(0.0, 2.0 * p.period, 64))
        assert np.all(np.isfinite(vals)) and np.all(np.diff(vals) > 0)


class TestThetaProfile:
    def test_rate_bounds_hold_on_grid(self):
        prof = im.make_theta_profile(P_EMB)
        assert 0 < prof.S1 <= prof.S2
        for s in np.linspace(0.0, math.pi, 1024):
            rate = im.theta_rate(P_EMB, float(s))
            assert prof.S1 <= rate <= prof.S2

    def test_clifford_bounds_collapse(self):
        prof = im.make_theta_profile(CLIFFORD)
        assert prof.S1 == pytest.approx(prof.S2)
        assert prof.Theta == pytest.approx(math.sqrt(2.0) * math.pi, rel=1e-13)

    @pytest.mark.parametrize("c, m, ell", [
        (1.0, 0.16, 0.5),                 # ell = 1/2: the quadratic is linear
        (1.0, 0.51, 0.7302448635193721),  # no critical point inside
        (1.0, 0.1, 0.4),                  # one critical point inside
        (4.0, 0.025, 0.4),
    ])
    def test_bounds_are_the_extremes_of_the_rate(self, c, m, ell):
        # brute force: 10^5 samples of g = f^2, refined once around the
        # extreme sample so the grid spacing no longer limits the accuracy
        p = SphericalParams(c=c, m=m, ell=ell)

        def extreme(pick):
            g = np.linspace(p.f_sq_min, p.f_sq_max, 100_001)
            for _ in range(2):
                rate = (math.sqrt(c) * np.sqrt(m + (1.0 - 2.0 * ell) * g)
                        / (np.sqrt(g) * (1.0 - c * g)))
                i = int(pick(rate))
                g = np.linspace(g[max(i - 1, 0)], g[min(i + 1, g.size - 1)],
                                100_001)
            return float(rate[i])

        lo, hi = extreme(np.argmin), extreme(np.argmax)
        prof = im.make_theta_profile(p)
        assert prof.S1 <= lo and hi <= prof.S2
        assert prof.S1 / (1.0 - 1e-12) == pytest.approx(lo, rel=1e-12)
        assert prof.S2 / (1.0 + 1e-12) == pytest.approx(hi, rel=1e-12)


class TestThetaLimits:
    def test_m_to_boundary(self):
        assert im.theta_limits(1.0, "m_to_boundary", ell=0.73) == pytest.approx(
            math.pi / math.sqrt(0.27), rel=1e-14)

    def test_m_to_zero(self):
        assert im.theta_limits(1.0, "m_to_zero", ell=0.5) == math.pi

    def test_ell_to_lower(self):
        assert im.theta_limits(1.0, "ell_to_lower", m=0.51) == pytest.approx(
            math.pi / math.sqrt(1.0 - math.sqrt(0.51)), rel=1e-14)

    def test_ell_to_upper_diverges(self):
        assert im.theta_limits(1.0, "ell_to_upper", m=0.51) == math.inf

    def test_limits_corroborated_by_quadrature(self):
        ell = 0.6
        approx = im.big_theta(SphericalParams(c=1.0, m=ell * ell - 1e-4, ell=ell))
        assert abs(approx - math.pi / math.sqrt(1.0 - ell)) <= 1e-2
        approx = im.big_theta(SphericalParams(c=1.0, m=1e-6, ell=0.4))
        assert abs(approx - math.pi) <= 1e-2

    def test_range_errors(self):
        with pytest.raises(RangeError):
            im.theta_limits(1.0, "m_to_zero", ell=0.7)
        with pytest.raises(RangeError):
            im.theta_limits(1.0, "ell_to_lower", m=1.5)
        with pytest.raises(RangeError):
            im.theta_limits(1.0, "nonsense", m=0.5)
        with pytest.raises(DomainError):
            im.theta_limits(-1.0, "m_to_zero", ell=0.5)

    @pytest.mark.parametrize("c, which, kw", [
        (math.nan, "m_to_boundary", {"ell": 0.5}),
        (math.inf, "m_to_zero", {"ell": 0.5}),
        (1.0, "m_to_boundary", {"ell": math.nan}),
        (1.0, "ell_to_lower", {"m": math.inf}),
    ])
    def test_non_finite_inputs_rejected(self, c, which, kw):
        with pytest.raises(DomainError):
            im.theta_limits(c, which, **kw)


class TestDetectClosure:
    def test_full_turn(self):
        r = im.detect_closure(2.0 * math.pi)
        assert (r.p, r.q, r.embedded) == (1, 1, True)

    def test_three_halves(self):
        r = im.detect_closure(3.0 * math.pi)
        assert (r.p, r.q, r.embedded) == (3, 2, False)

    def test_non_rational_value(self):
        theta_total = 6.04601
        assert im.detect_closure(theta_total, q_max=10, tol=1e-8) is None
        # brute-force oracle over all p/q with q <= 10
        best = min(abs(q * theta_total - 2.0 * math.pi * p)
                   for q in range(1, 11) for p in range(1, 40))
        assert best > 1e-8

    def test_tolerance_window(self):
        theta_total = 2.0 * math.pi + 5e-9
        assert im.detect_closure(theta_total, tol=1e-8).p == 1
        assert im.detect_closure(theta_total, tol=1e-10) is None

    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 10_000), st.integers(1, 50), st.integers(0, 49))
    def test_round_trips_two_pi_p_over_q(self, p, q, extra):
        g = math.gcd(p, q)
        p, q = p // g, q // g
        r = im.detect_closure(2.0 * math.pi * p / q, q_max=min(q + extra, 50))
        assert (r.p, r.q, r.embedded) == (p, q, p == 1)

    def test_validation(self):
        with pytest.raises(DomainError):
            im.detect_closure(-1.0)
        with pytest.raises(DomainError):
            im.ClosureResult(p=2, q=4, embedded=False)
        with pytest.raises(DomainError):
            im.ClosureResult(p=0, q=1, embedded=True)

    @pytest.mark.parametrize("theta_total, tol", [
        (2.0 * math.pi, math.nan),
        (2.0 * math.pi, math.inf),
        (math.nan, 1e-8),
        (math.inf, 1e-8),
    ])
    def test_non_finite_inputs_rejected(self, theta_total, tol):
        with pytest.raises(DomainError):
            im.detect_closure(theta_total, tol=tol)


class TestSolveForEll:
    def test_embedded_target(self):
        assert 0.5 < EMBEDDED.ell < 25.0 / 32.0
        assert abs(EMBEDDED.ell - 0.73) < 5e-3
        assert abs(im.big_theta(P_EMB) - 2.0 * math.pi) <= 1e-10

    def test_immersed_target(self):
        assert abs(IMMERSED.ell - 0.8700024) <= 1e-6
        assert abs(im.big_theta(P_IMM) - 3.0 * math.pi) <= 1e-10

    def test_generic_embedded_existence(self):
        res = im.solve_for_ell(1.0, 0.5, 1, 1)
        assert 0.5 < res.ell < 25.0 / 32.0
        assert abs(im.big_theta(SphericalParams(c=1.0, m=0.5, ell=res.ell))
                   - 2.0 * math.pi) <= 1e-10

    def test_unreachable_target(self):
        # Theta > pi everywhere on the slice, so 2 pi / 8 cannot bracket
        with pytest.raises(NoBracket, match=(
                r"pi/sqrt\(1 - sqrt\(cm\)\) = 5\.8759127377.*reachable only "
                r"where sqrt\(cm\) < 1 - \(q/\(2p\)\)\^2 = -15\.0")):
            im.solve_for_ell(1.0, 0.51, 1, 8)

    def test_inadmissible_m(self):
        with pytest.raises(NotImmersible):
            im.solve_for_ell(1.0, 1.5, 1, 1)

    @pytest.mark.parametrize("m, p, q, ell", [
        (0.2, 1, 1, 0.5984746070808963),
        (0.12, 1, 1, 0.559815308783648),
        (0.6, 2, 1, 0.7998618981895523),
    ])
    def test_convex_bracket_converges(self, m, p, q, ell):
        # Theta is convex on the first bracket here; a refinement that keeps
        # one bracket end fixed stalls short of the tolerance.
        res = im.solve_for_ell(1.0, m, p, q)
        params = SphericalParams(c=1.0, m=m, ell=res.ell)
        assert abs(im.big_theta(params) - 2.0 * math.pi * p / q) <= 1e-10
        assert res.ell == pytest.approx(ell, rel=1e-13)
        assert (res.closure.p, res.closure.q) == (p, q)
        assert res.closure.embedded == (p == 1)
        assert im.profile_simple_check(params, res.closure) == (p == 1)


    @pytest.mark.parametrize("m, p, q", [
        (0.1, 1, 1), (0.15, 1, 1), (0.25, 1, 1),
        (0.02, 2, 3), (0.05, 2, 3), (0.08, 2, 3), (0.1, 2, 3), (0.15, 2, 3),
    ])
    def test_roots_near_the_upper_boundary(self, m, p, q):
        # the 64-point scan evaluates Theta 1e-9 inside the upper boundary,
        # where quadrature of theta' used to raise QuadratureFailure
        res = im.solve_for_ell(1.0, m, p, q)
        params = SphericalParams(c=1.0, m=m, ell=res.ell)
        assert abs(im.big_theta(params) - 2.0 * math.pi * p / q) <= 1e-10
        assert (res.closure.p, res.closure.q) == (p, q)
        if p == 1:
            assert im.profile_simple_check(params, res.closure)

    def test_root_beyond_the_scan_is_no_bracket(self):
        # the (1, 1) root at m = 0.02 lies 8.0e-10 of the width below the
        # upper end, past the last scan point
        with pytest.raises(NoBracket):
            im.solve_for_ell(1.0, 0.02, 1, 1)

    def test_no_bracket_says_the_root_lies_past_the_scan(self):
        with pytest.raises(NoBracket, match=(
                r"pi/sqrt\(1 - sqrt\(cm\)\) = 3\.3904694216.*is reachable.*"
                r"closer to the upper boundary 0\.51 than the scan reaches")):
            im.solve_for_ell(1.0, 0.02, 1, 1)

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """Arguments of every kernel call immersion makes; big_theta's cache
        is cleared, so that each solve pays for its own."""
        calls = []

        def counted(*args):
            calls.append(args)
            return rf_rj_unguarded(*args)

        monkeypatch.setattr(im, "rf_rj_unguarded", counted)
        im.big_theta.cache_clear()
        return calls

    def test_matches_mpmath_closing_ell_in_few_kernel_calls(self, kernel_calls):
        rows = json.loads((GOLDEN / "closure_mpmath.json").read_text())["rows"]
        assert len(rows) == 39
        for row in rows:
            kernel_calls.clear()
            res = im.solve_for_ell(row["c"], row["m"], row["p"], row["q"])
            target = 2.0 * math.pi * row["p"] / row["q"]
            want = mp.mpf(row["ell"])
            assert abs(res.ell - want) <= 1e-13 * want, row
            assert abs(res.theta_total - target) <= 1e-10, row
            assert len(kernel_calls) <= 10, row

    @pytest.mark.parametrize("cm, p, q", [
        (0.562, 1, 1), (0.5624, 1, 1), (0.56245, 1, 1), (0.7901, 3, 2),
    ])
    def test_roots_near_the_lower_boundary(self, kernel_calls, cm, p, q):
        # closing ell 5e-4 to 5e-3 of the width above the lower end, where
        # Theta is close to linear in ell and so exponential in the logit
        # ln((ell - L)/(U - ell)): Newton in the logit spends its whole step
        # budget bisecting here
        res = im.solve_for_ell(1.0, cm, p, q)
        assert abs(im.big_theta(SphericalParams(c=1.0, m=cm, ell=res.ell))
                   - 2.0 * math.pi * p / q) <= 1e-10
        assert len(kernel_calls) <= 10

    @pytest.mark.parametrize("c, m, p, q", [
        (1.0, 0.51, 1, 1), (1.0, 0.75, 3, 2), (1.0, 0.12, 2, 3),
        (0.5, 0.3, 1, 1), (2.0, 0.35, 5, 4),
    ])
    def test_brackets_equal_a_scalar_scan(self, c, m, p, q):
        target = 2.0 * math.pi * p / q
        delta = 1e-9 * (1.0 + c * m)
        ells = np.linspace(math.sqrt(c * m) + delta,
                           (c * m + 1.0) / 2.0 - delta, 64)
        h = [im.big_theta(SphericalParams(c=c, m=m, ell=float(e))) - target
             for e in ells]
        want = tuple((float(ells[i]), float(ells[i + 1])) for i in range(63)
                     if h[i] == 0.0 or h[i] * h[i + 1] < 0.0)
        assert want and im.solve_for_ell(c, m, p, q).brackets == want

    def test_exhausted_step_budget_is_no_bracket(self, monkeypatch):
        monkeypatch.setattr(im, "_NEWTON_STEPS", 1)
        with pytest.raises(NoBracket, match="after 1 steps"):
            im.solve_for_ell(1.0, 0.5, 1, 1)

    def test_missed_tolerance_is_no_bracket(self):
        with pytest.raises(NoBracket, match="stopped at"):
            im.solve_for_ell(1.0, 0.75, 3, 2, tol=1e-300)

    def test_theta_total_is_big_theta_at_the_root(self, monkeypatch):
        # read through the module attribute, so a replaced big_theta shows
        real = im.big_theta
        monkeypatch.setattr(im, "big_theta",
                            lambda params: real(params) * (1.0 + 1e-6))
        res = im.solve_for_ell(1.0, 0.51, 1, 1)
        assert res.ell == EMBEDDED.ell
        assert res.theta_total == real(P_EMB) * (1.0 + 1e-6)


class TestReachableClosures:
    """2 pi p/q is reached exactly where sqrt(cm) < 1 - (q/(2p))^2: Theta
    runs from pi/sqrt(1 - sqrt(cm)) at the lower end of the slice to +inf
    at the upper end.  So embedded (1, 1) tori need cm < 9/16, (3, 2) needs
    cm < 64/81 and p/q <= 1/2 never closes.  The solved ell depends on
    (c, m) only through cm."""

    @pytest.mark.parametrize("cm, p, q, embedded", [
        (0.1, 1, 1, True), (0.3, 1, 1, True), (0.55, 1, 1, True),
        (0.78, 3, 2, False),
    ])
    def test_reachable_targets_solve(self, cm, p, q, embedded):
        ells = set()
        for c in (0.5, 1.0, 4.0):
            res = im.solve_for_ell(c, cm / c, p, q)
            params = SphericalParams(c=c, m=cm / c, ell=res.ell)
            assert abs(im.big_theta(params) - 2.0 * math.pi * p / q) <= 1e-10
            assert res.closure.embedded is embedded
            assert im.profile_simple_check(params, res.closure) is embedded
            ells.add(res.ell)
        assert len(ells) == 1

    @pytest.mark.parametrize("cm, p, q", [
        (0.57, 1, 1), (0.9, 1, 1), (0.80, 3, 2),
        (0.1, 1, 2), (0.5, 1, 2), (0.9, 1, 2),
    ])
    def test_unreachable_targets_raise(self, cm, p, q):
        for c in (0.5, 1.0, 4.0):
            with pytest.raises(NoBracket, match="reachable only where"):
                im.solve_for_ell(c, cm / c, p, q)


def theta_total_mp(c, m, ell):
    """Theta by 30-digit mpmath quadrature of theta' over one period, in the
    variable u = sqrt(c) s + pi/4 and folded onto [0, pi/2]."""
    c, m, ell = mp.mpf(c), mp.mpf(m), mp.mpf(ell)
    amp = mp.sqrt(ell * ell - c * m)
    d = (1 + c * m - 2 * ell) / (1 - ell + amp)
    top = (ell + amp) * d

    def rate(u):
        s2 = mp.sin(u) ** 2
        cg = ell - amp + 2 * amp * mp.cos(u) ** 2
        cn = top + (2 * ell - 1) * 2 * amp * s2
        return mp.sqrt(cn / cg) / (d + 2 * amp * s2)

    return 2 * mp.quad(rate, [0, mp.mpf("1e-6"), mp.mpf("1e-3"), mp.pi / 4,
                              mp.pi / 2])


class TestComplexStepDerivative:
    """dTheta/dell = Im Theta(ell + 1e-30 i)/1e-30, as solve_for_ell takes it."""

    @staticmethod
    def relative_error(c, m, ell):
        got = complex(im._theta_of_ell(c, m, complex(ell, 1e-30))).imag / 1e-30
        with mp.workdps(30):
            want = mp.diff(lambda e: theta_total_mp(c, m, e), mp.mpf(ell))
        return float(abs(got - want) / want), want

    def test_embedded_example(self):
        err, want = self.relative_error(1.0, 0.51, 0.73)
        assert mp.nstr(want, 16) == "33.46768001509829"
        assert err <= 1e-14

    @pytest.mark.parametrize("c, m, frac", [
        (0.5, 0.2, 0.4), (1.0, 0.51, 1e-6), (1.0, 0.02, 1e-10),
    ])
    def test_interior_and_upper_boundary(self, c, m, frac):
        # frac is the distance (U - ell)/(U - L) from the upper boundary
        lower, upper = math.sqrt(c * m), (1.0 + c * m) / 2.0
        err = self.relative_error(c, m, upper - frac * (upper - lower))[0]
        assert err <= 1e-14

    @pytest.mark.parametrize("c, m, frac, measured", [
        (1.0, 0.51, 1e-6, 3.7e-13), (1.0, 0.1, 1e-8, 6.1e-11),
        (1.0, 0.01, 0.3, 1.9e-13),
    ])
    def test_lower_boundary_and_small_cm(self, c, m, frac, measured):
        # frac is the distance (ell - L)/(U - L) from the lower boundary.
        # Here the derivatives of the alpha and beta terms of Theta nearly
        # cancel (55.6 - 59.3 + 3.9 = 0.23 at cm = 0.01, frac = 0.3), and the
        # relative error grows like eps/A towards the lower boundary, A =
        # sqrt(ell^2 - c m).  Newton needs only a few digits of the slope;
        # the root is set by the value of Theta.
        lower, upper = math.sqrt(c * m), (1.0 + c * m) / 2.0
        err = self.relative_error(c, m, lower + frac * (upper - lower))[0]
        assert err <= 2.0 * measured


class TestMeanCurvature:
    def test_minimal_slice_vanishes(self):
        rng = np.random.default_rng(5)
        for m in (0.05, 0.16, 0.24):
            p = SphericalParams(c=1.0, m=m, ell=0.5)
            for s in rng.uniform(0.0, math.pi, 25):
                assert abs(im.mean_curvature(p, float(s))) <= 1e-12

    def test_embedded_example_value(self):
        h = im.mean_curvature(SphericalParams(c=1.0, m=0.51, ell=0.73), 0.0)
        assert h == pytest.approx(0.5511, abs=1e-3)
        simplified = 0.46 / (2.0 * math.sqrt(0.51 - 0.46 * 0.73))
        assert h == pytest.approx(simplified, rel=1e-12)

    def test_clifford_is_minimal(self):
        assert abs(im.mean_curvature(CLIFFORD, 0.7)) <= 1e-14

    def test_constant_along_profile(self):
        p = SphericalParams(c=1.0, m=0.51, ell=0.73)
        vals = [im.mean_curvature(p, float(s)) for s in np.linspace(0.0, math.pi, 33)]
        assert np.max(np.abs(np.diff(vals))) > 0  # H varies unless ell = 1/2


class TestAmbientPoints:
    def test_profile_start(self):
        pt = im.profile_point(SphericalParams(c=1.0, m=0.51, ell=0.73), 0.0)
        assert pt == pytest.approx(
            [math.sqrt(0.27), 0.0, math.sqrt(0.73), 0.0], abs=1e-14)

    def test_sphere_constraint(self):
        rng = np.random.default_rng(9)
        for c in (0.5, 1.0, 2.0):
            p = SphericalParams(c=c, m=0.3 / c, ell=0.6)
            for _ in range(10):
                s = float(rng.uniform(0.0, 4.0))
                t = float(rng.uniform(0.0, 2.0 * math.pi))
                x = im.surface_point(p, s, t)
                assert abs(float(x @ x) - 1.0 / c) <= 1e-13

    def test_induced_metric_is_warped(self):
        rng = np.random.default_rng(17)
        h = 1e-5
        for _ in range(50):
            s = float(rng.uniform(0.0, math.pi))
            t = float(rng.uniform(0.0, 2.0 * math.pi))
            xs = (im.surface_point(P_EMB, s + h, t)
                  - im.surface_point(P_EMB, s - h, t)) / (2.0 * h)
            xt = (im.surface_point(P_EMB, s, t + h)
                  - im.surface_point(P_EMB, s, t - h)) / (2.0 * h)
            fv = sf.f_closed(P_EMB, s)[0]
            assert abs(float(xs @ xs) - 1.0) <= 1e-6
            assert abs(float(xs @ xt)) <= 1e-6
            assert abs(float(xt @ xt) - fv * fv) <= 1e-6


class TestStereographic:
    def test_equatorial_point_fixed(self):
        pt = np.array([0.6, 0.0, 0.8, 0.0])
        assert im.stereographic(pt, 1.0) == pytest.approx([0.6, 0.0, 0.8])

    def test_north_pole_to_origin(self):
        c = 4.0
        pt = np.array([0.0, 0.0, 0.0, 1.0 / math.sqrt(c)])
        assert im.stereographic(pt, c) == pytest.approx([0.0, 0.0, 0.0])

    def test_pole_rejected(self):
        with pytest.raises(PoleSingularity):
            im.stereographic(np.array([0.0, 0.0, 0.0, -1.0]), 1.0)

    def test_array_matches_per_row_calls(self):
        c = 4.0
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(50, 4))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True) * math.sqrt(c)
        rows = np.array([im.stereographic(pt, c) for pt in pts])
        assert np.array_equal(im.stereographic(pts, c), rows)
        assert im.stereographic(pts.reshape(5, 10, 4), c).shape == (5, 10, 3)

    def test_array_with_one_pole_row_rejected(self):
        pts = np.array([[0.6, 0.0, 0.8, 0.0], [0.0, 0.0, 0.0, -0.5],
                        [0.0, 0.0, 0.0, 0.5]])
        with pytest.raises(PoleSingularity):
            im.stereographic(pts, 4.0)

    def test_embedded_image_finite_and_injective(self):
        rng = np.random.default_rng(31)
        n = 1000
        s = np.sort(rng.uniform(0.0, math.pi, n))
        t = rng.uniform(0.0, 2.0 * math.pi, n)
        thetas = im.theta_grid(P_EMB, s)
        pts = np.array([
            im.stereographic(
                im.surface_point(P_EMB, float(si), float(ti), theta_value=float(th)),
                1.0)
            for si, ti, th in zip(s, t, thetas)
        ])
        assert np.all(np.isfinite(pts))
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        d[np.arange(n), np.arange(n)] = np.inf
        assert float(d.min()) > 0.0


def _segments_intersect(p, q):
    """Boolean matrix of proper/improper crossings between segment sets.

    p, q: arrays (n, 2, 2) of segment endpoints; entry [i, j] is True when
    segment i of p meets segment j of q.
    """

    def orient(a, b, c):
        return ((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
                - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0]))

    a = p[:, None, 0]
    b = p[:, None, 1]
    c = q[None, :, 0]
    d = q[None, :, 1]
    d1 = orient(c, d, a)
    d2 = orient(c, d, b)
    d3 = orient(a, b, c)
    d4 = orient(a, b, d)
    return (((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
            | (d1 == 0) & (d2 == 0) & (d3 == 0) & (d4 == 0)
            & _collinear_overlap(a, b, c, d))


def _collinear_overlap(a, b, c, d):
    lo1 = np.minimum(a, b)
    hi1 = np.maximum(a, b)
    lo2 = np.minimum(c, d)
    hi2 = np.maximum(c, d)
    return np.all((lo1 <= hi2) & (lo2 <= hi1), axis=-1)


def dense_simple_reference(params, closure, n_samples=1024):
    """The O(n^2) test profile_simple_check used to run: True when no two
    non-adjacent edges of the same sampled closed polygon meet."""
    s = np.linspace(0.0, closure.q * params.period, n_samples, endpoint=False)
    thetas = im.theta_grid(params, s)
    f = sf.f_closed(params, s)[0]
    r = np.sqrt(np.maximum(1.0 / params.c - f * f, 0.0))
    pts = np.stack([r * np.cos(thetas), r * np.sin(thetas)], axis=1)
    segs = np.stack([pts, np.roll(pts, -1, axis=0)], axis=1)
    idx = np.arange(n_samples)
    gap = np.abs(idx[:, None] - idx[None, :])
    gap = np.minimum(gap, n_samples - gap)
    return not bool(np.any(_segments_intersect(segs, segs) & (gap > 1)))


class TestProfileSimpleCheck:
    # Theta = 2 pi p / q = pi is out of reach (Theta > pi on every slice), so
    # (2, 1) stands in for (1, 2).
    @pytest.mark.parametrize("c, m, p, q", [
        (1.0, 0.51, 1, 1), (1.0, 0.75, 2, 1), (1.0, 0.75, 3, 2),
        (1.0, 0.12, 2, 3), (1.0, 0.2, 3, 4), (4.0, 0.1275, 1, 1),
    ])
    def test_certificate_matches_dense_reference(self, c, m, p, q):
        solved = im.solve_for_ell(c, m, p, q)
        params = SphericalParams(c=c, m=m, ell=solved.ell)
        simple = im.profile_simple_check(params, solved.closure)
        assert simple is dense_simple_reference(params, solved.closure)
        assert simple is (p == 1)

    def test_coarse_sampling_raises(self):
        # 6 pi of turn over 4 steps: some step turns by at least pi
        with pytest.raises(DomainError):
            im.profile_simple_check(P_IMM, IMMERSED.closure, n_samples=4)

    @pytest.mark.parametrize("n_samples", [0, 1, 2])
    def test_fewer_than_three_samples_raise(self, n_samples):
        with pytest.raises(DomainError):
            im.profile_simple_check(P_EMB, EMBEDDED.closure, n_samples=n_samples)

    def test_embedded_profile_is_simple(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert im.profile_simple_check(P_EMB, EMBEDDED.closure) is True

    def test_immersed_profile_self_intersects(self):
        assert im.profile_simple_check(P_IMM, IMMERSED.closure) is False

    def test_closure_required(self):
        with pytest.raises(DomainError):
            im.profile_simple_check(CLIFFORD, None)

    @pytest.mark.parametrize("ell", [0.5, 0.9, 0.97])
    def test_constant_boundary_circle_is_simple(self, ell):
        # f is constant, so one circuit is the circle theta in [0, 2 pi),
        # not a period of f
        params = SphericalParams(c=1.0, m=ell * ell, ell=ell)
        closure = im.ClosureResult(p=1, q=1, embedded=True)
        assert im.profile_simple_check(params, closure) is True

    def test_level_that_does_not_close_raises_seam_mismatch(self):
        params = SphericalParams(c=1.0, m=0.51, ell=0.74)  # Theta irrational
        with pytest.raises(SeamMismatch):
            im.profile_simple_check(
                params, im.ClosureResult(p=1, q=1, embedded=True))


class TestBuildProfile:
    def test_is_the_mesh_sampler(self):
        assert mesh_io.build_profile is im.build_profile

    def test_nan_seam_raises_seam_mismatch(self, monkeypatch):
        monkeypatch.setattr(im, "theta", lambda params, s: math.nan)
        with pytest.raises(SeamMismatch):
            im.build_profile(P_EMB, EMBEDDED.closure, 64)

    def test_array_profile_point_matches_scalar_calls(self):
        prof = im.build_profile(P_IMM, IMMERSED.closure, 64)
        for s, th, pt in zip(prof.s, prof.theta, prof.points):
            assert np.array_equal(
                im.profile_point(P_IMM, float(s), theta_value=float(th)), pt)
        # without theta_value, the array kernel runs until its slowest
        # element converges, which moves theta in its last bits
        s = prof.s[:8].reshape(2, 4)
        grid = im.profile_point(P_IMM, s)
        assert grid.shape == (2, 4, 4)
        for i, j in np.ndindex(s.shape):
            assert np.max(np.abs(grid[i, j] - im.profile_point(
                P_IMM, float(s[i, j])))) <= 1e-15

    def test_non_finite_theta_is_quadrature_failure(self):
        with pytest.raises(QuadratureFailure, match="not finite"):
            im.build_profile(SphericalParams(c=1.0, m=1e-170, ell=0.3),
                             im.ClosureResult(p=1, q=2, embedded=True), 64)
