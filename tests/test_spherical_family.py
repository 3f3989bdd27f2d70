import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricci_lab import spherical_family as sf
from ricci_lab import warped_geometry as wg
from ricci_lab.errors import DomainError, OutsideFamily, RangeError
from ricci_lab.phase_portrait import RicciParams
from ricci_lab.spherical_family import (
    Classification,
    SphericalParams,
    Verdict,
)


class TestClassify:
    def test_first_example_is_prime(self):
        assert sf.classify(1.0, 0.51, 0.73) is Classification.INTERIOR_LAMBDA_PRIME

    def test_interior_but_not_prime(self):
        # (cm + 1)/2 = 0.53125 < 0.75
        assert sf.classify(1.0, 0.0625, 0.75) is Classification.INTERIOR_LAMBDA

    def test_constant_boundary(self):
        assert sf.classify(1.0, 0.25, 0.5) is Classification.BOUNDARY_CONSTANT

    def test_outside_cases(self):
        assert sf.classify(1.0, -0.1, 0.5) is Classification.OUTSIDE
        assert sf.classify(1.0, 0.0, 0.5) is Classification.OUTSIDE
        assert sf.classify(1.0, 0.5, 0.3) is Classification.OUTSIDE

    def test_nonpositive_c_rejected(self):
        with pytest.raises(DomainError):
            sf.classify(0.0, 0.5, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        for c, m, ell in ((bad, 0.5, 0.8), (1.0, bad, 0.8), (1.0, 0.5, bad)):
            with pytest.raises(DomainError):
                sf.classify(c, m, ell)
            with pytest.raises(DomainError):
                SphericalParams(c=c, m=m, ell=ell)

    @pytest.mark.parametrize("c, m, ell, want", [
        # ell^2 or c m overflows; the test runs on values scaled by 2^-600
        (1.0, 2.0, 1.3407807929942597e154, Classification.INTERIOR_LAMBDA),
        (1.0, 1e308, 1e300, Classification.INTERIOR_LAMBDA),
        (4.0, 1e308, 2e154, Classification.BOUNDARY_CONSTANT),
        (1e308, 1e308, 1e308, Classification.BOUNDARY_CONSTANT),
        (1e300, 1e300, 1e299, Classification.OUTSIDE),
        # the boundary band is relative to ell^2 + c m, not to 1 + ell^2
        (1.0, 1e-300, 1e-300, Classification.OUTSIDE),
        (1.0, 1e-20, 1e-10, Classification.BOUNDARY_CONSTANT),
        (1.0, 1e-20, 1.000001e-10, Classification.INTERIOR_LAMBDA_PRIME),
    ])
    def test_extreme_magnitudes(self, c, m, ell, want):
        assert sf.classify(c, m, ell) is want

    @settings(max_examples=200)
    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_total_on_finite_inputs(self, c, m, ell):
        if c <= 0:
            with pytest.raises(DomainError):
                sf.classify(c, m, ell)
        else:
            assert isinstance(sf.classify(c, m, ell), Classification)

    @settings(max_examples=100)
    @given(st.lists(st.floats(), min_size=3, max_size=3),
           st.sets(st.integers(0, 2), min_size=1),
           st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_non_finite_inputs_raise_domain_error(self, values, where, bad):
        for i in where:
            values[i] = bad
        with pytest.raises(DomainError):
            sf.classify(*values)


class TestClosedForm:
    def test_value_at_origin(self):
        f, _, _ = sf.f_closed(SphericalParams(c=1.0, m=0.51, ell=0.73), 0.0)
        assert f == pytest.approx(math.sqrt(0.73), rel=1e-14)

    def test_maximum_at_quarter_period(self):
        for c in (0.5, 1.0, 2.0):
            p = SphericalParams(c=c, m=0.4 / c, ell=0.8)
            f, f1, _ = sf.f_closed(p, math.pi / (4.0 * math.sqrt(c)))
            assert f * f == pytest.approx(p.f_sq_max, rel=1e-13)
            assert f1 == pytest.approx(0.0, abs=1e-13)

    def test_constant_solution(self):
        p = SphericalParams(c=1.0, m=0.25, ell=0.5)
        for s in (0.0, 0.4, 2.0):
            f, f1, f2 = sf.f_closed(p, s)
            assert f == pytest.approx(0.25 ** 0.25, rel=1e-14)
            assert f1 == pytest.approx(0.0, abs=1e-14)
            assert f2 == pytest.approx(0.0, abs=1e-14)

    def test_periodicity(self):
        rng = np.random.default_rng(11)
        p = SphericalParams(c=2.0, m=0.3, ell=1.1)
        period = math.pi / math.sqrt(2.0)
        for s in rng.uniform(-5.0, 5.0, 20):
            f0 = sf.f_closed(p, float(s))[0]
            f1 = sf.f_closed(p, float(s) + period)[0]
            assert abs(f1 - f0) <= 1e-13

    def test_bounds_and_positivity(self):
        p = SphericalParams(c=1.0, m=0.51, ell=0.73)
        s = np.linspace(-3.0, 3.0, 400)
        f = sf.f_closed(p, s)[0]
        assert np.all(f > 0)
        assert np.all(f * f >= p.f_sq_min - 1e-14)
        assert np.all(f * f <= p.f_sq_max + 1e-14)
        assert p.f_sq_min > 0

    def test_outside_family_raises(self):
        with pytest.raises(OutsideFamily):
            sf.f_closed(SphericalParams(c=1.0, m=0.5, ell=0.3), 0.0)


class TestEdoResidual:
    def test_interior_grid(self):
        p = SphericalParams(c=1.0, m=0.51, ell=0.73)
        grid = np.linspace(0.0, math.pi, 1024)
        assert sf.edo_residual(p, grid) <= 1e-12

    def test_constant_boundary(self):
        p = SphericalParams(c=1.0, m=0.25, ell=0.5)
        assert sf.edo_residual(p, np.linspace(0.0, 3.0, 64)) <= 1e-14

    def test_tampered_level_shifts_linearly(self):
        p = SphericalParams(c=1.0, m=0.51, ell=0.73)
        f, f1, _ = sf.f_closed(p, np.linspace(0.0, math.pi, 64))
        tampered = f1 * f1 + f * f + 0.51 / (f * f) - 2.0 * (0.73 + 0.01)
        assert np.max(np.abs(tampered)) == pytest.approx(0.02, abs=1e-10)


class TestCurvatureRange:
    def test_closed_form_endpoints(self):
        r = sf.curvature_range(SphericalParams(c=1.0, m=1.0, ell=2.0))
        assert r.L1 == pytest.approx((2.0 - math.sqrt(3.0)) ** 2, rel=1e-12)
        assert r.L2 == pytest.approx((2.0 + math.sqrt(3.0)) ** 2, rel=1e-12)

    def test_matches_numerical_extremes(self):
        p = SphericalParams(c=1.0, m=1.0, ell=2.0)
        r = sf.curvature_range(p)
        grid = np.linspace(0.0, math.pi, 4001)
        vals = 1.0 / sf.f_closed(p, grid)[0] ** 4
        assert r.L1 == pytest.approx(float(vals.min()), rel=1e-10)
        assert r.L2 == pytest.approx(float(vals.max()), rel=1e-10)

    def test_constant_boundary_is_flat(self):
        r = sf.curvature_range(SphericalParams(c=1.0, m=0.25, ell=0.5))
        assert r.L1 == r.L2 == pytest.approx(1.0, rel=1e-14)

    def test_small_m_limit(self):
        # as m -> 0 the curvature tends to c away from the cusps (L1 -> 0)
        # while the worst-case gap L2 = m c^2/(ell - amp)^2 ~ 4 ell^2/m blows up
        r = sf.curvature_range(SphericalParams(c=1.0, m=1e-10, ell=0.5))
        assert 0 < r.L1 < 1e-9
        assert r.L2 > 1e8

    def test_curvature_below_c_everywhere(self):
        p = SphericalParams(c=1.0, m=0.51, ell=0.73)
        profile = sf.metric_profile(p)
        for s in np.linspace(0.0, math.pi, 65):
            assert wg.gaussian_curvature(profile, float(s)) < 1.0

    def test_curvature_gap_is_periodic(self):
        for c in (0.5, 2.0):
            p = SphericalParams(c=c, m=0.4 / c, ell=0.9)
            profile = sf.metric_profile(p)
            period = math.pi / math.sqrt(c)
            for s in np.linspace(-1.0, 1.0, 9):
                k0 = wg.gaussian_curvature(profile, float(s))
                k1 = wg.gaussian_curvature(profile, float(s) + period)
                assert abs((c - k1) - (c - k0)) <= 1e-12


class TestPrimeCriterion:
    def test_prime_iff_f_below_sphere_radius(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            c = rng.uniform(0.5, 2.0)
            m = rng.uniform(0.01, 2.0 / c)
            ell = math.sqrt(c * m) + rng.uniform(1e-3, 1.0)
            cls = sf.classify(c, m, ell)
            if cls is Classification.OUTSIDE:
                continue
            p = SphericalParams(c=c, m=m, ell=ell)
            is_prime = cls is Classification.INTERIOR_LAMBDA_PRIME
            assert is_prime == (p.f_sq_max < 1.0 / c)

    def test_rescale_preserves_admissibility(self):
        p = RicciParams(a=4.0, c=1.0, m=0.0625, ell=0.75)
        assert sf.classify(1.0, 0.0625, 0.75) is Classification.INTERIOR_LAMBDA
        for eta in (0.5, 2.0, 7.0):
            img = wg.rescale_params(p, eta)
            assert sf.classify(img.c, img.m, img.ell) is Classification.INTERIOR_LAMBDA


class TestNonIsometry:
    def test_distinct_levels_distinguished(self):
        v = sf.nonisometry_certificate(
            1.0, SphericalParams(c=1.0, m=1.0, ell=2.0),
            SphericalParams(c=1.0, m=1.0, ell=3.0))
        assert v.verdict is Verdict.NON_ISOMETRIC
        assert "L1" in v.witness

    def test_scaling_family_is_inconclusive(self):
        v = sf.nonisometry_certificate(
            1.0, SphericalParams(c=1.0, m=1.0, ell=2.0),
            SphericalParams(c=1.0, m=4.0, ell=4.0))
        assert v.verdict is Verdict.INCONCLUSIVE

    def test_identical_parameters(self):
        p = SphericalParams(c=1.0, m=1.0, ell=2.0)
        v = sf.nonisometry_certificate(1.0, p, p)
        assert v.verdict is Verdict.SAME_PARAMETERS

    def test_non_interior_rejected(self):
        with pytest.raises(OutsideFamily):
            sf.nonisometry_certificate(
                1.0, SphericalParams(c=1.0, m=0.25, ell=0.5),
                SphericalParams(c=1.0, m=1.0, ell=2.0))


class TestDelaunay:
    def test_on_locus(self):
        b, h = sf.delaunay_parameters(SphericalParams(c=1.0, m=0.0625, ell=0.75))
        assert b == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert h == pytest.approx(1.0, rel=1e-14)
        # substitute back: 4 c m = (1 - 2 ell)^2
        assert 4.0 * 1.0 * 0.0625 == pytest.approx((1.0 - 2.0 * 0.75) ** 2)

    def test_off_locus(self):
        assert sf.delaunay_parameters(SphericalParams(c=1.0, m=0.51, ell=0.73)) is None

    def test_clifford_corner_classified_constant_first(self):
        p = SphericalParams(c=1.0, m=0.25, ell=0.5)
        assert p.classification is Classification.BOUNDARY_CONSTANT
        assert sf.delaunay_parameters(p) is None


class TestMinimalMap:
    def test_forward_map(self):
        assert sf.minimal_params(1.0, 0.6) == (pytest.approx(0.16), 0.5)

    def test_profile_matches_minimal_family(self):
        # f_{m,1/2} must coincide pointwise with sqrt((1 + j sin(2 sqrt(c) s))/(2c))
        for c, j in ((1.0, 0.6), (2.0, 0.35)):
            m, ell = sf.minimal_params(c, j)
            p = SphericalParams(c=c, m=m, ell=ell)
            s = np.linspace(0.0, 2.0 * math.pi, 257)
            f = sf.f_closed(p, s)[0]
            zj = np.sqrt((1.0 + j * np.sin(2.0 * math.sqrt(c) * s)) / (2.0 * c))
            assert np.max(np.abs(f - zj)) <= 1e-14

    def test_inverse_map(self):
        assert sf.minimal_modulus(1.0, 0.16) == pytest.approx(0.6, rel=1e-14)

    def test_roundtrip(self):
        for j in (0.1, 0.5, 0.93):
            m, _ = sf.minimal_params(2.0, j)
            assert sf.minimal_modulus(2.0, m) == pytest.approx(j, rel=1e-12)

    def test_limiting_moduli(self):
        m_near_geodesic, _ = sf.minimal_params(1.0, 1.0 - 1e-12)
        assert m_near_geodesic < 1e-12
        m_near_clifford, _ = sf.minimal_params(1.0, 1e-12)
        assert m_near_clifford == pytest.approx(0.25, rel=1e-10)

    def test_range_errors(self):
        with pytest.raises(RangeError):
            sf.minimal_params(1.0, 0.0)
        with pytest.raises(RangeError):
            sf.minimal_params(1.0, 1.0)
        with pytest.raises(RangeError):
            sf.minimal_modulus(1.0, 0.3)
        with pytest.raises(DomainError):
            sf.minimal_params(-1.0, 0.5)

    @pytest.mark.parametrize("c, x", [(math.nan, 0.5), (math.inf, 0.5),
                                      (1.0, math.nan), (1.0, -math.inf)])
    def test_non_finite_inputs_rejected(self, c, x):
        with pytest.raises(DomainError):
            sf.minimal_params(c, x)
        with pytest.raises(DomainError):
            sf.minimal_modulus(c, x * 0.1)
