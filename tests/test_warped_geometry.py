import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricci_lab import spherical_family as sf
from ricci_lab import warped_geometry as wg
from ricci_lab.errors import (
    DegenerateProfile,
    DomainError,
    InvalidScale,
    NonFiniteDerivative,
)
from ricci_lab.phase_portrait import RicciParams
from ricci_lab.spherical_family import SphericalParams


def sin_derivs(s):
    return np.sin(s), np.cos(s), -np.sin(s), -np.cos(s), np.sin(s)


def cos_derivs(s):
    return np.cos(s), -np.sin(s), -np.cos(s), np.sin(s), np.cos(s)


def sin_profile():
    return wg.MetricProfile(derivs=sin_derivs, domain=(0.0, math.pi))


def flat_profile():
    def derivs(s):
        zero = np.zeros_like(s)
        return np.ones_like(s), zero, zero, zero, zero

    return wg.MetricProfile(derivs=derivs)


class TestGaussianCurvature:
    def test_sine_profile_has_unit_curvature(self):
        assert wg.gaussian_curvature(sin_profile(), math.pi / 2) == pytest.approx(1.0, abs=1e-14)

    def test_flat_cylinder_has_zero_curvature(self):
        assert wg.gaussian_curvature(flat_profile(), 0.3) == 0.0

    def test_family_curvature_at_origin(self):
        # K(0) = c - m / f(0)^4 with f(0)^2 = ell
        params = SphericalParams(c=1.0, m=0.51, ell=0.73)
        profile = sf.metric_profile(params)
        k = wg.gaussian_curvature(profile, 0.0)
        assert k == pytest.approx(1.0 - 0.51 / 0.73**2, abs=1e-12)

    def test_curvature_gap_identity_on_grid(self):
        rng = np.random.default_rng(7)
        for c in (0.5, 1.0, 2.0):
            m = rng.uniform(0.1, 1.5)
            ell = math.sqrt(c * m) + rng.uniform(0.05, 1.0)
            params = SphericalParams(c=c, m=m, ell=ell)
            profile = sf.metric_profile(params)
            grid = np.linspace(-1.0, 4.0, 33)
            k = wg.gaussian_curvature(profile, grid)
            f = profile.derivs(grid)[0]
            assert np.all(np.abs(k - (c - m * f**-4)) <= 1e-10 * (1.0 + abs(c)))

    def test_array_matches_scalar_calls(self):
        profile = sf.metric_profile(SphericalParams(c=2.0, m=0.2, ell=0.9))
        grid = np.linspace(-1.0, 4.0, 33)
        k = wg.gaussian_curvature(profile, grid)
        assert k.shape == grid.shape
        for s, ks in zip(grid, k):
            assert wg.gaussian_curvature(profile, float(s)) == ks

    def test_outside_domain_raises(self):
        with pytest.raises(DomainError):
            wg.gaussian_curvature(sin_profile(), 4.0)

    def test_nonpositive_f_raises(self):
        bad = wg.MetricProfile(derivs=cos_derivs, domain=(0.0, math.pi))
        with pytest.raises(DegenerateProfile):
            wg.gaussian_curvature(bad, 2.0)


class TestLaplacian:
    def test_constant_scalar(self):
        # u = 5: u' = u'' = 0
        assert wg.laplacian_rotinv(sin_profile(), 1.0, du=0.0, d2u=0.0) == 0.0

    def test_flat_metric_s_squared(self):
        # u = s^2: u' = 2 s, u'' = 2
        assert wg.laplacian_rotinv(flat_profile(), 0.7, du=2.0 * 0.7,
                                   d2u=2.0) == pytest.approx(2.0)

    def test_log_curvature_gap_satisfies_linear_equation(self):
        # for the a=4 family, Lap log(c - K) = 4 K with b = 0
        params = SphericalParams(c=1.0, m=0.51, ell=0.73)
        profile = sf.metric_profile(params)
        # u = log(c - K) = log(m) - 4 log f
        grid = np.linspace(0.0, math.pi, 17)
        f, f1, f2, _, _ = sf.f_derivs(params, grid)
        du = -4.0 * f1 / f
        d2u = -4.0 * (f2 / f - (f1 / f) ** 2)
        lap = wg.laplacian_rotinv(profile, grid, du, d2u)
        k = wg.gaussian_curvature(profile, grid)
        assert lap == pytest.approx(4.0 * k, abs=1e-11)


class TestRicciResidual:
    def test_constant_curvature_chart(self):
        grid = np.linspace(0.3, math.pi - 0.3, 32)
        report = wg.ricci_residual(sin_profile(), wg.RicciType(a=4.0, c=1.0),
                                   grid)
        assert report.max_normalized <= 1e-10

    def test_flat_cylinder(self):
        report = wg.ricci_residual(flat_profile(), wg.RicciType(a=4.0, c=1.0),
                                   np.linspace(-2.0, 2.0, 16))
        assert report.max_normalized == 0.0

    def test_closed_form_family_residual(self):
        params = SphericalParams(c=1.0, m=0.5, ell=0.8)
        profile = sf.metric_profile(params)
        grid = np.linspace(0.0, math.pi, 512)
        report = wg.ricci_residual(profile, wg.RicciType(a=4.0, c=1.0), grid)
        assert report.max_normalized <= 1e-8

    def test_overflowing_derivatives_raise_without_warnings(self):
        # f^2 is about ell / c = 9e168, so the fourth derivative overflows:
        # a typed error, and no numpy RuntimeWarning on the way to it
        params = SphericalParams(c=2.248430648807506e-169, m=2.0, ell=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteDerivative):
                wg.ricci_residual(sf.metric_profile(params),
                                  wg.RicciType(a=4.0, c=params.c),
                                  np.linspace(0.0, params.period, 8))

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            wg.ricci_residual(flat_profile(), wg.RicciType(a=4.0, c=1.0), [])

    @pytest.mark.parametrize("grid", [0.5, [[0.5, 0.6], [0.7, 0.8]]])
    def test_grid_that_is_not_one_dimensional_rejected(self, grid):
        profile = sf.metric_profile(SphericalParams(c=1.0, m=0.5, ell=0.8))
        with pytest.raises(DomainError):
            wg.ricci_residual(profile, wg.RicciType(a=4.0, c=1.0), grid)


def pointwise_residual_reference(params, s_grid, a=4.0, b=0.0):
    """The closed-form residual one grid point at a time, each derivative a
    separate scalar f_derivs call: (residuals, max_normalized, scale)."""
    c = params.c
    residuals = []
    gap_max = 0.0
    for s in np.asarray(s_grid, dtype=float):
        fv, f1, f2, f3, f4 = (float(sf.f_derivs(params, s)[i]) for i in range(5))
        k = -f2 / fv
        k1 = -f3 / fv + f2 * f1 / fv**2
        k2 = (-f4 / fv + 2.0 * f3 * f1 / fv**2 + f2**2 / fv**2
              - 2.0 * f2 * f1**2 / fv**3)
        lap_k = k2 + (f1 / fv) * k1
        gap = k - c
        gap_max = max(gap_max, abs(gap))
        residuals.append(gap * lap_k - k1 * k1 - (a * k + b) * gap * gap)
    residuals = np.asarray(residuals)
    scale = max(1.0, gap_max, gap_max**3)
    return residuals, float(np.max(np.abs(residuals)) / scale), scale


def assert_matches_reference(params, grid, tol=1e-14):
    """Array route against the reference, within tol relative to the scale."""
    report = wg.ricci_residual(sf.metric_profile(params),
                               wg.RicciType(a=4.0, c=params.c), grid)
    residuals, max_normalized, scale = pointwise_residual_reference(params, grid)
    assert report.scale == pytest.approx(scale, rel=tol)
    assert np.max(np.abs(report.residuals - residuals)) <= tol * scale
    assert abs(report.max_normalized - max_normalized) <= tol
    return report


class TestArrayResidual:
    @pytest.mark.parametrize("c, m, ell", [
        (1.0, 0.5, 0.8), (1.0, 0.51, 0.73), (2.0, 0.2, 0.9),
        (0.5, 1.0, 0.9), (4.0, 0.1275, 0.73),
    ])
    def test_matches_pointwise_reference(self, c, m, ell):
        params = SphericalParams(c=c, m=m, ell=ell)
        period = params.period
        for grid in (np.linspace(-1.5 * period, 2.0 * period, 211),
                     np.linspace(0.0, period, 512)):
            assert_matches_reference(params, grid)

    @settings(deadline=None, max_examples=60)
    @given(c=st.floats(0.25, 4.0), cm=st.floats(1e-3, 3.0),
           gap=st.floats(1e-6, 3.0), s0=st.floats(-10.0, 10.0))
    def test_admissible_family_solves_equation(self, c, cm, gap, s0):
        params = SphericalParams(c=c, m=cm / c, ell=math.sqrt(cm) + gap)
        grid = s0 + np.linspace(0.0, 2.0 * params.period, 64)
        # Array and scalar sin/cos may differ in the last bit, and the
        # rounding of f^2 near its minimum grows like f_sq_max / f_sq_min
        # (about 2 ell^2 / (c m) when c m is small).
        cond = params.f_sq_max / params.f_sq_min
        report = assert_matches_reference(
            params, grid, tol=8.0 * np.finfo(float).eps * cond)
        assert report.max_normalized <= 1e-8

    def test_one_f_derivs_call_per_residual(self, monkeypatch):
        calls = []
        real = sf.f_derivs

        def counted(params, s):
            calls.append(np.shape(s))
            return real(params, s)

        monkeypatch.setattr(sf, "f_derivs", counted)
        params = SphericalParams(c=1.0, m=0.5, ell=0.8)
        profile = sf.metric_profile(params)
        wg.ricci_residual(profile, wg.RicciType(a=4.0, c=1.0),
                          np.linspace(0.0, params.period, 512))
        assert calls == [(512,)]

    def test_constant_curvature_chart_with_derivs(self):
        profile = sin_profile()
        report = wg.ricci_residual(profile, wg.RicciType(a=4.0, c=1.0),
                                   np.linspace(0.01, math.pi - 0.01, 32))
        assert report.max_normalized <= 1e-14

    def test_one_point_outside_domain_raises(self):
        profile = sin_profile()
        grid = np.linspace(0.5, 2.5, 9)
        grid[6] = 4.0
        with pytest.raises(DomainError, match="s=4.0 outside"):
            wg.ricci_residual(profile, wg.RicciType(a=4.0, c=1.0), grid)
        grid[6] = math.nan
        with pytest.raises(DomainError, match="s=nan outside"):
            wg.ricci_residual(profile, wg.RicciType(a=4.0, c=1.0), grid)

    def test_one_nonpositive_point_raises(self):
        profile = wg.MetricProfile(derivs=cos_derivs)
        grid = np.linspace(-1.0, 1.0, 9)
        grid[3] = 2.0
        with pytest.raises(DegenerateProfile, match=r"f\(2.0\)"):
            wg.ricci_residual(profile, wg.RicciType(a=4.0, c=1.0), grid)


class TestRescale:
    def test_identity(self):
        p = RicciParams(a=4.0, c=1.0, m=0.51, ell=0.73)
        assert wg.rescale_params(p, 1.0) == p

    def test_example_image(self):
        p = wg.rescale_params(RicciParams(a=4.0, c=1.0, m=0.51, ell=0.73), 4.0)
        assert (p.a, p.c, p.m, p.ell) == (4.0, 0.25, 2.04, 0.73)
        assert math.sqrt(p.c * p.m) < p.ell  # admissibility preserved

    def test_rescaled_profile_solves_rescaled_equation(self):
        # f~(s~) = sqrt(eta) f(s~ / sqrt(eta)) must satisfy
        # f~'' = m~ f~^(1-a) - c~ f~ for the image parameters
        eta = 4.0
        base = SphericalParams(c=1.0, m=0.51, ell=0.73)
        img = wg.rescale_params(RicciParams(a=4.0, c=1.0, m=0.51, ell=0.73), eta)
        root = math.sqrt(eta)
        for st in np.linspace(0.0, 2.0 * math.pi, 25):
            f, _, f2, _, _ = sf.f_derivs(base, st / root)
            ft = root * f
            ft2 = f2 / root
            assert ft2 == pytest.approx(img.m * ft ** (1.0 - img.a) - img.c * ft,
                                        abs=1e-12)

    def test_composition_law(self):
        p = RicciParams(a=4.0, c=1.0, m=1.0, ell=2.0)
        once = wg.rescale_params(wg.rescale_params(p, 2.0), 3.0)
        joint = wg.rescale_params(p, 6.0)
        assert once == joint

    def test_composition_law_fractional_exponent(self):
        p = RicciParams(a=3.0, c=1.0, m=1.0, ell=2.0)
        once = wg.rescale_params(wg.rescale_params(p, 2.0), 3.0)
        joint = wg.rescale_params(p, 6.0)
        assert once.c == pytest.approx(joint.c, rel=1e-15)
        assert once.m == pytest.approx(joint.m, rel=1e-15)
        assert (once.a, once.ell) == (joint.a, joint.ell)

    def test_product_of_circles_scaling_chain(self):
        # metric scaling by eta changes c by 1/eta^2 (two rescale steps);
        # eta = 1/(2 r1 sqrt(c_new)) carries c = 1/(4 r1^2) onto c_new
        r1 = 0.7
        c = 1.0 / (4.0 * r1 * r1)
        c_new = 2.0
        eta = 1.0 / (2.0 * r1 * math.sqrt(c_new))
        p = RicciParams(a=4.0, c=c, m=0.3, ell=math.sqrt(c * 0.3) + 0.2)
        img = wg.rescale_params(wg.rescale_params(p, eta), eta)
        assert img.c == pytest.approx(c_new, rel=1e-14)
        assert math.sqrt(img.c * img.m) < img.ell

    def test_invalid_scale(self):
        p = RicciParams(a=4.0, c=1.0, m=0.51, ell=0.73)
        with pytest.raises(InvalidScale):
            wg.rescale_params(p, 0.0)
        with pytest.raises(InvalidScale):
            wg.rescale_params(p, -2.0)


class TestTypes:
    def test_ricci_type_requires_finite_fields(self):
        with pytest.raises(DomainError):
            wg.RicciType(a=math.nan, c=1.0)

    def test_closed_form_derivatives_match_finite_differences(self):
        params = SphericalParams(c=1.0, m=0.51, ell=0.73)
        profile = sf.metric_profile(params)

        def f(s):
            return float(profile.derivs(s)[0])

        h1, h2 = 1e-6, 1e-4
        for s in np.linspace(0.1, math.pi, 64):
            s = float(s)
            _, df, d2f, _, _ = profile.derivs(s)
            fd1 = (f(s + h1) - f(s - h1)) / (2.0 * h1)
            fd2 = (f(s + h2) - 2.0 * f(s) + f(s - h2)) / (h2 * h2)
            assert abs(df - fd1) <= 1e-6 * max(1.0, abs(fd1))
            assert abs(d2f - fd2) <= 1e-6 * max(1.0, abs(fd2))
