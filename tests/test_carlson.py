import itertools
import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest

from ricci_lab._carlson import rf_rj
from ricci_lab.errors import QuadratureFailure

SPAN = (1e-300, 1e-160, 1e-20, 0.3, 1e3)


def mp_reference(x, y, z, p):
    """mpmath R_F, R_J at 30 digits; elliprj needs about as many more digits
    as p lies decades below 1, or it returns a wrong value (or inf)."""
    with mp.workdps(30):
        rf = mp.elliprf(x, y, z)
    with mp.workdps(30 + max(0, int(-math.log10(p)))):
        return rf, mp.elliprj(x, y, z, p)


@pytest.mark.parametrize("x", [0.0, 0.5])
def test_matches_mpmath_across_300_decades(x):
    failures = []
    for (y, z), p in itertools.product(
            itertools.combinations_with_replacement(SPAN, 2), SPAN):
        ref_f, ref_j = mp_reference(x, y, z, p)
        if ref_j > sys.float_info.max:
            # the true value is not representable: raise, never inf or NaN
            with pytest.raises(QuadratureFailure):
                rf_rj(x, y, z, p)
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rf, rj = rf_rj(x, y, z, p)
        # a NaN compares false, so finiteness is asserted on its own
        assert math.isfinite(rf) and math.isfinite(rj), (x, y, z, p)
        err_f = float(abs(rf - ref_f) / ref_f)
        err_j = float(abs(rj - ref_j) / ref_j)
        if max(err_f, err_j) > 2e-15:
            failures.append((y, z, p, err_f, err_j))
    assert not failures


def test_broadcasts_and_matches_scalar_calls():
    y = np.array([1.0, 2.0, 5.0])
    z = np.array([[0.25], [3.0]])
    rf, rj = rf_rj(0.0, y, z, 0.7)
    assert rf.shape == rj.shape == (2, 3)
    for i, j in itertools.product(range(2), range(3)):
        f1, j1 = rf_rj(0.0, y[j], z[i, 0], 0.7)
        assert rf[i, j] == pytest.approx(f1, rel=4e-16)
        assert rj[i, j] == pytest.approx(j1, rel=4e-16)


def test_special_values():
    rf, rj = rf_rj(1.0, 1.0, 1.0, 1.0)
    assert rf == 1.0 and rj == 1.0
    rf, rj = rf_rj(0.0, 1.0, 1.0, 1.0)
    assert rf == pytest.approx(math.pi / 2.0, rel=2e-16)
    assert rj == pytest.approx(3.0 * math.pi / 4.0, rel=2e-16)


@pytest.mark.parametrize("args", [
    (0.0, 1.0, math.nan, 1.0),
    (0.0, 0.0, 1.0, 1.0),      # two zero arguments: R_F diverges
    (0.0, 1.0, 1.0, 0.0),      # p = 0: R_J diverges
    (0.0, -1.0, 1.0, 1.0),
])
def test_invalid_arguments_raise_without_warning(args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureFailure):
            rf_rj(*args)


@pytest.mark.parametrize("args, name", [
    ((0.0, 1.0, math.nan, 1.0), "z"),
    ((math.nan, 1.0, 1.0, 1.0), "x"),
    ((0.0, 1.0, 1.0, math.nan), "p"),
    ((0.0, math.inf, 1.0, 1.0), "y"),
    ((0.0, np.array([1.0, math.nan]), 1.0, 1.0), "y"),
    ((0.0, 2.0 + 1e-30j, complex(math.nan, 0.0), 0.7), "z"),
])
def test_non_finite_argument_is_named(args, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureFailure,
                           match=rf"non-finite argument \({name}\)"):
            rf_rj(*args)


@pytest.mark.parametrize("args", [
    (0.0, 2.0 + 1e-30j, 0.5, 0.7),        # complex step
    (0.0, 3.0, 0.5 + 0.2j, 0.7 - 0.1j),
    (0.3, 2.0, 1e-8 + 1e-30j, 1e-8),
])
def test_complex_arguments(args):
    rf, rj = rf_rj(*args)
    with mp.workdps(30):
        ref_f, ref_j = mp.elliprf(*args[:3]), mp.elliprj(*args)
    assert abs(rf - complex(ref_f)) <= 4e-16 * abs(ref_f)
    assert abs(rj - complex(ref_j)) <= 2e-15 * abs(ref_j)
    assert abs(rf.imag - float(ref_f.imag)) <= 1e-14 * abs(float(ref_f.imag))
    assert abs(rj.imag - float(ref_j.imag)) <= 1e-14 * abs(float(ref_j.imag))
