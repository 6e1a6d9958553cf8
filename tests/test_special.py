"""Oracle tests against an independent arbitrary-precision series."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratapprox import BESSEL_J0_ZEROS, EvaluationDomainError, PoleError, bessel_j0, h_of_s

mp.mp.dps = 40


def series_oracle(s):
    """60-term ascending series at 40 decimal digits; independent of the library path."""
    s = mp.mpc(s)
    q = -(s * s) / 4
    term = mp.mpc(1)
    total = mp.mpc(1)
    for k in range(1, 61):
        term = term * q / (k * k)
        total += term
    return complex(total)


def test_j0_at_origin_is_exactly_one():
    assert bessel_j0(0.0) == 1.0 + 0.0j


@pytest.mark.parametrize("zero", BESSEL_J0_ZEROS)
def test_j0_vanishes_at_tabulated_zeros(zero):
    # the three zeros inside the benchmark rectangle come out an order better
    bound = 1e-13 if zero < 10 else 1e-12
    assert abs(bessel_j0(zero)) <= bound


def test_j0_matches_series_oracle_on_real_axis():
    xs = np.linspace(0.0, 12.0, 241)
    worst = 0.0
    for x in xs:
        ref = series_oracle(x)
        err = abs(bessel_j0(float(x)) - ref) / max(1.0, abs(ref))
        worst = max(worst, err)
    assert worst <= 1e-12


def test_j0_at_complex_point_matches_oracle():
    s = 1.0 + 1.0j
    ref = series_oracle(s)
    assert abs(bessel_j0(s) - ref) <= 1e-13 * abs(ref)


def test_j0_real_input_gives_exactly_real_output():
    for x in np.linspace(0.0, 12.0, 50):
        assert bessel_j0(float(x)).imag == 0.0


@settings(max_examples=100, deadline=None)
@given(
    re=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    im=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
)
def test_j0_conjugate_symmetry_is_bit_exact(re, im):
    s = complex(re, im)
    assert bessel_j0(s.conjugate()) == bessel_j0(s).conjugate()


def test_j0_conjugate_symmetry_random_sweep():
    rng = np.random.default_rng(7)
    pts = rng.uniform(0, 10, 1000) + 1j * rng.uniform(-1, 1, 1000)
    assert np.array_equal(bessel_j0(np.conj(pts)), np.conj(bessel_j0(pts)))


def test_j0_rejects_points_outside_validity_radius():
    with pytest.raises(EvaluationDomainError):
        bessel_j0(51.0)
    with pytest.raises(EvaluationDomainError):
        bessel_j0(np.array([1.0, 30.0 + 45.0j]))
    # the series is already wrong in the 9th digit here
    with pytest.raises(EvaluationDomainError):
        bessel_j0(25.0)


@pytest.mark.parametrize("s", [10.0, 15.0, 20.0])
def test_j0_matches_mpmath_up_to_validity_radius(s):
    ref = complex(mp.besselj(0, s))
    assert abs(bessel_j0(s) - ref) <= 1e-11 * abs(ref)


def test_j0_array_and_scalar_paths_agree():
    pts = np.array([0.3 + 0.2j, 5.0, 9.7 - 0.9j])
    arr = bessel_j0(pts)
    for i, p in enumerate(pts):
        assert arr[i] == bessel_j0(complex(p))


def test_h_at_origin():
    assert h_of_s(0.0) == 1.0 + 0.0j


def test_h_matches_oracle_at_complex_point():
    s = 5.0 + 0.5j
    ref = 1.0 / series_oracle(s)
    assert abs(h_of_s(s) - ref) <= 1e-12 * abs(ref)


def test_h_raises_pole_error_at_bessel_zero():
    with pytest.raises(PoleError) as info:
        h_of_s(11.7915344390142)
    assert info.value.point == pytest.approx(11.7915344390142)


def test_h_pole_error_identifies_point_in_arrays():
    pts = np.array([1.0 + 0.5j, 2.40482555769577, 3.0])
    with pytest.raises(PoleError) as info:
        h_of_s(pts)
    assert info.value.point == pytest.approx(2.40482555769577)
