"""Oracle tests against an independent arbitrary-precision series."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
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


def all_points_series(s):
    """J0 by the series with the stopping test applied to every point, in extended precision.

    The rule :func:`bessel_j0` must reproduce bit for bit: add terms until
    every point has |t_k| < 1e-18 max_{j<=k} |t_j|, at most 100 of them.
    """
    arr = np.asarray(s, dtype=np.clongdouble)
    q = -(arr * arr) / 4
    term = np.ones_like(q)
    total = np.ones_like(q)
    max_term = np.ones(arr.shape, dtype=np.longdouble)
    for k in range(1, 101):
        term = term * q / (k * k)
        total += term
        mag = np.abs(term)
        np.maximum(max_term, mag, out=max_term)
        if np.all(mag < 1e-18 * max_term):
            break
    return total.astype(np.complex128)


# |s| below the radius with room for the rounding of |s| itself
in_disc = st.complex_numbers(max_magnitude=19.999, allow_nan=False, allow_infinity=False)
on_real_axis = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)
zeros = st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)])


@st.composite
def series_batches(draw):
    """Points in the disc, on the real axis with either sign of zero, and s = 0, plus conjugates
    of some of them; optionally a group of points tied at the batch's largest |s|."""
    pts = draw(st.lists(in_disc | on_real_axis.map(complex) | zeros, max_size=30))
    pts += [z.conjugate() for z in draw(st.lists(st.sampled_from(pts), max_size=5))] if pts else []
    if draw(st.booleans()):
        z = max(pts + [draw(in_disc)], key=abs)
        top = abs(z)
        # exact ties (the same |s| bit for bit), then points just below the largest |s|
        pts += [z, -z, z.conjugate(), 1j * z]
        pts += [top * (1 - gap) * np.exp(1j * phi) for gap, phi in ((1e-15, 0.3), (1e-12, 1.1), (1e-9, 2.9))]
    draw(st.randoms()).shuffle(pts)
    return np.array(pts, dtype=complex)


@settings(max_examples=300, deadline=None)
@given(series_batches())
@example(np.array([], dtype=complex))
@example(np.array([7.5 - 0.25j]))
@example(np.array([0j, complex(-0.0, -0.0)]))
@example(np.array([20.0, -20.0, 20j, -20j, 12.0 + 16.0j, 3.0]))
def test_j0_equals_the_all_points_series_bit_for_bit(batch):
    # signed zeros included: the bytes of the doubles are compared
    assert bessel_j0(batch).tobytes() == all_points_series(batch).tobytes()


def test_j0_equals_the_all_points_series_on_the_benchmark_grids():
    for nx, ny in ((101, 21), (500, 500)):
        xs, ys = np.linspace(0.0, 10.0, nx), np.linspace(-1.0, 1.0, ny)
        grid = (xs[None, :] + 1j * ys[:, None]).ravel()
        assert bessel_j0(grid).tobytes() == all_points_series(grid).tobytes()
        for lo in range(0, grid.size, 2048):
            batch = grid[lo : lo + 2048]
            assert bessel_j0(batch).tobytes() == all_points_series(batch).tobytes()


def test_j0_keeps_the_shape_of_its_input():
    pts = np.linspace(0.0, 10.0, 12).reshape(3, 4) + 0.5j
    assert bessel_j0(pts).shape == (3, 4)
    assert bessel_j0(pts).tobytes() == bessel_j0(pts.ravel()).tobytes()
    assert bessel_j0(np.zeros((0, 3))).shape == (0, 3)
    assert isinstance(bessel_j0(np.complex128(2.0)), complex)


@pytest.mark.parametrize("bad", [np.nan, complex(np.nan, 0.0), complex(0.0, np.nan), np.inf, complex(1.0, -np.inf)])
def test_non_finite_points_are_domain_errors(bad):
    for fn in (bessel_j0, h_of_s):
        with pytest.raises(EvaluationDomainError, match="not finite"):
            fn(bad)
        with pytest.raises(EvaluationDomainError, match="not finite") as info:
            fn(np.array([1.0, 2.0 + 0.5j, bad, 25.0]))
        assert str(complex(bad)) in str(info.value)


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
