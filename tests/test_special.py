"""Oracle tests against an independent arbitrary-precision series."""

import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ratapprox
from ratapprox import (
    BESSEL_J0_ZEROS,
    OMEGA,
    Domain,
    EvaluationDomainError,
    PoleError,
    bessel_j0,
    h_of_s,
    h_on_grid,
    oracle_grid,
)
from ratapprox.special import SERIES_RADIUS

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


def grid_axes(domain, nx, ny):
    return np.linspace(domain.x_min, domain.x_max, nx), np.linspace(domain.y_min, domain.y_max, ny)


def mp_j0(points):
    return np.array([complex(mp.besselj(0, mp.mpc(p))) for p in np.ravel(points)]).reshape(np.shape(points))


class TestGridMethod:
    """``h_on_grid``, the grid method ``oracle_grid`` takes for ``h_of_s``, against the series and mpmath."""

    def test_h_of_s_offers_the_grid_method(self):
        assert h_of_s.on_grid is h_on_grid

    def test_agrees_with_the_series_on_the_benchmark_surface(self):
        xs, ys = grid_axes(OMEGA, 500, 500)
        grid = xs[None, :] + 1j * ys[:, None]
        ref = bessel_j0(grid)
        j0 = 1 / h_on_grid(xs, ys)
        assert j0.shape == (500, 500)
        assert np.max(np.abs(j0 - ref) / np.abs(ref)) <= 1e-14
        truth = oracle_grid(h_of_s, OMEGA, 500, 500)
        assert np.array_equal(truth.values, h_on_grid(xs, ys).ravel())
        assert truth.points.tobytes() == grid.ravel().tobytes()

    @pytest.mark.parametrize("zero", [z for z in BESSEL_J0_ZEROS if OMEGA.contains(z)])
    def test_agrees_with_mpmath_next_to_each_zero(self, zero):
        xs, ys = grid_axes(OMEGA, 500, 500)
        grid = xs[None, :] + 1j * ys[:, None]
        iy, ix = np.unravel_index(np.argmin(np.abs(grid - zero)), grid.shape)
        ref = complex(mp.besselj(0, mp.mpc(grid[iy, ix])))
        assert abs(1 / h_on_grid(xs, ys)[iy, ix] - ref) <= 1e-14 * abs(ref)

    def test_number_of_terms_follows_the_grid_extent(self):
        # |x y| up to 196 needs about 30 terms where the benchmark rectangle needs 15;
        # a fixed 24 is 1.5e-12 off here
        xs, ys = grid_axes(Domain(0.0, 14.0, -14.0, 14.0), 57, 57)
        grid = xs[None, :] + 1j * ys[:, None]
        ref = mp_j0(grid)
        grid_err = np.abs(1 / h_on_grid(xs, ys) - ref) / np.abs(ref)
        # next to the zero at 11.79 the long-double series of the real factor J0(x)
        # is itself about 1e-14 off (see SERIES_RADIUS); the grid may not be worse
        series_err = np.abs(bessel_j0(grid) - ref) / np.abs(ref)
        assert np.all(grid_err <= np.maximum(1e-14, 2 * series_err))

    def test_excludes_a_point_on_a_zero_as_the_pointwise_sweep_does(self):
        domain = Domain(BESSEL_J0_ZEROS[0], 10.0, -1.0, 1.0)
        truth = oracle_grid(h_of_s, domain, 40, 21)
        pointwise = oracle_grid(lambda s: h_of_s(s), domain, 40, 21)
        assert np.flatnonzero(truth.excluded).tolist() == [10 * 40]
        assert np.array_equal(truth.excluded, pointwise.excluded)
        assert np.isnan(truth.values[truth.excluded]).all()
        kept = ~truth.excluded
        assert np.allclose(truth.values[kept], pointwise.values[kept], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("domain", [Domain(0.0, 15.0, -15.0, 15.0), Domain(-25.0, 10.0, -1.0, 1.0)])
    def test_a_grid_past_the_series_radius_is_a_domain_error(self, domain):
        for oracle in (h_of_s, lambda s: h_of_s(s)):
            with pytest.raises(EvaluationDomainError, match="radius"):
                oracle_grid(oracle, domain, 5, 5)

    def test_a_grid_reaching_the_series_radius_is_in_range(self):
        assert abs(12 + 16j) == SERIES_RADIUS  # the corner of the grid
        assert np.all(np.isfinite(oracle_grid(h_of_s, Domain(0.0, 12.0, -16.0, 16.0), 4, 5).values))

    def test_non_finite_abscissae_are_domain_errors(self):
        with pytest.raises(EvaluationDomainError, match="not finite"):
            h_on_grid(np.array([1.0, np.nan]), np.array([0.0, 0.5]))
        with pytest.raises(EvaluationDomainError, match="not finite"):
            h_on_grid(np.array([1.0, 2.0]), np.array([0.0, np.inf]))

    @pytest.mark.parametrize(("xs", "ys"), [([], [0.0]), ([1.0, 2.0], []), ([], [])])
    def test_an_empty_axis_gives_an_empty_surface(self, xs, ys):
        got = h_on_grid(xs, ys)
        assert got.shape == (len(ys), len(xs)) and got.dtype == complex


_GRID_PROBE = """
import hashlib, os, sys
if len(sys.argv) > 1:
    os.sched_setaffinity(0, {int(sys.argv[1])})  # before numpy sizes its BLAS pool
from ratapprox import OMEGA, h_of_s, oracle_grid
print(hashlib.sha256(oracle_grid(h_of_s, OMEGA, 500, 500).values.tobytes()).hexdigest())
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_grid_surface_does_not_depend_on_the_cpu_count():
    src = str(Path(ratapprox.__file__).resolve().parents[1])
    # the child takes the BLAS thread count from its affinity, so drop any pin
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")} | {"PYTHONPATH": src}

    def digest(*args):
        done = subprocess.run([sys.executable, "-c", _GRID_PROBE, *args], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        return done.stdout.strip()

    assert digest(str(min(os.sched_getaffinity(0)))) == digest()
