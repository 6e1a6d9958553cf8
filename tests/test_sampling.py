import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratapprox import (
    OMEGA,
    Domain,
    PoleError,
    SampleError,
    SampleSet,
    SymmetryError,
    h_of_s,
    sample_oracle,
    structured_grid,
    uniform_random_grid,
)
from ratapprox.sampling import conjugate_groups


def closed_under_conjugation(points):
    return sorted(map(tuple, zip(points.real, points.imag))) == sorted(
        map(tuple, zip(points.real, -points.imag))
    )


class TestStructuredGrid:
    def test_benchmark_grid_has_2121_points(self):
        grid = structured_grid(OMEGA, 101, 21)
        assert len(grid) == 2121

    def test_smallest_grid(self):
        grid = structured_grid(OMEGA, 2, 3)
        expected = {complex(x, y) for x in (0.0, 10.0) for y in (-1.0, 0.0, 1.0)}
        assert set(grid.points) == expected

    def test_even_ny_rejected_on_symmetric_domain(self):
        with pytest.raises(SymmetryError):
            structured_grid(OMEGA, 10, 4)

    def test_even_ny_allowed_on_asymmetric_domain(self):
        grid = structured_grid(Domain(0, 1, 0.5, 2.0), 3, 4)
        assert len(grid) == 12

    @settings(max_examples=25, deadline=None)
    @given(nx=st.integers(2, 12), half=st.integers(1, 6))
    def test_conjugate_closure_by_construction(self, nx, half):
        grid = structured_grid(OMEGA, nx, 2 * half + 1)
        assert closed_under_conjugation(grid.points)

    def test_containment(self):
        grid = structured_grid(OMEGA, 11, 5)
        assert np.all(OMEGA.contains(grid.points))


class TestUniformGrid:
    def test_pair_count_and_containment(self):
        grid = uniform_random_grid(OMEGA, 1000, seed=3)
        assert len(grid) == 2000
        assert np.all(OMEGA.contains(grid.points))
        assert closed_under_conjugation(grid.points)
        assert np.all(grid.points.imag != 0.0)

    def test_single_pair(self):
        grid = uniform_random_grid(OMEGA, 1, seed=0)
        assert len(grid) == 2
        assert grid.points[1] == grid.points[0].conjugate()

    def test_same_seed_reproduces_points(self):
        a = uniform_random_grid(OMEGA, 50, seed=11)
        b = uniform_random_grid(OMEGA, 50, seed=11)
        assert np.array_equal(a.points, b.points)

    def test_different_seeds_differ(self):
        a = uniform_random_grid(OMEGA, 50, seed=1)
        b = uniform_random_grid(OMEGA, 50, seed=2)
        assert not np.array_equal(a.points, b.points)

    def test_asymmetric_domain_rejected(self):
        with pytest.raises(SymmetryError):
            uniform_random_grid(Domain(0, 1, -0.5, 1.0), 10, seed=0)


class TestSampleOracle:
    def test_values_filled_and_conjugate(self):
        grid = uniform_random_grid(OMEGA, 20, seed=5)
        samples = sample_oracle(grid, h_of_s)
        assert samples.values is not None
        # oracle is conjugate symmetric, so pair values mirror exactly
        assert np.array_equal(samples.values[1::2], np.conj(samples.values[0::2]))

    def test_scalar_only_oracle_supported(self):
        grid = structured_grid(OMEGA, 3, 3)
        samples = sample_oracle(grid, lambda s: complex(s) ** 2)
        assert np.allclose(samples.values, samples.points**2)

    def test_pole_error_propagates_with_point(self):
        zero = 2.40482555769577
        bad = SampleSet(points=np.array([1.0 + 0j, zero]))
        with pytest.raises(PoleError) as info:
            sample_oracle(bad, h_of_s)
        assert info.value.point == pytest.approx(zero)


class TestSampleSet:
    def test_duplicate_points_rejected(self):
        with pytest.raises(SampleError, match="duplicate"):
            SampleSet(points=np.array([1.0 + 0j, 1.0 + 0j]))
        with pytest.raises(SampleError, match="shape"):
            SampleSet(points=np.array([1.0 + 0j, 2.0 + 0j]), values=np.array([1.0 + 0j]))

    def test_csv_round_trip_is_exact(self, tmp_path):
        samples = sample_oracle(uniform_random_grid(OMEGA, 25, seed=9), h_of_s)
        path = tmp_path / "samples.csv"
        samples.to_csv(path, meta="test seed=9")
        loaded = SampleSet.from_csv(path)
        assert np.array_equal(loaded.points, samples.points)
        assert np.array_equal(loaded.values, samples.values)

    def test_empty_sets_rejected(self, tmp_path):
        with pytest.raises(SampleError):
            SampleSet(points=np.array([], dtype=complex))
        path = tmp_path / "empty.csv"
        path.write_text("# only a comment\nre_s,im_s,re_f,im_f\n")
        with pytest.raises(SampleError):
            SampleSet.from_csv(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_and_values_rejected(self, bad):
        pts = np.array([1.0 + 0j, 2.0 + 0j])
        with pytest.raises(SampleError):
            SampleSet(points=pts, values=np.array([1.0, complex(0.0, bad)]))
        with pytest.raises(SampleError):
            SampleSet(points=np.array([1.0, complex(bad, 0.0)]))
        with pytest.raises(SampleError):
            SampleSet(points=pts).with_values(np.array([bad, 1.0]))

    def test_csv_with_nan_value_or_short_row_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("re_s,im_s,re_f,im_f\n1,0,0.5,0\n2,0,nan,0\n")
        with pytest.raises(SampleError):
            SampleSet.from_csv(path)
        path.write_text("re_s,im_s,re_f,im_f\n1,0,0.5,0\n2,0,0.5\n")
        with pytest.raises(SampleError, match=":3:"):
            SampleSet.from_csv(path)

    def test_csv_requires_values(self, tmp_path):
        with pytest.raises(ValueError):
            structured_grid(OMEGA, 3, 3).to_csv(tmp_path / "x.csv")


class TestConjugateGroups:
    def test_groups_pair_points_exactly(self):
        pts = np.array([1.0 + 1.0j, 2.0 + 0j, 1.0 - 1.0j])
        groups = conjugate_groups(pts)
        assert sorted(len(g) for g in groups) == [1, 2]

    def test_stray_point_raises(self):
        with pytest.raises(SymmetryError):
            conjugate_groups(np.array([1.0 + 1.0j, 2.0 + 0j]))
