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
    SettingError,
    SymmetryError,
    h_of_s,
    sample_oracle,
    structured_grid,
    uniform_random_grid,
)
from ratapprox.sampling import conjugate_mates, group_members


def closed_under_conjugation(points):
    return sorted(map(tuple, zip(points.real, points.imag))) == sorted(
        map(tuple, zip(points.real, -points.imag))
    )


class TestDomain:
    @pytest.mark.parametrize("bounds", [(0, np.inf, -1, 1), (0, 1, np.nan, 1), (1, 0, -1, 1), (0, 1, 1, 1)])
    def test_non_finite_or_crossed_bounds_rejected(self, bounds):
        with pytest.raises(SettingError):
            Domain(*bounds)


class TestStructuredGrid:
    def test_benchmark_grid_has_2121_points(self):
        grid = structured_grid(OMEGA, 101, 21)
        assert isinstance(grid, np.ndarray) and grid.shape == (2121,)

    def test_smallest_grid(self):
        grid = structured_grid(OMEGA, 2, 3)
        expected = {complex(x, y) for x in (0.0, 10.0) for y in (-1.0, 0.0, 1.0)}
        assert set(grid) == expected

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
        assert closed_under_conjugation(grid)

    def test_containment(self):
        grid = structured_grid(OMEGA, 11, 5)
        assert np.all(OMEGA.contains(grid))


class TestUniformGrid:
    def test_pair_count_and_containment(self):
        grid = uniform_random_grid(OMEGA, 1000, seed=3)
        assert isinstance(grid, np.ndarray) and grid.shape == (2000,)
        assert np.all(OMEGA.contains(grid))
        assert closed_under_conjugation(grid)
        assert np.all(grid.imag != 0.0)

    def test_single_pair(self):
        grid = uniform_random_grid(OMEGA, 1, seed=0)
        assert len(grid) == 2
        assert grid[1] == grid[0].conjugate()

    def test_same_seed_reproduces_points(self):
        a = uniform_random_grid(OMEGA, 50, seed=11)
        b = uniform_random_grid(OMEGA, 50, seed=11)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = uniform_random_grid(OMEGA, 50, seed=1)
        b = uniform_random_grid(OMEGA, 50, seed=2)
        assert not np.array_equal(a, b)

    def test_asymmetric_domain_rejected(self):
        with pytest.raises(SymmetryError):
            uniform_random_grid(Domain(0, 1, -0.5, 1.0), 10, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(SettingError):
            uniform_random_grid(OMEGA, 10, seed=-1)


class TestSampleOracle:
    def test_values_filled_and_conjugate(self):
        grid = uniform_random_grid(OMEGA, 20, seed=5)
        samples = sample_oracle(grid, h_of_s)
        assert np.array_equal(samples.points, grid)
        # oracle is conjugate symmetric, so pair values mirror exactly
        assert np.array_equal(samples.values[1::2], np.conj(samples.values[0::2]))

    @pytest.mark.parametrize("oracle", [np.sum, lambda s: s[:-1], lambda s: s.reshape(3, 3)])
    def test_values_of_another_shape_raise_sample_error(self, oracle):
        with pytest.raises(SampleError, match="shape"):
            sample_oracle(structured_grid(OMEGA, 3, 3), oracle)

    def test_pole_error_propagates_with_point(self):
        zero = 2.40482555769577
        with pytest.raises(PoleError) as info:
            sample_oracle(np.array([1.0 + 0j, zero]), h_of_s)
        assert info.value.point == pytest.approx(zero)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
    def test_non_finite_point_is_a_sample_error_before_the_oracle_runs(self, bad):
        called = []
        with pytest.raises(SampleError, match="not finite"):
            sample_oracle(np.array([1.0, bad]), lambda s: called.append(s) or h_of_s(s))
        assert called == []

    def test_non_finite_value_is_a_pole_error_with_point(self):
        with pytest.raises(PoleError) as info:
            sample_oracle(np.array([1.0, 2.0, 3.0]), lambda s: np.where(s == 2.0, np.inf, s))
        assert info.value.point == 2.0


class TestSampleSet:
    def test_values_are_required(self):
        with pytest.raises(TypeError):
            SampleSet(points=np.array([1.0 + 0j, 2.0 + 0j]))

    def test_duplicate_points_rejected(self):
        with pytest.raises(SampleError, match="duplicate"):
            SampleSet(points=np.array([1.0 + 0j, 1.0 + 0j]), values=np.array([1.0, 2.0]))
        with pytest.raises(SampleError, match="shape"):
            SampleSet(points=np.array([1.0 + 0j, 2.0 + 0j]), values=np.array([1.0 + 0j]))

    def test_points_of_more_than_one_axis_rejected(self):
        with pytest.raises(SampleError, match=r"1-D array, got shape \(21, 5\)"):
            sample_oracle(structured_grid(OMEGA, 21, 5).reshape(21, 5), h_of_s)
        with pytest.raises(SampleError, match=r"got shape \(\)"):
            SampleSet(points=1.0 + 0j, values=1.0 + 0j)

    def test_csv_round_trip_is_exact(self, tmp_path):
        samples = sample_oracle(uniform_random_grid(OMEGA, 25, seed=9), h_of_s)
        path = tmp_path / "samples.csv"
        samples.to_csv(path, meta="test seed=9")
        loaded = SampleSet.from_csv(path)
        assert np.array_equal(loaded.points, samples.points)
        assert np.array_equal(loaded.values, samples.values)

    def test_empty_sets_rejected(self, tmp_path):
        with pytest.raises(SampleError):
            SampleSet(points=np.array([], dtype=complex), values=np.array([], dtype=complex))
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
            SampleSet(points=np.array([1.0, complex(bad, 0.0)]), values=np.array([1.0, 1.0]))

    def test_csv_with_nan_value_or_short_row_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("re_s,im_s,re_f,im_f\n1,0,0.5,0\n2,0,nan,0\n")
        with pytest.raises(SampleError):
            SampleSet.from_csv(path)
        path.write_text("re_s,im_s,re_f,im_f\n1,0,0.5,0\n2,0,0.5\n")
        with pytest.raises(SampleError, match=":3:"):
            SampleSet.from_csv(path)


def reference_groups(points):
    """The dict-loop grouping conjugate_mates replaces: groups in input order."""
    mates = {}
    for i, p in enumerate(points):
        mates.setdefault((p.real, p.imag), []).append(i)
    taken = np.zeros(points.size, dtype=bool)
    groups = []
    for i in range(points.size):
        if taken[i]:
            continue
        p = points[i]
        taken[i] = True
        if p.imag == 0.0:
            groups.append((i,))
            continue
        j = [j for j in mates.get((p.real, -p.imag), ()) if not taken[j]][0]
        taken[j] = True
        groups.append((i, j))
    return groups


@st.composite
def closed_sets(draw):
    """Distinct conjugate-closed points in random order; real ones carry +0.0 or -0.0."""
    coord = st.integers(-3, 3).map(float) | st.floats(-5.0, 5.0)
    reals = draw(st.lists(coord, max_size=6, unique=True))
    uppers = draw(st.lists(st.tuples(coord, st.integers(1, 2).map(float) | st.floats(1e-3, 5.0)),
                           max_size=8, unique=True))
    signs = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=len(reals), max_size=len(reals)))
    pts = [complex(x, y) for x, y in zip(reals, signs)]
    pts += [complex(x, y) for x, y in uppers] + [complex(x, -y) for x, y in uppers]
    return np.array(draw(st.permutations(pts)), dtype=complex)


class TestConjugateGroups:
    def test_groups_pair_points_exactly(self):
        pts = np.array([1.0 + 1.0j, 2.0 + 0j, 1.0 - 1.0j])
        mates = conjugate_mates(pts)
        assert mates.tolist() == [2, 1, 0]
        assert group_members(mates, [0, 1]).tolist() == [0, 2, 1]

    def test_stray_point_raises(self):
        with pytest.raises(SymmetryError):
            conjugate_mates(np.array([1.0 + 1.0j, 2.0 + 0j]))
        with pytest.raises(SymmetryError):
            conjugate_mates(np.array([1.0 + 1.0j, 1.0 - 1.0j, 3.0 - 0.5j]))

    def test_repeated_point_raises(self):
        with pytest.raises(SampleError):
            conjugate_mates(np.array([1.0 + 1.0j, 1.0 - 1.0j, 1.0 + 1.0j]))
        with pytest.raises(SampleError):
            conjugate_mates(np.array([2.0 + 0j, complex(2.0, -0.0)]))

    @settings(max_examples=200, deadline=None)
    @given(closed_sets())
    def test_mates_are_the_exact_conjugates_and_give_the_reference_groups(self, pts):
        mates = conjugate_mates(pts)
        assert np.array_equal(mates[mates], np.arange(pts.size))
        assert np.array_equal(pts[mates], pts.conj())
        leads = np.flatnonzero(mates >= np.arange(pts.size))
        groups = reference_groups(pts)
        assert [tuple(group_members(mates, [i]).tolist()) for i in leads] == groups
        assert group_members(mates, leads).tolist() == [i for g in groups for i in g]
