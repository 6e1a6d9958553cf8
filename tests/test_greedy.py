import numpy as np
import pytest

from conftest import conjugate_closed, rational_samples
from ratapprox import (OMEGA, InsufficientDataError, PartitionError, SampleSet, build_pencil, fit_greedy, greedy,
                       truncate)
from ratapprox.loewner import DataPartition, StateSpaceModel
from ratapprox.sampling import uniform_random_grid


def test_exact_degree_two_data_interpolated():
    samples, f, *_ = rational_samples(2, 0, n_pairs=15)
    result = fit_greedy(samples, order_target=2, seed=0)
    err = np.abs(result.model.eval(samples.points) - samples.values)
    assert err.max() <= 1e-9
    assert result.model.order == 2


def test_order_is_capped_at_the_rank_of_the_data():
    # every interim truncation at the target order meets a rank-2 pencil
    samples, *_ = rational_samples(2, 5, n_pairs=15)
    result = fit_greedy(samples, order_target=4, seed=0)
    assert result.model.order == 2
    err = np.abs(result.model.eval(samples.points) - samples.values)
    assert err.max() <= 1e-9


def test_groups_ranked_by_worst_error_with_ties_to_the_lower_group(monkeypatch):
    # a stand-in model whose errors tie and go NaN; zero values make each error exact
    pts = uniform_random_grid(OMEGA, 15, 1)
    rng = np.random.default_rng(3)
    err = dict(zip(pts, rng.choice([0.0, 1.0, 2.0, np.nan], pts.size)))

    class Model:
        def solve(self, s):
            return np.array([err[z] for z in s])

    monkeypatch.setattr(greedy, "_fit_current", lambda *args: (Model(), args[-1]))
    result = fit_greedy(SampleSet(pts, np.zeros(pts.size)), order_target=2, seed=0)
    # reference: the worst error per group by a loop over points, where max keeps its
    # first argument against NaN, then a sort on (-error, group); the cloud
    # interleaves each point with its conjugate, so group g is (2g, 2g + 1)
    groups = [(i, i + 1) for i in range(0, pts.size, 2)]
    started = np.random.default_rng(0).choice(len(groups), size=2, replace=False)
    unused = [g for g in range(len(groups)) if g not in started]
    for step in result.history:
        worst: dict[int, float] = {}
        for g in unused:
            for i in groups[g]:
                worst[g] = max(worst.get(g, 0.0), err[pts[i]])
        ranked = sorted(worst.items(), key=lambda kv: (-kv[1], kv[0]))[:2]
        assert step.max_error == ranked[0][1]
        assert step.chosen == tuple(complex(pts[groups[g][0]]) for g, _ in ranked)
        for g, _ in ranked:
            unused.remove(g)
    assert not unused  # every group was ranked in some step


# groups (0, 3), (1), (2, 5), (4, 6) and (7, 8): named 0, 1, 2, 4 and 7
MATES = np.array([3, 1, 5, 0, 6, 2, 4, 8, 7])


def test_rank_scores_a_group_by_its_worst_member_with_nan_ignored():
    errors = np.array([1.0, 2.0, np.nan, 2.0, 1.5, np.nan, 0.5, np.nan, np.nan])
    # scores 2 (from sample 3), 2, 0 (NaN only), 1.5 and 0: ties go to the lower group
    assert greedy.rank(errors, np.arange(9), MATES, count=3) == ([0, 1, 4], 2.0)
    assert greedy.rank(errors, np.arange(9), MATES, count=9) == ([0, 1, 4, 2, 7], 2.0)


def test_promote_appends_each_pick_with_its_mate_unless_it_is_real():
    sides, unused = ([], [8]), np.ones(9, dtype=bool)
    greedy.promote(sides, unused, MATES, [3, 1])
    assert sides == ([3, 0], [8, 1])
    assert np.flatnonzero(~unused).tolist() == [0, 1, 3]


def test_rank_names_a_group_by_its_lowest_sample_even_when_only_its_mate_is_given():
    assert greedy.rank(np.array([1.0, 3.0, 2.0]), np.array([3, 4, 8]), MATES, count=2) == ([4, 7], 3.0)


@pytest.mark.parametrize("band, picks", [(0.0, [2, 1, 0]), (1e-12, [2, 0, 1]), (1e-8, [0, 1, 2])])
def test_rank_takes_the_lowest_group_within_the_band_of_the_largest_left(band, picks, monkeypatch):
    monkeypatch.setattr(greedy, "RANK_BAND", band)
    errors = np.array([1.0, 1.0 + 1e-13, 1.0 + 1e-9])
    assert greedy.rank(errors, np.arange(3), np.arange(3), count=3) == (picks, 1.0 + 1e-9)


def test_fit_ranks_by_one_solve_per_step_on_the_unused_samples(medium_bessel_samples, monkeypatch):
    calls = []

    def spy(model, s, _fn=StateSpaceModel.solve):
        calls.append(s.tolist())
        return _fn(model, s)

    monkeypatch.setattr(StateSpaceModel, "solve", spy)
    result = fit_greedy(medium_bessel_samples)
    assert [len(s) for s in calls] == [len(medium_bessel_samples) - step.n_left - step.n_right
                                       for step in result.history]
    for step, unused, after in zip(result.history, calls, calls[1:]):
        promoted = {w for z in step.chosen for w in (z, z.conjugate())}
        assert after == [z for z in unused if z not in promoted]


def test_selected_points_come_from_input_and_stay_disjoint():
    samples, *_ = rational_samples(3, 1, n_pairs=12)
    result = fit_greedy(samples, order_target=3, seed=4)
    pool = set(samples.points)
    assert set(result.left_points) <= pool
    assert set(result.right_points) <= pool
    assert not set(result.left_points) & set(result.right_points)
    assert conjugate_closed(result.left_points)
    assert conjugate_closed(result.right_points)


def test_deterministic_for_fixed_seed():
    samples, *_ = rational_samples(3, 2, n_pairs=14)
    a = fit_greedy(samples, order_target=3, seed=9)
    b = fit_greedy(samples, order_target=3, seed=9)
    assert [s.max_error for s in a.history] == [s.max_error for s in b.history]
    assert [s.chosen for s in a.history] == [s.chosen for s in b.history]
    assert np.array_equal(a.left_points, b.left_points)


def test_history_is_recorded_per_step():
    samples, *_ = rational_samples(2, 3, n_pairs=10)
    result = fit_greedy(samples, order_target=2, seed=1)
    steps = [s.step for s in result.history]
    assert steps == list(range(1, len(steps) + 1))
    assert all(s.max_error >= 0 for s in result.history)
    assert all(1 <= len(s.chosen) <= 2 for s in result.history)


def test_mostly_decreasing_error_on_bessel_data(medium_bessel_samples):
    # greedy selection is not strictly monotone; the fraction below is the
    # measured behaviour for this frozen seed (it varies roughly 0.65-0.92
    # over seeds and grids)
    result = fit_greedy(medium_bessel_samples, order_target=8, seed=1)
    errors = [s.max_error for s in result.history]
    drops = sum(1 for a, b in zip(errors, errors[1:]) if b <= a)
    assert drops / (len(errors) - 1) >= 0.8


def test_insufficient_data_rejected():
    samples, *_ = rational_samples(2, 4, n_pairs=3)
    with pytest.raises(InsufficientDataError):
        fit_greedy(samples, order_target=5, seed=0)


def test_one_conjugate_group_is_a_partition_error_as_in_partition():
    samples = SampleSet(np.array([1.0 + 1.0j, 1.0 - 1.0j]), np.array([1.0 + 0j, 1.0 + 0j]))
    with pytest.raises(PartitionError, match="1 conjugate group"):
        fit_greedy(samples, order_target=1)


@pytest.mark.parametrize("order_target, seed", [(11, 0), (6, 3)])
def test_model_is_the_truncation_of_the_returned_sets(medium_bessel_samples, order_target, seed):
    result = fit_greedy(medium_bessel_samples, order_target=order_target, seed=seed)
    value_at = dict(zip(medium_bessel_samples.points.tolist(), medium_bessel_samples.values))
    part = DataPartition(mu=result.left_points, v=[value_at[z] for z in result.left_points.tolist()],
                         lam=result.right_points, w=[value_at[z] for z in result.right_points.tolist()])
    rebuilt = truncate(build_pencil(part), order=result.model.order).model
    assert result.model.order == order_target
    for name in ("E", "A", "B", "C"):
        assert getattr(result.model, name).tobytes() == getattr(rebuilt, name).tobytes()
