import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import conjugate_closed, conjugate_state_space, make_rational, rational_samples
import ratapprox
from ratapprox import (
    BESSEL_J0_ZEROS,
    OMEGA,
    ComputationError,
    PartitionError,
    PencilError,
    PoleError,
    RankError,
    SampleError,
    SampleSet,
    SettingError,
    build_pencil,
    h_of_s,
    partition,
    poles,
    projected_points,
    sample_oracle,
    structured_grid,
    sylvester_residual,
    trajectory_study,
    truncate,
    uniform_random_grid,
    zeros,
)
from ratapprox import analysis, greedy, linalg, loewner
from ratapprox.loewner import DataPartition, StateSpaceModel, modal_form
from ratapprox.serialize import model_to_dict


def real_samples(values_fn, pts):
    pts = np.asarray(pts, dtype=complex)
    return SampleSet(pts, values_fn(pts))


def match_distance(a, b):
    if len(a) == 0:
        return 0.0
    return max(np.min(np.abs(np.asarray(b) - x)) for x in np.asarray(a))


class TestPartition:
    def test_alternating_on_real_points(self):
        samples = real_samples(lambda s: 1.0 / (s + 1.0), [1.0, 2.0, 3.0, 4.0])
        part = partition(samples, "alternating")
        assert sorted(part.mu.real) == [1.0, 3.0]
        assert sorted(part.lam.real) == [2.0, 4.0]

    def test_conjugate_pair_stays_together(self):
        pts = np.array([2.0 + 1.0j, 2.0 - 1.0j, 1.0 + 0j, 3.0 + 0j])
        samples = real_samples(lambda s: 1.0 / (s + 12.0), pts)
        for scheme in ("alternating", "half_split", "epsilon_paired"):
            part = partition(samples, scheme)
            for side in (part.mu, part.lam):
                nonreal = side[side.imag != 0]
                assert sorted(map(tuple, zip(nonreal.real, nonreal.imag))) == sorted(
                    map(tuple, zip(nonreal.real, -nonreal.imag))
                )

    def test_benchmark_grid_partition_covers_everything(self):
        samples = sample_oracle(structured_grid(OMEGA, 101, 21), h_of_s)
        part = partition(samples, "alternating")
        assert part.mu.size + part.lam.size == 2121
        assert not set(part.mu) & set(part.lam)

    def test_unknown_scheme_is_a_setting_error(self):
        samples, *_ = rational_samples(2, 7, n_pairs=4)
        with pytest.raises(SettingError, match="unknown partition scheme 'bogus'") as info:
            partition(samples, "bogus")
        assert isinstance(info.value, ValueError)

    def test_unpaired_complex_point_impossible(self):
        samples = SampleSet(np.array([1.0 + 1.0j, 2.0 + 0j]), np.array([1.0 + 0j, 1.0 + 0j]))
        with pytest.raises(PartitionError, match=r"^cannot preserve conjugate closure: "
                                                 r"point \(1\+1j\) has no conjugate mate in the set$"):
            partition(samples)

    def test_single_conjugate_pair_impossible(self):
        samples = SampleSet(np.array([1.0 + 1.0j, 1.0 - 1.0j]), np.array([1.0 + 0j, 1.0 + 0j]))
        with pytest.raises(PartitionError):
            partition(samples)

    def test_single_sample_impossible(self):
        with pytest.raises(PartitionError, match="1 conjugate group"):
            partition(SampleSet(np.array([3.0 + 0j]), np.array([1.0 + 0j])))

    def test_conjugate_groups_give_the_mates_and_the_leads_in_input_order(self):
        pts = np.array([2.0 - 1.0j, 3.0, 2.0 + 1.0j, 1.0])
        mates, leads = loewner.conjugate_groups(SampleSet(pts, np.ones(4)))
        assert mates.tolist() == [2, 1, 0, 3]
        assert leads.tolist() == [0, 1, 3]

    @pytest.mark.parametrize("pts", [[1.0 + 1.0j, 2.0], [1.0 + 1.0j, 1.0 - 1.0j], [3.0]])
    def test_conjugate_groups_reject_points_not_closed_or_in_one_group(self, pts):
        with pytest.raises(PartitionError):
            loewner.conjugate_groups(SampleSet(pts, np.ones(len(pts))))

    def test_epsilon_paired_neighbours_on_opposite_sides(self):
        pts = np.arange(1.0, 9.0)  # 1..8 on the real axis
        samples = real_samples(lambda s: 1.0 / (s + 20.0), pts)
        part = partition(samples, "epsilon_paired")
        # adjacent sorted points pair across sides at distance exactly 1
        assert max(np.min(np.abs(part.lam - mu)) for mu in part.mu) == 1.0


class TestPencil:
    def test_single_entry_formulas(self):
        part = DataPartition(mu=[2.0], v=[3.0], lam=[0.0], w=[1.0])
        pencil = build_pencil(part)
        assert linalg.ldexp(pencil.L, pencil.exponent)[0, 0] == pytest.approx(1.0)
        assert linalg.ldexp(pencil.Ls, pencil.exponent)[0, 0] == pytest.approx(3.0)

    def test_entries_against_direct_formula_with_oracle(self):
        mu, lam = np.array([1.0 + 0j]), np.array([2.0 + 0j])
        v, w = h_of_s(mu), h_of_s(lam)
        pencil = build_pencil(DataPartition(mu=mu, v=v, lam=lam, w=w))
        assert linalg.ldexp(pencil.L, pencil.exponent)[0, 0] == (v[0] - w[0]) / (mu[0] - lam[0])
        assert linalg.ldexp(pencil.Ls, pencil.exponent)[0, 0] == (mu[0] * v[0] - lam[0] * w[0]) / (mu[0] - lam[0])

    @pytest.mark.parametrize("field, bad", [("v", np.nan), ("w", np.inf), ("mu", complex(np.nan, 1.0)),
                                            ("lam", -np.inf)])
    def test_non_finite_partition_rejected(self, field, bad):
        data = {"mu": [1.0, 2.0], "v": [1.0, 0.5], "lam": [3.0, 4.0], "w": [0.3, 0.2]}
        data[field] = [data[field][0], bad]
        with pytest.raises(SampleError, match=field):
            DataPartition(**data)

    def test_partition_shape_mismatch_is_a_sample_error(self):
        with pytest.raises(SampleError):
            DataPartition(mu=[1.0, 2.0], v=[1.0], lam=[3.0], w=[1.0])

    def test_coincident_points_rejected(self):
        part = DataPartition(mu=[1.0, 2.0], v=[1.0, 1.0], lam=[2.0], w=[1.0])
        with pytest.raises(PencilError):
            build_pencil(part)

    def test_coincident_points_in_a_later_row_block_are_named(self):
        rows = loewner._PENCIL_ROWS
        mu = np.arange(2 * rows + 5) + 0.5j
        lam = np.arange(7) + 0.25j
        mu[rows + 3] = lam[4]
        part = DataPartition(mu=mu, v=np.ones_like(mu), lam=lam, w=np.ones_like(lam))
        with pytest.raises(PencilError) as info:
            build_pencil(part)
        assert str(info.value) == f"coincident points: mu[{rows + 3}] == lam[4] == (4+0.25j)"

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_cross_ratio_identities(self, seed):
        rng = np.random.default_rng(seed)
        q, k = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        mu = rng.standard_normal(q) + 1j * rng.standard_normal(q)
        lam = 10.0 + rng.standard_normal(k) + 1j * rng.standard_normal(k)
        v = rng.standard_normal(q) + 1j * rng.standard_normal(q)
        w = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        pencil = build_pencil(DataPartition(mu=mu, v=v, lam=lam, w=w))
        diff = mu[:, None] - lam[None, :]
        assert np.allclose(linalg.ldexp(pencil.L, pencil.exponent) * diff, v[:, None] - w[None, :], atol=1e-12)
        assert np.allclose(
            linalg.ldexp(pencil.Ls, pencil.exponent) * diff, mu[:, None] * v[:, None] - lam[None, :] * w[None, :],
            atol=1e-12
        )

    def test_sylvester_residual_keeps_the_outer_product_floats(self, structured_pencil):
        # the formulation with explicit direction vectors, np.outer(..., ones)
        p = structured_pencil
        M, Lam = p.mu[:, None], p.lam[None, :]
        VR = np.outer(p.V, np.ones(p.lam.size))
        LW = np.outer(np.ones(p.mu.size), p.W)
        scale = np.linalg.norm(p.Ls)
        r1 = np.linalg.norm(M * p.L - p.L * Lam - (VR - LW)) / scale
        r2 = np.linalg.norm(M * p.Ls - p.Ls * Lam - (M * VR - LW * Lam)) / scale
        assert sylvester_residual(p) == (r1, r2)

    def test_sylvester_residuals_tiny(self, small_bessel_samples):
        pencil = build_pencil(partition(small_bessel_samples))
        r1, r2 = sylvester_residual(pencil)
        assert r1 <= 1e-10
        assert r2 <= 1e-10


class TestScaledFit:
    @pytest.mark.parametrize("k", [40, -40])
    def test_the_fit_of_the_values_times_a_power_of_two_is_the_fit_times_that_power(self, small_bessel_samples,
                                                                                      k):
        plain = loewner.fit_loewner(small_bessel_samples, order=8)
        samples = SampleSet(small_bessel_samples.points, np.ldexp(1.0, k) * small_bessel_samples.values)
        scaled = loewner.fit_loewner(samples, order=8)
        for name in ("E", "A", "B", "C"):
            assert getattr(scaled.model, name).tobytes() == linalg.ldexp(getattr(plain.model, name), k).tobytes()
        assert scaled.singular_values.tobytes() == np.ldexp(plain.singular_values, k).tobytes()
        for name in ("Y", "X"):
            assert getattr(scaled, name).tobytes() == getattr(plain, name).tobytes()

    @pytest.mark.parametrize("exponent, k", [(9, 9), (1020, 512), (-1000, -512)])
    def test_unscaled_realizes_the_transfer_function_times_the_power_of_two(self, small_bessel_samples,
                                                                              exponent, k):
        model = loewner.fit_loewner(small_bessel_samples, order=8).model
        back, power = loewner.unscaled(model, exponent)
        assert power == k
        assert back.E.tobytes() == np.ldexp(model.E.view(float), k).tobytes()
        assert all(np.all(np.isfinite(m)) for m in (back.E, back.A, back.B, back.C))
        points = np.array([4.0 + 0.3j, 7.5 - 0.2j])
        assert np.allclose(np.ldexp(back.solve(points).view(float), -exponent).view(complex), model.solve(points),
                           rtol=1e-14, atol=0.0)


class TestTruncate:
    def test_degree_one_recovery(self):
        f = lambda s: 1.0 / (s + 1.0)
        samples = real_samples(f, [0.5, 1.5, 2.5, 3.5])
        red = truncate(build_pencil(partition(samples, "alternating")), order=1)
        fresh = np.linspace(0.2, 4.0, 17)
        err = np.abs(red.model.eval(fresh) - f(fresh))
        assert err.max() <= 1e-12

    @pytest.mark.parametrize("degree,seed", [(3, 0), (5, 1), (8, 2)])
    def test_exact_recovery_of_random_rationals(self, degree, seed):
        samples, f, true_poles, _, _ = rational_samples(degree, seed, n_pairs=3 * degree)
        red = truncate(build_pencil(partition(samples)), order=degree)
        rng = np.random.default_rng(seed + 100)
        fresh = rng.uniform(0, 10, 100) + 1j * rng.uniform(-1, 1, 100)
        rel = np.abs(red.model.eval(fresh) - f(fresh)) / np.abs(f(fresh))
        assert rel.max() <= 1e-9
        assert match_distance(true_poles, poles(red.model)) <= 1e-8

    def test_interpolation_at_partition_points(self):
        samples, f, *_ = rational_samples(4, 3, n_pairs=16)
        part = partition(samples)
        red = truncate(build_pencil(part), order=4)
        scale = np.abs(samples.values).max()
        assert np.abs(red.model.eval(part.lam) - part.w).max() <= 1e-8 * scale
        assert np.abs(red.model.eval(part.mu) - part.v).max() <= 1e-8 * scale

    def test_tolerance_mode_picks_minimal_order(self):
        samples, *_ = rational_samples(4, 5, n_pairs=16)
        red = truncate(build_pencil(partition(samples)), tol=1e-10)
        assert red.model.order == 4

    def test_order_larger_than_rank_refused(self):
        samples, *_ = rational_samples(2, 7, n_pairs=12)
        with pytest.raises(RankError) as info:
            truncate(build_pencil(partition(samples)), order=9)
        assert info.value.rank == 2

    @pytest.mark.parametrize("order", [0, -3, 2.5, 2.0, "2"])
    def test_order_below_one_or_not_an_integer_is_a_setting_error(self, order):
        samples, *_ = rational_samples(2, 7, n_pairs=12)
        with pytest.raises(SettingError, match="order"):
            truncate(build_pencil(partition(samples)), order=order)

    def test_numpy_integer_order_accepted(self):
        samples, *_ = rational_samples(2, 7, n_pairs=12)
        pencil = build_pencil(partition(samples))
        got = truncate(pencil, order=np.int64(2)).model
        assert got.E.tobytes() == truncate(pencil, order=2).model.E.tobytes()

    def test_order_above_the_pencil_size_refused(self):
        samples, *_ = rational_samples(2, 7, n_pairs=3)
        with pytest.raises(RankError):
            truncate(build_pencil(partition(samples)), order=4)

    def test_exactly_one_mode_required(self):
        samples, *_ = rational_samples(2, 8, n_pairs=8)
        pencil = build_pencil(partition(samples))
        with pytest.raises(ValueError):
            truncate(pencil)
        with pytest.raises(ValueError):
            truncate(pencil, order=2, tol=1e-8)

    def test_realness_of_model_values_and_spectrum(self, medium_bessel_samples):
        red = truncate(build_pencil(partition(medium_bessel_samples)), order=8)
        xs = np.linspace(0.3, 9.7, 21)
        vals = red.model.eval(xs)
        assert np.all(np.abs(vals.imag) <= 1e-8 * np.abs(vals))
        assert conjugate_closed(poles(red.model))
        assert conjugate_closed(zeros(red.model))


@pytest.fixture(scope="module")
def structured_pencil():
    return build_pencil(partition(sample_oracle(structured_grid(OMEGA, 101, 21), h_of_s)))


@pytest.fixture(scope="module")
def structured_11(structured_pencil):
    return truncate(structured_pencil, order=11)


@pytest.fixture(scope="module")
def full_svds(structured_pencil):
    """The two full thin SVDs of the two-sided projection: of [L, Ls] and [L; Ls]."""
    return (
        linalg.svd(np.hstack([structured_pencil.L, structured_pencil.Ls])),
        linalg.svd(np.vstack([structured_pencil.L, structured_pencil.Ls])),
    )


def two_sided_truncation(pencil, order=None, tol=None):
    """truncate() as written before the one-SVD projection, with np.hstack copies of [L, Ls] and [L*, Ls*]."""
    rng = np.random.default_rng(loewner._SKETCH_SEED)
    rows = np.hstack([pencil.L, pencil.Ls])
    width = (order if tol is None else 1) + loewner._OVERSAMPLE
    while True:
        svd_rows = linalg.leading_svd(rows, width, rng)
        sigma = svd_rows.singular_values
        if tol is None or sigma[-1] <= tol * sigma[0] or sigma.size == min(rows.shape):
            break
        width *= 2
    order = loewner._checked_order(sigma, order, tol, min(pencil.shape))  # with its rank guard
    svd_cols = linalg.leading_svd(np.hstack([pencil.L.conj().T, pencil.Ls.conj().T]),
                                  order + loewner._OVERSAMPLE, rng)
    Y, X = svd_rows.U[:, :order], svd_cols.U[:, :order]
    return projection(pencil, Y, X) + (np.ldexp(sigma, pencil.exponent), Y, X)


def shifted_truncation(pencil, shift, order=None, tol=None):
    """truncate() of a sketched pencil, written out: one sketch of shift * L - Ls gives Y and X."""
    rng = np.random.default_rng(loewner._SKETCH_SEED)
    shifted = shift * pencil.L - pencil.Ls
    width = (order if tol is None else 1) + loewner._OVERSAMPLE
    while True:
        res = linalg.leading_svd(shifted, width, rng)
        sigma = res.singular_values
        if tol is None or sigma[-1] <= tol * sigma[0] or sigma.size == min(shifted.shape):
            break
        width *= 2
    order = loewner._checked_order(sigma, order, tol, min(pencil.shape))  # with its rank guard
    Y, X = res.U[:, :order], res.V[:, :order]
    return projection(pencil, Y, X) + (np.ldexp(sigma, pencil.exponent), Y, X)


def projection(pencil, Y, X):
    """E, A, B and C of truncate()'s realization, scaled back to the pencil's exponent.

    E and A negate the projected blocks: (-Y*) L X would give -0.0 where
    -(Y* L X) gives 0.0, and the x = 0 projection of the benchmark pencil
    has exact zeros.
    """
    Yh = Y.conj().T
    blocks = -(Yh @ pencil.L @ X), -(Yh @ pencil.Ls @ X), Yh @ pencil.V, pencil.W @ X
    return tuple(linalg.ldexp(block, pencil.exponent) for block in blocks)


def reduction_bytes(red):
    m = red.model
    return [a.tobytes() for a in (m.E, m.A, m.B, m.C, red.singular_values, red.Y, red.X)]


class TestSketchedTruncation:
    """A pencil too large for a full SVD is projected with one sketch of x L - Ls."""

    def test_sketch_width_is_order_plus_oversampling(self, structured_pencil, structured_11):
        assert structured_pencil.shape == (1060, 1061)
        assert structured_11.singular_values.size == 31
        assert structured_11.Y.shape == (1060, 11) and structured_11.X.shape == (1061, 11)

    def test_leading_singular_values_match_full_svd(self, structured_pencil, structured_11):
        full = linalg.svd(structured_11.shift * structured_pencil.L - structured_pencil.Ls).singular_values
        full = np.ldexp(full, structured_pencil.exponent)
        sigma = structured_11.singular_values
        assert np.abs(sigma[:12] - full[:12]).max() <= 1e-13 * full[0]

    def test_in_domain_poles_match_the_two_sided_full_svd_model(self, structured_pencil, structured_11,
                                                               full_svds):
        # the realization with Y and X from the full SVDs of [L, Ls] and [L; Ls]
        Y = full_svds[0].U[:, :11]
        X = full_svds[1].V[:, :11]
        reference = poles(StateSpaceModel(
            E=-Y.conj().T @ structured_pencil.L @ X,
            A=-Y.conj().T @ structured_pencil.Ls @ X,
            B=Y.conj().T @ structured_pencil.V,
            C=structured_pencil.W @ X,
        ))
        reference = reference[OMEGA.contains(reference)]
        got = poles(structured_11.model)
        got = got[OMEGA.contains(got)]
        assert got.size == reference.size == 3
        assert match_distance(got, reference) <= 1e-12
        assert match_distance(reference, got) <= 1e-12

    def test_repeated_calls_are_byte_identical(self, structured_pencil, structured_11):
        again = truncate(structured_pencil, order=11).model
        for name in ("E", "A", "B", "C"):
            assert getattr(again, name).tobytes() == getattr(structured_11.model, name).tobytes()

    def test_tolerance_mode_doubles_the_sketch_past_twenty(self):
        samples, *_ = rational_samples(26, 0, n_pairs=150)
        pencil = build_pencil(partition(samples))
        red = truncate(pencil, tol=1e-10)
        full = linalg.svd(red.shift * pencil.L - pencil.Ls).singular_values
        expected = int(np.nonzero(full / full[0] <= 1e-10)[0][0])
        assert red.model.order == expected > 20
        # one doubling (21 -> 42), short of the full 150 values
        assert red.singular_values.size == 42

    def test_order_mode_keeps_the_bytes_of_the_written_out_projection(self, structured_pencil,
                                                                       structured_11):
        want = shifted_truncation(structured_pencil, 0.0, order=11)
        assert reduction_bytes(structured_11) == [a.tobytes() for a in want]

    def test_tolerance_mode_keeps_the_bytes_of_the_written_out_projection(self):
        samples, *_ = rational_samples(26, 0, n_pairs=150)
        pencil = build_pencil(partition(samples))
        red = truncate(pencil, tol=1e-10)
        assert red.singular_values.size == 42  # the sketch doubled once
        want = shifted_truncation(pencil, red.shift, tol=1e-10)
        assert reduction_bytes(red) == [a.tobytes() for a in want]

    def test_global_random_state_untouched(self):
        samples, *_ = rational_samples(3, 4, n_pairs=60)
        pencil = build_pencil(partition(samples))
        np.random.seed(1)
        before = np.random.get_state()
        red = truncate(pencil, order=3)
        after = np.random.get_state()
        # the sketch path was taken: fewer values than the full SVD's 60
        assert red.singular_values.size == 23
        assert np.array_equal(before[1], after[1]) and before[2:] == after[2:]

    def test_order_above_the_numerical_rank_is_a_rank_error(self):
        samples, *_ = rational_samples(2, 7, n_pairs=100)
        pencil = build_pencil(partition(samples))
        with pytest.raises(RankError) as info:
            truncate(pencil, order=5)  # a sketch of 25 columns of the 100 x 100 x L - Ls
        assert info.value.rank == 2
        assert str(info.value).startswith(
            "order 5 exceeds the numerical rank 2 of the data (sigma_5/sigma_1 = ")

    def test_an_svd_error_keeps_its_type(self, monkeypatch):
        samples, *_ = rational_samples(4, 3, n_pairs=120)
        pencil = build_pencil(partition(samples))

        def failing(a):
            raise ComputationError("SVD did not converge")

        monkeypatch.setattr(linalg, "svd", failing)
        with pytest.raises(ComputationError, match="^SVD did not converge$") as info:
            truncate(pencil, order=4)
        assert type(info.value) is ComputationError


class TestSmallPencils:
    """A pencil small enough for the full SVD of [L, Ls] keeps the two-sided projection, byte for byte."""

    @pytest.mark.parametrize("order", [8, 11])
    def test_order_mode_keeps_the_two_sided_bytes(self, small_bessel_samples, order):
        pencil = build_pencil(partition(small_bessel_samples))
        red = truncate(pencil, order=order)
        # order + 20 >= min(52, 106) // 2
        assert pencil.shape == (52, 53) and red.shift is None
        assert red.singular_values.size == 52  # all of [L, Ls]'s
        assert reduction_bytes(red) == [a.tobytes() for a in two_sided_truncation(pencil, order=order)]

    def test_tolerance_mode_keeps_the_two_sided_bytes(self):
        samples, *_ = rational_samples(4, 5, n_pairs=20)
        pencil = build_pencil(partition(samples))
        red = truncate(pencil, tol=1e-10)
        # the first width, 21, >= min(20, 40) // 2
        assert pencil.shape == (20, 20) and red.shift is None and red.model.order == 4
        assert reduction_bytes(red) == [a.tobytes() for a in two_sided_truncation(pencil, tol=1e-10)]

    def test_a_sketched_column_side_keeps_the_two_sided_bytes(self):
        # order 6: 26 >= min(40, 200) // 2, so [L, Ls] takes the full SVD, while the
        # 100 x 80 adjoint of [L; Ls] is sketched (26 < 80 // 2)
        f, *_ = make_rational(6, 2)
        rng = np.random.default_rng(2)
        mu = rng.uniform(0.0, 10.0, 40) + 1j * rng.uniform(-1.0, 1.0, 40)
        lam = rng.uniform(0.0, 10.0, 100) + 1j * rng.uniform(-1.0, 1.0, 100)
        pencil = build_pencil(DataPartition(mu=mu, v=f(mu), lam=lam, w=f(lam)))
        red = truncate(pencil, order=6)
        assert red.shift is None and red.singular_values.size == 40
        assert reduction_bytes(red) == [a.tobytes() for a in two_sided_truncation(pencil, order=6)]

    def test_every_recursive_fit_pencil_keeps_the_two_sided_projection(self, monkeypatch):
        samples = sample_oracle(structured_grid(OMEGA, 41, 9), h_of_s)
        shifts = []

        def spy(pencil, **setting):
            red = truncate(pencil, **setting)
            shifts.append(red.shift)
            want = two_sided_truncation(pencil, **setting)
            assert reduction_bytes(red) == [a.tobytes() for a in want]
            return red

        monkeypatch.setattr(greedy, "truncate", spy)
        greedy.fit_greedy(samples, order_target=11, seed=0)
        assert len(shifts) > 10 and set(shifts) == {None}


@pytest.mark.parametrize("setting", [{"order": 4}, {"tol": 1e-10}])
@pytest.mark.parametrize("size", ["sketched", "small"])
def test_truncation_and_projection_leave_the_pencil_untouched(structured_pencil, size, setting):
    if size == "sketched":
        pencil = structured_pencil
    else:
        samples, *_ = rational_samples(4, 5, n_pairs=20)
        pencil = build_pencil(partition(samples))
    names = ("L", "Ls", "V", "W", "mu", "lam")
    before = [getattr(pencil, name).tobytes() for name in names]
    red = truncate(pencil, **setting)
    assert (red.shift is None) == (size == "small")
    projected_points(pencil, red.Y, red.X)
    assert [getattr(pencil, name).tobytes() for name in names] == before


def assert_pencil_bytes(pencil, part):
    fresh = build_pencil(part)
    assert pencil.L.tobytes() == fresh.L.tobytes()
    assert pencil.Ls.tobytes() == fresh.Ls.tobytes()


@pytest.mark.parametrize("setting", [{"order": 11}, {"tol": 1e-11}])
def test_a_sketched_truncation_gives_back_the_bytes_of_a_fresh_pencil(setting):
    # truncate writes x L - Ls over the pencil's Ls and rebuilds it
    part = partition(sample_oracle(structured_grid(OMEGA, 101, 21), h_of_s))
    pencil = build_pencil(part)
    assert truncate(pencil, **setting).shift is not None
    assert_pencil_bytes(pencil, part)


def test_a_sketched_truncation_that_raises_gives_back_the_pencil():
    samples, *_ = rational_samples(2, 7, n_pairs=100)
    part = partition(samples)
    pencil = build_pencil(part)
    with pytest.raises(RankError, match="^order 5 exceeds the numerical rank 2"):
        truncate(pencil, order=5)  # the order check fails after the sketch of x L - Ls
    assert_pencil_bytes(pencil, part)


@pytest.fixture(scope="module")
def repro_fits():
    """Both repro sample sets, their pencils, and a 500 x 500 oracle surface with its off-pole mask.

    Off the poles means outside discs of radius 0.05 around the first three zeros of J0.
    """
    truth = analysis.oracle_grid(h_of_s, OMEGA, 500, 500)
    off_pole = np.all(np.abs(truth.points[:, None] - BESSEL_J0_ZEROS[:3]) > 0.05, axis=1)
    sets = {"structured": structured_grid(OMEGA, 101, 21), "uniform": uniform_random_grid(OMEGA, 1000, 0)}
    pencils = {name: build_pencil(partition(sample_oracle(pts, h_of_s))) for name, pts in sets.items()}
    return pencils, truth, off_pole


def smallest_value_point(pencil):
    """The partition point (mu, then lam; the first on ties) of smallest |value|."""
    points = np.concatenate([pencil.mu, pencil.lam])
    return complex(points[np.argmin(np.abs(np.concatenate([pencil.V, pencil.W])))])


class TestShift:
    """The shift x of x L - Ls: its rule, and what the fit keeps for other real shifts."""

    def test_shift_is_the_real_part_of_the_point_of_smallest_value(self, repro_fits):
        pencils, *_ = repro_fits
        for pencil in pencils.values():
            red = truncate(pencil, order=11)
            assert type(red.shift) is float and red.shift == smallest_value_point(pencil).real
        assert truncate(pencils["structured"], order=11).shift == 0.0  # J0 is largest at +-i

    def test_poles_are_conjugate_closed_for_a_real_shift_only(self, repro_fits, monkeypatch):
        pencils, *_ = repro_fits
        for pencil in pencils.values():
            assert conjugate_closed(poles(truncate(pencil, order=11).model), tol=1e-6)
        # the point itself, complex, as the shift: the model is no longer conjugate-closed
        monkeypatch.setattr(loewner, "_shift", smallest_value_point)
        assert not conjugate_closed(poles(truncate(pencils["structured"], order=11).model), tol=1e-6)

    @pytest.mark.parametrize("rule", ["smallest value", "zero", "mean real part"])
    def test_off_pole_maximum_keeps_within_five_percent(self, repro_fits, monkeypatch, rule):
        # the off-pole maxima of the two-sided projection, one BLAS thread, numpy 2.4.6, scipy 1.17.1
        two_sided = {"structured": 2.687e-10, "uniform": 2.909e-10}
        shifts = {"zero": lambda pencil: 0.0,
                  "mean real part": lambda pencil: float(np.concatenate([pencil.mu, pencil.lam]).real.mean())}
        if rule in shifts:
            monkeypatch.setattr(loewner, "_shift", shifts[rule])
        pencils, truth, off_pole = repro_fits
        for name, pencil in pencils.items():
            model = truncate(pencil, order=11).model
            err = np.abs(model.eval(truth.points) - truth.values)
            assert np.nanmax(err[off_pole]) <= 1.05 * two_sided[name]

    def test_a_shift_on_a_pole_of_the_data_loses_a_direction(self):
        # 1/(s + 2) plus a conjugate pair; the samples of smallest |value| sit at -2 +- 200i
        f = lambda s: 1.0 / (s + 2.0) + (1.0 + 1.0j) / (s - 4.0 - 2.0j) + (1.0 - 1.0j) / (s - 4.0 + 2.0j)
        rng = np.random.default_rng(3)
        upper = rng.uniform(0.0, 10.0, 60) + 1j * rng.uniform(0.1, 1.0, 60)
        upper = np.append(upper, -2.0 + 200.0j)
        samples = sample_oracle(np.concatenate([upper, upper.conj()]), f)
        pencil = build_pencil(partition(samples))
        assert loewner._shift(pencil) == -2.0
        with pytest.raises(RankError) as info:
            truncate(pencil, order=3)
        assert info.value.rank == 2
        assert truncate(pencil, tol=1e-10).model.order == 2


def repro_model_digests():
    """Digests of the recursive-Loewner, AAA and VF models on both repro grids, seeds 0 to 3."""
    digests = []
    structured = sample_oracle(structured_grid(OMEGA, 101, 21), h_of_s)
    for seed in range(4):
        uniform = sample_oracle(uniform_random_grid(OMEGA, 1000, seed), h_of_s)
        cases = [(uniform, "rloewner"), (uniform, "aaa"), (uniform, "vf"), (structured, "rloewner")]
        if seed == 0:
            cases += [(structured, "aaa"), (structured, "vf")]  # their fits take no seed
        for samples, method in cases:
            settings_ = {"seed": seed} if method == "rloewner" else {}
            model = analysis.fit(method, samples, **settings_)[0]
            digests.append(hashlib.sha256(json.dumps(model_to_dict(model)).encode()).hexdigest())
    return digests


def test_recursive_loewner_aaa_and_vf_models_keep_the_bytes_of_the_two_sided_truncation(monkeypatch):
    # the reference: every pencil projected as before the one-SVD projection, and the
    # Cauchy sum as it was before its residues got the axes of the differences
    got = repro_model_digests()

    def cauchy_sum(diff, residues):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return ((1.0 / diff) * residues).sum(axis=-1)

    def reference(pencil, order=None, tol=None):
        E, A, B, C, sigma, Y, X = two_sided_truncation(pencil, order=order, tol=tol)
        return loewner.LoewnerReduction(model=StateSpaceModel(E=E, A=A, B=B, C=C), singular_values=sigma,
                                        Y=Y, X=X)

    monkeypatch.setattr(linalg, "cauchy_sum", cauchy_sum)
    monkeypatch.setattr(greedy, "truncate", reference)
    assert repro_model_digests() == got


_SKETCH_PROBE = """
import hashlib, json, os, sys
if len(sys.argv) > 1:
    os.sched_setaffinity(0, {int(sys.argv[1])})  # before numpy sizes its BLAS pool
from ratapprox import OMEGA, h_of_s, loewner, sample_oracle, structured_grid, uniform_random_grid
from ratapprox.analysis import FIT_DEFAULTS, fit
from ratapprox.serialize import model_to_dict

digest = hashlib.sha256()
for points in (structured_grid(OMEGA, 101, 21), uniform_random_grid(OMEGA, 300, 0)):
    samples = sample_oracle(points, h_of_s)
    pencil = loewner.build_pencil(loewner.partition(samples))
    for setting in ({"order": 11}, {"tol": 1e-11}):
        red = loewner.truncate(pencil, **setting)
        m = red.model
        for array in (m.E, m.A, m.B, m.C, red.singular_values, red.Y, red.X):
            digest.update(array.tobytes())
    for method in FIT_DEFAULTS:
        digest.update(json.dumps(model_to_dict(fit(method, samples)[0])).encode())
print(len(os.sched_getaffinity(0)), digest.hexdigest())
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
@pytest.mark.skipif(hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs")
def test_fits_give_the_bytes_of_one_cpu():
    src = str(Path(ratapprox.__file__).resolve().parents[1])

    def probe(*args):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        done = subprocess.run([sys.executable, "-c", _SKETCH_PROBE, *args], env=env, capture_output=True,
                              text=True, timeout=300, check=True)
        cpus, digest = done.stdout.split()
        return int(cpus), digest

    cpus, pinned_digest = probe(str(min(os.sched_getaffinity(0))))
    assert cpus == 1
    cpus, digest = probe()
    assert cpus >= 2
    assert digest == pinned_digest


_MEMORY_PROBE = """
from ratapprox import OMEGA, build_pencil, h_of_s, partition, sample_oracle, structured_grid, truncate

def status_kb(field):
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith(field + ":"))

part = partition(sample_oracle(structured_grid(OMEGA, 141, 29), h_of_s))
before = status_kb("VmRSS")
pencil = build_pencil(part)
q, k = pencil.shape
truncate(pencil, order=11)
after_order = status_kb("VmHWM")
truncate(pencil, tol=1e-11)
after_tol = status_kb("VmHWM")
print(q, k, before, after_order, after_tol)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc for VmRSS")
def test_fit_holds_at_most_two_and_a_half_pencil_sized_arrays():
    # N = 4,089 samples: a 2044 x 2045 pencil, 64 MB per complex array.  The pencil
    # itself is two of them (L and Ls); build_pencil and truncate work in row blocks,
    # and truncate writes x L - Ls over Ls.  Three arrays, as a pencil-sized
    # difference array or a separate x L - Ls would make, read about 3.2.
    # The peak is the child's own VmHWM: its ru_maxrss would also hold the peak of
    # this test process, which Linux keeps across the child's exec.  OpenBLAS adds
    # a work buffer of a few MB per thread, which is not the fit's: the child runs
    # one BLAS thread, as the benchmark's fits do.
    src = str(Path(ratapprox.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _MEMORY_PROBE], env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    q, k, before, after_order, after_tol = map(int, done.stdout.split())
    assert (q, k) == (2044, 2045)
    unit_kb = q * k * 16 / 1024  # VmRSS and VmHWM are in kB
    assert (after_order - before) / unit_kb <= 2.5
    assert (after_tol - before) / unit_kb <= 2.5


class TestPolesZeros:
    def test_poles_of_simple_lag(self):
        f = lambda s: 1.0 / (s + 1.0)
        samples = real_samples(f, [0.5, 1.5, 2.5, 3.5])
        red = truncate(build_pencil(partition(samples, "alternating")), order=1)
        got = poles(red.model)
        assert got.size == 1
        assert abs(got[0] - (-1.0)) <= 1e-10

    def test_zeros_of_lead_lag(self):
        f = lambda s: (s + 2.0) / (s + 1.0)
        samples = real_samples(f, [0.5, 1.5, 2.5, 3.5])
        red = truncate(build_pencil(partition(samples, "alternating")), order=2)
        got = zeros(red.model)
        assert got.size >= 1
        assert np.min(np.abs(got - (-2.0))) <= 1e-8

    def test_strictly_proper_model_has_fewer_zeros(self):
        samples, *_ = rational_samples(5, 11, n_pairs=20)
        red = truncate(build_pencil(partition(samples)), order=5)
        assert zeros(red.model).size <= 4  # two infinite eigenvalues forced by structure


class TestEval:
    def test_scalar_and_array_agree(self):
        samples, *_ = rational_samples(3, 13, n_pairs=12)
        model = truncate(build_pencil(partition(samples)), order=3).model
        pts = np.array([0.4 + 0.1j, 5.0, 9.0 - 0.8j])
        arr = model.eval(pts)
        assert all(arr[i] == model.eval(complex(p)) for i, p in enumerate(pts))

    def test_eval_at_model_pole_raises(self):
        f = lambda s: 1.0 / (s + 1.0)
        samples = real_samples(f, [0.5, 1.5, 2.5, 3.5])
        model = truncate(build_pencil(partition(samples, "alternating")), order=1).model
        pole = poles(model)[0]
        with pytest.raises(PoleError):
            model.eval(complex(pole))

    def test_scalars_in_and_out_of_the_discs_equal_the_array_bitwise(self):
        model, *_ = conjugate_state_space(5, 21)
        pts = modal_and_lu_points(model, np.random.default_rng(22))
        near = inside_discs(model, pts)
        assert near.any() and not near.all()
        alone = np.array([model.eval(complex(z)) for z in pts])
        assert alone.tobytes() == model.eval(pts).tobytes()
        assert alone[near].tobytes() == model.solve(pts[near]).tobytes()
        solved = np.array([model.solve(complex(z)) for z in pts])
        assert solved.tobytes() == model.solve(pts).tobytes()

    def test_order_1_scalars_equal_the_array_bitwise(self):
        model = StateSpaceModel(E=[[0.7 - 0.2j]], A=[[1.3 + 2.1j]], B=[0.9 + 0.1j], C=[1.1 - 0.4j])
        assert model.modal is not None and model.modal.radii[0] == np.inf  # the LU solve everywhere
        pts = np.array([1.0, 1j]) @ np.random.default_rng(23).uniform(-5.0, 5.0, (2, 40))
        for evaluate in (model.eval, model.solve):
            alone = np.array([evaluate(complex(z)) for z in pts])
            assert alone.tobytes() == evaluate(pts).tobytes()
        exact = StateSpaceModel(E=[[0.5]], A=[[1.0 + 2.0j]], B=[0.9 + 0.1j], C=[1.1 - 0.4j])
        for where in (2.0 + 4.0j, np.array([1.0, 2.0 + 4.0j, 3.0])):
            with pytest.raises(PoleError) as info:
                exact.eval(where)
            assert info.value.point == 2.0 + 4.0j

    def test_a_solve_that_overflows_gives_nan_without_a_warning(self):
        # subnormal E: the solution overflows, and C = 0 times its infinities is NaN
        E = np.full((4, 4), 2.22507386e-311 + 0j)
        E[0, 3] = 1.0
        model = StateSpaceModel(E=E, A=np.zeros((4, 4)), B=np.ones(4), C=np.zeros(4))
        assert model.modal is None
        assert np.isnan(model.eval(np.array([[251.0]]))).all()


def modal_and_lu_points(model, rng, n=60):
    """Random points around the model's poles: inside and outside their LU discs."""
    modal = model.modal
    centre = modal.poles[rng.integers(0, modal.poles.size, n)]
    scale = rng.uniform(0.0, 3.0, n) * np.min(np.where(np.isfinite(modal.radii), modal.radii, 1.0))
    pts = centre + scale * np.exp(2j * np.pi * rng.uniform(size=n))
    return np.concatenate([pts, rng.uniform(-2.0, 12.0, n) + 1j * rng.uniform(-5.0, 5.0, n)])


def inside_discs(model, pts):
    modal = model.modal
    return np.any(np.abs(pts[:, None] - modal.poles[None, :]) <= modal.radii, axis=1)


@pytest.fixture(scope="module")
def benchmark_surface():
    """The 101 x 21 benchmark samples and a 250 x 250 oracle surface over the rectangle."""
    samples = sample_oracle(structured_grid(OMEGA, 101, 21), h_of_s)
    return samples, analysis.oracle_grid(h_of_s, OMEGA, 250, 250)


def with_checked_discs(model, monkeypatch):
    """A copy of ``model`` whose modal form keeps the discs of the probe check, before any shrinks."""
    with monkeypatch.context() as patch:
        patch.setattr(loewner, "_shrunk_radii", lambda model, poles, residues, delta, radii: radii)
        copy = StateSpaceModel(E=model.E, A=model.A, B=model.B, C=model.C)
        assert copy.modal is not None
    return copy


def exact_modal_sum(monkeypatch, poles, residues):
    """Make the LU solve return the modal sum, so that only geometry and floors stop the discs."""
    monkeypatch.setattr(loewner, "_solve", lambda model, pts: linalg.cauchy_sum(pts[..., None] - poles, residues))


class TestModalForm:
    @settings(max_examples=30, deadline=None)
    @given(degree=st.integers(2, 8), seed=st.integers(0, 10_000))
    def test_agrees_with_lu_outside_the_discs(self, degree, seed):
        model, f, true_poles, _ = conjugate_state_space(degree, seed)
        assert model.modal is not None
        assert match_distance(true_poles, model.modal.poles) < 1e-10
        assert match_distance(model.modal.poles, true_poles) < 1e-10
        pts = modal_and_lu_points(model, np.random.default_rng(seed))
        near = inside_discs(model, pts)
        assert near.any() and not near.all()
        got, want = model.eval(pts), model.solve(pts)
        assert np.all(np.abs(got[~near] - want[~near]) <= 1e-10 * np.abs(want[~near]))
        # inside the discs the LU solve itself, bit for bit
        assert got[near].tobytes() == want[near].tobytes()

    def test_batch_outside_the_discs_equals_a_batch_crossing_them(self):
        model, *_ = conjugate_state_space(5, 21)
        pts = modal_and_lu_points(model, np.random.default_rng(21))
        near = inside_discs(model, pts)
        assert near.any() and not near.all()
        crossing = model.eval(pts)
        assert model.eval(pts[~near]).tobytes() == crossing[~near].tobytes()
        alone = np.array([model.eval(complex(z)) for z in pts[~near]])
        assert alone.tobytes() == crossing[~near].tobytes()

    def test_ratapprox_fit_has_a_modal_form_that_keeps_the_dense_maximum(self, medium_bessel_samples):
        model = truncate(build_pencil(partition(medium_bessel_samples)), order=11).model
        assert model.modal is not None
        pts = structured_grid(OMEGA, 101, 41)
        vals = h_of_s(pts)
        assert np.max(np.abs(model.eval(pts) - vals)) == np.max(np.abs(model.solve(pts) - vals))

    @pytest.mark.parametrize("method", ["loewner", "rloewner"])
    def test_shrunk_discs_keep_the_dense_maximum_with_few_lu_points(self, method, benchmark_surface,
                                                                     monkeypatch):
        samples, truth = benchmark_surface
        model, _ = analysis.fit(method, samples)
        checked = with_checked_discs(model, monkeypatch)
        assert np.all(model.modal.radii <= checked.modal.radii)
        solve, solved = loewner._solve, []

        def spy(solved_model, chunk):
            solved.append(chunk.size)
            return solve(solved_model, chunk)

        with monkeypatch.context() as patch:
            patch.setattr(loewner, "_solve", spy)
            got = analysis.model_error(model, truth)
        # the checked discs hold about a quarter of the grid
        assert sum(solved) <= 0.02 * truth.points.size
        want = analysis.model_error(checked, truth)
        assert (got.max_error, got.argmax_point) == (want.max_error, want.argmax_point)

    def test_shrinking_keeps_zero_and_infinite_radii(self, monkeypatch):
        lone = StateSpaceModel(E=[[2.0]], A=[[-1.0 + 0.5j]], B=[1.5], C=[0.7])
        assert lone.modal.radii.tolist() == [np.inf]
        pts = np.linspace(-3, 3, 97) + 1j * np.linspace(-2, 2, 97)
        assert lone.eval(pts).tobytes() == lone.solve(pts).tobytes()
        with pytest.raises(PoleError):
            lone.eval(-0.5 + 0.25j)
        # the pole at 2j has no residue and a zero disc
        model = StateSpaceModel(E=np.eye(3), A=np.diag([1j, 2j, 3j]), B=np.array([1.0, 0.0, 1.0]),
                                C=np.ones(3))
        checked = with_checked_discs(model, monkeypatch)
        assert model.modal.radii[1] == checked.modal.radii[1] == 0.0
        assert np.all(model.modal.radii <= checked.modal.radii)
        pts = np.linspace(-4, 4, 97) + 1j * np.linspace(-4, 8, 97)[::-1]
        outside = ~inside_discs(checked, pts)
        assert outside.any()
        assert model.eval(pts[outside]).tobytes() == checked.eval(pts[outside]).tobytes()
        with pytest.raises(PoleError):
            model.eval(2j)

    @pytest.mark.parametrize("outer, shrunk", [(1.3, 0.4), (1.15, 0.2)])
    def test_disc_stops_where_its_halved_circle_lies_inside_another(self, monkeypatch, outer, shrunk):
        # poles 0 and 1; the disc of 0 is at its floor delta and keeps its radius
        poles, residues = np.array([0.0, 1.0 + 0j]), np.array([1.0, 0.5 + 0j])
        model = StateSpaceModel(E=np.eye(2), A=np.diag(poles), B=np.ones(2), C=residues)
        exact_modal_sum(monkeypatch, poles, residues)
        radii = loewner._shrunk_radii(model, poles, residues, np.array([outer, 0.0]), np.array([outer, 0.4]))
        assert radii.tolist() == [outer, shrunk]

    def test_discs_stop_above_the_pole_uncertainty(self, monkeypatch):
        poles, residues = np.array([0.0, 1.0 + 0j]), np.array([1.0, 0.5 + 0j])
        model = StateSpaceModel(E=np.eye(2), A=np.diag(poles), B=np.ones(2), C=residues)
        exact_modal_sum(monkeypatch, poles, residues)
        radii = loewner._shrunk_radii(model, poles, residues, np.array([1e-3, 1e-3]), np.array([0.4, 0.4]))
        assert radii.tolist() == [0.4 / 256] * 2

    @staticmethod
    def assert_lu_everywhere(model):
        assert model.modal is None
        pts = np.linspace(-3, 12, 97) + 1j * np.linspace(-2, 2, 97)[::-1]
        assert model.eval(pts).tobytes() == model.solve(pts).tobytes()
        assert complex(model.eval(1.5 + 0.5j)) == model.solve(np.array([1.5 + 0.5j]))[0]

    def test_defective_pencil_falls_back_to_lu(self):
        # a 2 x 2 Jordan block at 2 next to a simple pole at 5, hidden by a similarity
        rng = np.random.default_rng(0)
        t = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        jordan = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 5.0]])
        model = StateSpaceModel(E=np.eye(3), A=t @ jordan @ np.linalg.inv(t),
                                B=rng.standard_normal(3), C=rng.standard_normal(3))
        self.assert_lu_everywhere(model)

    def test_singular_e_falls_back_to_lu(self):
        # data with a constant part: 1/(s + 1) + 2 at order 2 puts the constant in E's null space
        f = lambda s: 1.0 / (s + 1.0) + 2.0
        samples = real_samples(f, np.linspace(0.5, 6.5, 8))
        model = truncate(build_pencil(partition(samples, "alternating")), order=2).model
        assert np.linalg.cond(model.E) > 1e12
        self.assert_lu_everywhere(model)
        assert abs(model.eval(3.0) - f(3.0)) < 1e-8

    def test_ill_conditioned_eigenvectors_fall_back_to_lu(self):
        # eigenvectors at an angle of 1e-9: cond(V) about 1e9
        v = np.array([[1.0, 1.0], [0.0, 1e-9]])
        model = StateSpaceModel(E=np.eye(2), A=v @ np.diag([1.0, 3.0]) @ np.linalg.inv(v),
                                B=np.array([1.0, 0.5]), C=np.array([0.3, 1.0]))
        assert np.linalg.cond(v) > 1e8
        self.assert_lu_everywhere(model)

    def test_pole_without_residue_keeps_pole_error(self):
        # the pole at 2j is uncontrollable: zero residue, zero disc
        model = StateSpaceModel(E=np.eye(3), A=np.diag([1j, 2j, 3j]), B=np.array([1.0, 0.0, 1.0]),
                                C=np.ones(3))
        assert model.modal is not None and model.modal.radii[1] == 0.0
        pts = np.array([0.5, 2j + 0.3, 5.0 - 1j])
        assert np.allclose(model.eval(pts), 1.0 / (pts - 1j) + 1.0 / (pts - 3j), rtol=1e-14)
        with pytest.raises(PoleError):
            model.eval(2j)

    def test_decomposition_computed_once_per_model(self, monkeypatch):
        import scipy.linalg

        calls = []
        eig = scipy.linalg.eig

        def spy(*args, **kwargs):
            calls.append(args)
            return eig(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eig", spy)
        model, *_ = conjugate_state_space(6, 3)
        pts = np.linspace(0, 10, 3 * linalg._EVAL_CHUNK + 5) + 0.5j
        for _ in range(3):
            model.eval(pts)
            model.eval(2.0 + 0.1j)
        assert len(calls) == 1
        assert modal_form(model) is not None and len(calls) == 2


class TestProjectedPoints:
    def test_sizes_and_conjugate_closure(self, medium_bessel_samples):
        pencil = build_pencil(partition(medium_bessel_samples))
        red = truncate(pencil, order=8)
        proj = projected_points(pencil, red.Y, red.X)
        assert proj.lambda_hat.size == 8
        assert proj.mu_hat.size == 8
        assert conjugate_closed(proj.lambda_hat, tol=1e-7)
        assert conjugate_closed(proj.mu_hat, tol=1e-7)

    def test_points_inside_domain(self, medium_bessel_samples):
        pencil = build_pencil(partition(medium_bessel_samples))
        red = truncate(pencil, order=8)
        proj = projected_points(pencil, red.Y, red.X)
        assert np.all(OMEGA.contains(proj.lambda_hat))
        assert np.all(OMEGA.contains(proj.mu_hat))

    @staticmethod
    def inlined_points(pencil, Y, X):
        """projected_points() as it was written, with its own projection and all-ones directions."""
        Lh = Y.conj().T @ pencil.L @ X
        Lsh = Y.conj().T @ pencil.Ls @ X
        Vh = Y.conj().T @ pencil.V
        Ldh = Y.conj().T @ np.ones(pencil.mu.size).astype(complex)
        Wh = pencil.W @ X
        Rh = np.ones(pencil.lam.size).astype(complex) @ X
        rhs_r = Lsh - np.outer(Vh, Rh)
        rhs_l = Lsh - np.outer(Ldh, Wh)
        return (linalg.finite_generalized_eigenvalues(rhs_r, Lh),
                linalg.finite_generalized_eigenvalues(rhs_l, Lh))

    def assert_inlined_bytes(self, pencil, red):
        proj = projected_points(pencil, red.Y, red.X)
        want = self.inlined_points(pencil, red.Y, red.X)
        assert proj.lambda_hat.tobytes() == want[0].tobytes()
        assert proj.mu_hat.tobytes() == want[1].tobytes()

    def test_keeps_the_inlined_bytes_at_order_11(self, structured_pencil, structured_11):
        self.assert_inlined_bytes(structured_pencil, structured_11)

    def test_keeps_the_inlined_bytes_past_a_doubled_sketch(self):
        samples, *_ = rational_samples(26, 0, n_pairs=150)
        pencil = build_pencil(partition(samples))
        red = truncate(pencil, tol=1e-10)
        assert red.model.order > 20
        self.assert_inlined_bytes(pencil, red)


class TestTrajectoryStudy:
    def test_unknown_scheme_raises_before_any_sample(self):
        # a bad order is checked as early: tests/test_count_settings.py
        points = []

        def oracle(s):
            points.append(np.size(s))
            return h_of_s(s)

        with pytest.raises(SettingError, match="unknown partition scheme"):
            trajectory_study(oracle, OMEGA, a=10, n_steps=2, scheme="bogus")
        assert sum(points) == 0

    def test_first_step_matches_direct_fit(self):
        steps = trajectory_study(h_of_s, OMEGA, a=6, n_steps=2, order=5)
        samples = sample_oracle(structured_grid(OMEGA, 6, 7), h_of_s)
        pencil = build_pencil(partition(samples))
        red = truncate(pencil, order=5)
        direct = projected_points(pencil, red.Y, red.X)
        assert np.allclose(
            np.sort_complex(steps[0].projected.lambda_hat),
            np.sort_complex(direct.lambda_hat),
        )
        assert steps[0].n_points == 42
        assert steps[1].nx == 12 and steps[1].ny == 13

    def test_values_at_the_top_of_the_double_range_keep_the_points(self):
        # 2^1015 times values of up to about 83 on the 10 x 11 grid
        big = trajectory_study(lambda s: np.ldexp(1.0, 1015) * h_of_s(s), OMEGA, a=5, n_steps=2, order=8)
        plain = trajectory_study(h_of_s, OMEGA, a=5, n_steps=2, order=8)
        for got, want in zip(big, plain, strict=True):
            assert got.projected.lambda_hat.tobytes() == want.projected.lambda_hat.tobytes()
            assert got.projected.mu_hat.tobytes() == want.projected.mu_hat.tobytes()
