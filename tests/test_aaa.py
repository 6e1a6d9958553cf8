import mpmath as mp
import numpy as np
import pytest

from conftest import rational_samples
from ratapprox import (
    BarycentricModel,
    InsufficientDataError,
    SettingError,
    StagnationError,
    SymmetryError,
    barycentric_poles_zeros,
    cleanup,
    eval_barycentric,
    fit_aaa,
)
from ratapprox import OMEGA, aaa
from ratapprox.sampling import SampleSet, conjugate_mates, sample_oracle, structured_grid, uniform_random_grid
from ratapprox.special import h_of_s

mp.mp.dps = 40


def bary_eval_mp(model, s):
    """Extended-precision reference evaluation of the barycentric quotient."""
    num = mp.mpc(0)
    den = mp.mpc(0)
    for z, f, w in zip(model.support_points, model.support_values, model.weights):
        c = mp.mpc(w) / (mp.mpc(s) - mp.mpc(z))
        num += c * mp.mpc(f)
        den += c
    return complex(num / den)


class TestFit:
    def test_degree_three_rational_terminates_at_order_four(self):
        samples, f, *_ = rational_samples(3, 0, n_pairs=20, with_offset=True)
        model, history = fit_aaa(samples, tol=1e-12)
        assert model.order == 4
        fresh = np.linspace(0.3, 9.7, 50) + 0.21j
        err = np.abs(eval_barycentric(model, fresh) - f(fresh))
        assert err.max() <= 1e-11

    def test_interpolation_exact_at_support_points(self):
        samples, *_ = rational_samples(4, 1, n_pairs=20)
        model, _ = fit_aaa(samples, tol=1e-12)
        for z, f in zip(model.support_points, model.support_values):
            assert eval_barycentric(model, complex(z)) == f

    def test_greedy_history_and_final_error_agree(self):
        samples, *_ = rational_samples(3, 2, n_pairs=18)
        model, history = fit_aaa(samples, tol=1e-11)
        # independent re-evaluation over all non-support samples
        mask = ~np.isin(samples.points, model.support_points)
        err = np.abs(eval_barycentric(model, samples.points[mask]) - samples.values[mask])
        assert history[-1].max_error == err.max()

    def test_deterministic_without_seed(self):
        samples, *_ = rational_samples(3, 3, n_pairs=16)
        m1, h1 = fit_aaa(samples, tol=1e-11)
        m2, h2 = fit_aaa(samples, tol=1e-11)
        assert np.array_equal(m1.support_points, m2.support_points)
        assert np.array_equal(m1.weights, m2.weights)

    def test_seeded_start_changes_first_support_point(self):
        samples, *_ = rational_samples(3, 4, n_pairs=16)
        m_det, _ = fit_aaa(samples, tol=1e-10)
        starts = {fit_aaa(samples, tol=1e-10, seed=s)[0].support_points[0] for s in range(5)}
        assert len(starts) > 1

    def test_weight_vector_has_unit_norm_and_minimises_residual(self):
        samples, *_ = rational_samples(2, 5, n_pairs=10)
        model, _ = fit_aaa(samples, tol=1e-13, max_order=3)
        assert np.isclose(np.linalg.norm(model.weights), 1.0)
        mask = ~np.isin(samples.points, model.support_points)
        zs, fs = samples.points[mask], samples.values[mask]
        cauchy = 1.0 / (zs[:, None] - model.support_points[None, :])
        rows = (fs[:, None] - model.support_values[None, :]) * cauchy
        best = np.linalg.norm(rows @ model.weights)
        rng = np.random.default_rng(0)
        for _ in range(20):
            trial = rng.standard_normal(model.order) + 1j * rng.standard_normal(model.order)
            trial /= np.linalg.norm(trial)
            assert best <= np.linalg.norm(rows @ trial) + 1e-12

    def test_real_mode_checks_closure_before_the_first_step(self):
        # the fit starts at the real sample 3 and stops at order 1, so it never
        # promotes the stray point 1 + 1j
        samples = SampleSet(np.array([1.0 + 1.0j, 2.0, 3.0]), np.array([2.0, 2.0, 10.0]))
        with pytest.raises(SymmetryError, match=r"^point \(1\+1j\) has no conjugate mate in the set$"):
            fit_aaa(samples, real_mode=True, max_order=1)

    @pytest.mark.parametrize("gap, promoted", [(1e-13, "low"), (1e-9, "high")])
    def test_residuals_within_the_band_promote_the_lowest_index(self, monkeypatch, gap, promoted):
        samples, *_ = rational_samples(2, 7, n_pairs=8)
        values = samples.values
        start = int(np.argmax(np.abs(values - values.mean())))
        # the order-1 model is the constant values[start]; bump two other samples
        worst = int(np.argmax(np.abs(values - values[start])))
        low, high = [i for i in range(len(samples)) if i not in (start, worst)][:2]
        bump = np.zeros(len(samples))
        bump[low], bump[high] = 1.0, 1.0 + gap
        index = {complex(p): i for i, p in enumerate(samples.points)}

        def stand_in(model, s):
            at = [index[complex(p)] for p in s]
            return values[at] + bump[at]

        monkeypatch.setattr(aaa, "eval_barycentric", stand_in)
        model, history = fit_aaa(samples, max_order=2)
        assert history[0].max_error == pytest.approx(1.0 + gap, rel=1e-15)
        assert model.support_points[1] == samples.points[{"low": low, "high": high}[promoted]]

    def test_a_nan_residual_is_ignored(self, monkeypatch):
        samples, *_ = rational_samples(2, 7, n_pairs=8)
        values = samples.values
        start = int(np.argmax(np.abs(values - values.mean())))
        # the order-1 model is the constant values[start]; its stand-in residual
        # is NaN at the first other sample and largest at the last one
        others = [i for i in range(len(samples)) if i != start]
        first, last = others[0], others[-1]
        bump = np.zeros(len(samples))
        bump[first], bump[last] = np.nan, 1.0
        index = {complex(p): i for i, p in enumerate(samples.points)}

        def stand_in(model, s):
            at = [index[complex(p)] for p in s]
            return values[at] + bump[at]

        monkeypatch.setattr(aaa, "eval_barycentric", stand_in)
        model, history = fit_aaa(samples, max_order=2)
        assert history[0].max_error == pytest.approx(1.0, rel=1e-15)
        assert model.support_points[1] == samples.points[last]

    def test_real_mode_promotes_each_pair_after_the_start_lower_index_first(self):
        samples = sample_oracle(structured_grid(OMEGA, 21, 5), h_of_s)
        model, _ = fit_aaa(samples, real_mode=True)
        index = {complex(p): i for i, p in enumerate(samples.points)}
        support = [index[complex(z)] for z in model.support_points]
        pairs = 0
        k = 1 if model.support_points[0].imag == 0 else 2
        while k < len(support):
            if model.support_points[k].imag == 0:
                k += 1
                continue
            assert support[k] < support[k + 1]
            assert model.support_points[k + 1] == model.support_points[k].conjugate()
            pairs += 1
            k += 2
        assert pairs >= 3

    @pytest.mark.parametrize("cap", range(2, 8))
    def test_real_mode_never_exceeds_the_order_cap(self, cap):
        samples = sample_oracle(uniform_random_grid(OMEGA, 50, 1), h_of_s)
        model, history = fit_aaa(samples, real_mode=True, max_order=cap)
        # promoted in conjugate pairs: the cap or one below it
        assert model.order in (cap - 1, cap)
        assert max(step.order for step in history) == model.order

    def test_real_mode_cap_below_the_first_pair_is_a_setting_error(self):
        samples = sample_oracle(uniform_random_grid(OMEGA, 50, 1), h_of_s)
        with pytest.raises(SettingError, match="order cap 1"):
            fit_aaa(samples, real_mode=True, max_order=1)

    def test_stagnation_when_samples_run_out(self):
        samples, *_ = rational_samples(2, 6, n_pairs=3)
        with pytest.raises(StagnationError):
            fit_aaa(samples, tol=1e-16, max_order=10)

    def test_tol_must_be_positive(self):
        samples, *_ = rational_samples(2, 7, n_pairs=8)
        with pytest.raises(ValueError):
            fit_aaa(samples, tol=0.0)

    @pytest.mark.parametrize("setting", [{"tol": np.nan}, {"seed": -1}])
    def test_nan_tol_and_negative_seed_rejected(self, setting):
        samples, *_ = rational_samples(2, 7, n_pairs=8)
        with pytest.raises(SettingError, match=next(iter(setting))):
            fit_aaa(samples, **setting)

    def test_order_cap_must_be_positive(self):
        samples, *_ = rational_samples(2, 7, n_pairs=8)
        with pytest.raises(ValueError):
            fit_aaa(samples, max_order=0)

    def test_input_errors_are_typed(self):
        samples, *_ = rational_samples(2, 7, n_pairs=8)
        with pytest.raises(TypeError):
            SampleSet(points=samples.points)
        with pytest.raises(InsufficientDataError):
            fit_aaa(SampleSet(points=samples.points[:1], values=samples.values[:1]))
        open_set = SampleSet(points=samples.points[::2], values=samples.values[::2])
        with pytest.raises(SymmetryError):
            fit_aaa(open_set, real_mode=True)


class TestEval:
    def test_single_term_model_is_constant(self):
        model = BarycentricModel(
            support_points=[1.0 + 0j], support_values=[2.5 + 0j], weights=[1.0 + 0j]
        )
        assert eval_barycentric(model, 7.7 + 3.3j) == pytest.approx(2.5, rel=1e-15)
        assert eval_barycentric(model, np.linspace(0, 5, 7)) == pytest.approx(2.5, rel=1e-15)

    def test_matches_extended_precision_reference(self):
        rng = np.random.default_rng(11)
        model = BarycentricModel(
            support_points=rng.standard_normal(5) + 1j * rng.standard_normal(5),
            support_values=rng.standard_normal(5) + 1j * rng.standard_normal(5),
            weights=rng.standard_normal(5) + 1j * rng.standard_normal(5),
        )
        for s in (0.3 + 0.9j, -2.0 + 0.1j, 4.4 - 3.0j):
            ref = bary_eval_mp(model, s)
            assert abs(eval_barycentric(model, s) - ref) <= 1e-13 * abs(ref)

    def test_denominator_zero_gives_infinity(self):
        # d(s) = 1/(s-1) + 1/(s+1) vanishes exactly at s = 0 while n(0) != 0
        model = BarycentricModel(
            support_points=[1.0 + 0j, -1.0 + 0j],
            support_values=[1.0 + 0j, 2.0 + 0j],
            weights=[1.0 + 0j, 1.0 + 0j],
        )
        assert np.isinf(np.abs(eval_barycentric(model, 0.0)))
        assert eval_barycentric(model, 1.0 + 0j) == 1.0  # support hit still exact

    def test_support_points_in_a_mixed_batch_give_the_stored_values(self):
        rng = np.random.default_rng(12)
        model = BarycentricModel(
            support_points=rng.standard_normal(6) + 1j * rng.standard_normal(6),
            support_values=rng.standard_normal(6) + 1j * rng.standard_normal(6),
            weights=rng.standard_normal(6) + 1j * rng.standard_normal(6),
        )
        others = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        picks = [4, 0, 4, 5]  # one support point twice
        batch = np.concatenate([others[:3], model.support_points[picks[:2]], others[3:6],
                                model.support_points[picks[2:]], others[6:]])
        got = eval_barycentric(model, batch)
        at_support = np.isin(batch, model.support_points)
        assert got[at_support].tobytes() == model.support_values[picks].tobytes()
        alone = np.array([eval_barycentric(model, complex(z)) for z in batch])
        assert alone.tobytes() == got.tobytes()

    def test_fitted_model_scalars_equal_the_array_bitwise(self):
        samples, *_ = rational_samples(6, 14, n_pairs=30)
        model, _ = fit_aaa(samples, tol=1e-13)
        rng = np.random.default_rng(15)
        pts = np.concatenate([rng.uniform(0.0, 10.0, 200) + 1j * rng.uniform(-1.0, 1.0, 200),
                              model.support_points])
        got = model.eval(pts)
        assert got[200:].tobytes() == model.support_values.tobytes()
        alone = np.array([model.eval(z) for z in pts])
        assert alone.tobytes() == got.tobytes()

    def test_numerator_and_denominator_weights_are_computed_once(self):
        rng = np.random.default_rng(16)
        model = BarycentricModel(support_points=rng.standard_normal(4) + 0j,
                                 support_values=rng.standard_normal(4) + 0j,
                                 weights=rng.standard_normal(4) + 0j)
        model.eval(0.5j)
        stacked = model.quotient_weights
        model.eval(np.array([0.25j, 1.5]))
        assert model.quotient_weights is stacked
        assert stacked.tobytes() == np.stack([model.weights * model.support_values, model.weights]).tobytes()


class TestPolesZeros:
    def test_pole_of_simple_lag_fit(self):
        pts = np.array([0.5, 1.5, 2.5, 3.5, 4.5, 5.5])
        samples = SampleSet(pts, 1.0 / (pts + 1.0))
        model, _ = fit_aaa(samples, tol=1e-13)
        poles, _ = barycentric_poles_zeros(model)
        assert np.min(np.abs(poles - (-1.0))) <= 1e-10

    def test_counts_bounded_by_order_minus_one(self):
        samples, *_ = rational_samples(4, 8, n_pairs=20)
        model, _ = fit_aaa(samples, tol=1e-12)
        poles, zeros = barycentric_poles_zeros(model)
        assert poles.size <= model.order - 1
        assert zeros.size <= model.order - 1

    def test_real_mode_keeps_conjugate_support_and_symmetry(self):
        samples, f, *_ = rational_samples(3, 9, n_pairs=20)
        model, _ = fit_aaa(samples, tol=1e-11, real_mode=True)
        sp = model.support_points
        for j, z in enumerate(sp):
            if z.imag != 0:
                k = np.nonzero(sp == z.conjugate())[0]
                assert k.size == 1
                assert model.weights[int(k[0])] == model.weights[j].conjugate()
        s = 3.3 + 0.4j
        assert eval_barycentric(model, s.conjugate()) == pytest.approx(
            eval_barycentric(model, s).conjugate(), rel=1e-12
        )


class TestCleanup:
    def test_overfit_doublets_removed(self, monkeypatch):
        # forcing the order far past the numerical rank of a degree-3
        # rational manufactures spurious pole/zero pairs; cleanup must strip
        # them without hurting the fit
        samples, f, *_ = rational_samples(3, 10, n_pairs=40, with_offset=True)
        dirty, _ = fit_aaa(samples, tol=1e-16, max_order=9)
        monkeypatch.setattr(aaa, "CLEANUP_TOL", 1e-6)
        cleaned = cleanup(dirty, samples)
        assert cleaned.order <= dirty.order - 1
        fresh = np.linspace(0.2, 9.8, 40) + 0.3j
        err_dirty = np.abs(eval_barycentric(dirty, fresh) - f(fresh)).max()
        err_clean = np.abs(eval_barycentric(cleaned, fresh) - f(fresh)).max()
        assert err_clean <= max(err_dirty * 10, 1e-9)

    def test_clean_model_unchanged(self, monkeypatch):
        samples, *_ = rational_samples(3, 12, n_pairs=18)
        model, _ = fit_aaa(samples, tol=1e-11)
        monkeypatch.setattr(aaa, "CLEANUP_TOL", 1e-12)
        cleaned = cleanup(model, samples)
        assert cleaned is model

    def test_two_spurious_poles_at_one_support_point_drop_that_point_only(self, monkeypatch):
        samples, *_ = rational_samples(3, 12, n_pairs=18)
        model, _ = fit_aaa(samples, max_order=6)
        near = model.support_points[2]
        doublets = near + np.array([1e-3, -1e-3j])
        monkeypatch.setattr(aaa, "barycentric_poles_zeros", lambda m: (doublets, doublets))
        cleaned = cleanup(model, samples)
        assert cleaned.support_points.tolist() == np.delete(model.support_points, 2).tolist()

    @staticmethod
    def is_real_symmetric(model):
        mates = conjugate_mates(model.support_points)
        return np.array_equal(model.weights[mates], model.weights.conj())

    def test_a_real_mode_model_keeps_a_pair_with_one_spurious_pole_next_to_it(self):
        # a spurious pole on the real axis (to roundoff) lies next to one point of a conjugate pair;
        # dropping that point alone would leave a model that is not real
        samples = sample_oracle(uniform_random_grid(OMEGA, 1000, 2), h_of_s)
        model, _ = fit_aaa(samples, real_mode=True)
        cleaned = cleanup(model, samples)
        assert cleaned.order == model.order == 14
        assert np.array_equal(cleaned.weights, model.weights)
        assert self.is_real_symmetric(cleaned)

    def test_dropped_pairs_leave_a_real_mode_model_real(self, monkeypatch):
        samples, f, *_ = rational_samples(3, 10, n_pairs=40, with_offset=True)
        dirty, _ = fit_aaa(samples, tol=1e-16, max_order=12, real_mode=True)
        monkeypatch.setattr(aaa, "CLEANUP_TOL", 1e-6)
        cleaned = cleanup(dirty, samples)
        assert cleaned.order <= dirty.order - 2
        assert self.is_real_symmetric(dirty) and self.is_real_symmetric(cleaned)
        fresh = np.linspace(0.2, 9.8, 40) + 0.3j
        assert np.abs(eval_barycentric(cleaned, fresh) - f(fresh)).max() <= 1e-12
