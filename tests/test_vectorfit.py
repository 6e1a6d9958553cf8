import warnings

import mpmath as mp
import numpy as np
import pytest

from conftest import conjugate_closed, rational_samples
from ratapprox import (
    InsufficientDataError,
    PoleError,
    PoleResidueModel,
    SettingError,
    SymmetryError,
    eval_pole_residue,
    fit_vf,
    linalg,
    pr_poles_zeros,
)
from ratapprox.vectorfit import initial_poles_auto, order_conjugate_pairs

mp.mp.dps = 40


def pr_eval_mp(model, s):
    total = mp.mpc(model.d) + mp.mpc(s) * mp.mpc(model.h)
    for a, c in zip(model.poles, model.residues):
        total += mp.mpc(c) / (mp.mpc(s) - mp.mpc(a))
    return complex(total)


def match_distance(a, b):
    if len(a) == 0:
        return 0.0
    return max(np.min(np.abs(np.asarray(b) - x)) for x in np.asarray(a))


class TestFit:
    def test_recovers_degree_three_model(self):
        samples, f, true_poles, *_ = rational_samples(3, 0, n_pairs=24, with_offset=True)
        model, history = fit_vf(samples, order=3, n_iter=10)
        assert match_distance(true_poles, model.poles) <= 1e-8
        fresh = np.linspace(0.5, 9.5, 30) + 0.4j
        err = np.abs(eval_pole_residue(model, fresh) - f(fresh))
        assert err.max() <= 1e-9 * np.abs(f(fresh)).max()

    def test_true_pole_initialisation_is_a_fixed_point(self):
        samples, f, true_poles, *_ = rational_samples(4, 1, n_pairs=24, with_offset=True)
        model, history = fit_vf(samples, order=4, n_iter=1, initial_poles=true_poles)
        assert history[0].max_pole_move <= 1e-10

    def test_conjugate_closure_and_real_terms(self):
        samples, *_ = rational_samples(4, 2, n_pairs=24, with_offset=True)
        model, _ = fit_vf(samples, order=4, n_iter=8)
        assert conjugate_closed(model.poles)
        assert conjugate_closed(model.residues)  # residues mirror with their poles
        assert isinstance(model.d, float)
        assert isinstance(model.h, float)

    def test_insufficient_data_rejected(self):
        samples, *_ = rational_samples(2, 3, n_pairs=4)
        with pytest.raises(InsufficientDataError):
            fit_vf(samples, order=6, n_iter=3)

    def test_negative_iteration_count_rejected(self):
        samples, *_ = rational_samples(2, 3, n_pairs=8)
        with pytest.raises(SettingError, match="iters"):
            fit_vf(samples, order=2, n_iter=-3)

    def test_unpaired_initial_poles_rejected(self):
        samples, *_ = rational_samples(2, 4, n_pairs=12)
        with pytest.raises(SymmetryError):
            fit_vf(samples, order=2, n_iter=2, initial_poles=np.array([1.0 + 1.0j, 2.0 + 0j]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_a_non_finite_initial_pole_is_a_setting_error(self, bad):
        samples, *_ = rational_samples(4, 4, n_pairs=12)
        initial = np.array([-1.0 + 1.0j, -1.0 - 1.0j, -2.0, bad])
        with pytest.raises(SettingError, match="^initial poles must be finite$"):
            fit_vf(samples, order=4, n_iter=2, initial_poles=initial)

    def test_a_wrong_initial_pole_count_is_a_setting_error(self):
        samples, *_ = rational_samples(4, 4, n_pairs=12)
        with pytest.raises(SettingError, match="^got 3 initial poles for order 4$"):
            fit_vf(samples, order=4, n_iter=2, initial_poles=np.array([-1.0 + 1.0j, -1.0 - 1.0j, -2.0]))

    def test_history_records_conditioning(self):
        samples, *_ = rational_samples(3, 5, n_pairs=20)
        _, history = fit_vf(samples, order=3, n_iter=4)
        assert all(h.condition > 0 for h in history)
        assert all(isinstance(h.ill_conditioned, bool) for h in history)

    def test_one_svd_per_least_squares_step(self, monkeypatch):
        samples, *_ = rational_samples(3, 5, n_pairs=20)
        calls = []
        svd = linalg.svd
        monkeypatch.setattr(linalg, "svd", lambda a: calls.append(a.shape) or svd(a))
        _, history = fit_vf(samples, order=3, n_iter=4)
        assert len(calls) == len(history) + 1


class TestEval:
    def test_single_pole_unit_residue(self):
        model = PoleResidueModel(poles=[-1.0 + 0j], residues=[1.0 + 0j], d=0.0, h=0.0)
        assert eval_pole_residue(model, 0.0) == 1.0

    def test_evaluation_at_pole_raises(self):
        model = PoleResidueModel(poles=[-1.0 + 0j], residues=[1.0 + 0j], d=0.0, h=0.0)
        with pytest.raises(PoleError):
            eval_pole_residue(model, -1.0)

    def test_fitted_model_scalars_equal_the_array_bitwise(self):
        samples, *_ = rational_samples(6, 17, n_pairs=30)
        model, _ = fit_vf(samples, order=6, n_iter=10)
        rng = np.random.default_rng(18)
        pts = rng.uniform(0.0, 10.0, 300) + 1j * rng.uniform(-1.0, 1.0, 300)
        alone = np.array([model.eval(complex(z)) for z in pts])
        assert alone.tobytes() == model.eval(pts).tobytes()
        # a pole raises the same point alone and in an array
        pole = model.poles[3]
        for where in (complex(pole), pole, np.array([0.5 + 0j, pole, model.poles[0]])):
            with pytest.raises(PoleError) as info:
                model.eval(where)
            assert info.value.point == pole

    def test_order_1_point_has_the_same_bits_alone_and_in_a_batch(self):
        # numpy multiplies a (1, 1) array by a (1,) one in another loop than every other
        # shape; with one pole and one point that product gave -1 - 1.0000000000000002j
        model = PoleResidueModel(poles=[2.0 + 1.0j], residues=[1.0 + 3.0j], d=0.0, h=0.0)
        alone = np.array([model.eval(0j)])
        assert alone.tobytes() == np.array([-1.0 - 1.0j]).tobytes()
        for n in (1, 2, 5):
            assert model.eval(np.zeros(n)).tobytes() == np.repeat(alone, n).tobytes()

    def test_overflowing_sum_is_infinite_without_a_warning(self):
        model = PoleResidueModel(poles=[1 + 1j, 1 - 1j], residues=[1e308, 1e308], d=0.0, h=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = eval_pole_residue(model, 1.5 + 1j)
        # 1e308 / 0.5 overflows; the mate's term 1e308 / (0.5 + 2j) does not
        assert value.real == np.inf and np.isfinite(value.imag)

    def test_matches_extended_precision_reference(self):
        rng = np.random.default_rng(3)
        pair = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2.0))
        model = PoleResidueModel(
            poles=[pair, pair.conjugate(), -3.0 + 0j],
            residues=[1.5 + 0.5j, 1.5 - 0.5j, 2.0 + 0j],
            d=0.7,
            h=0.03,
        )
        for s in (0.5 + 0.9j, 4.0 - 0.3j, 9.5 + 0.1j):
            ref = pr_eval_mp(model, s)
            assert abs(eval_pole_residue(model, s) - ref) <= 1e-13 * abs(ref)


class TestPolesZeros:
    def test_single_pole_no_finite_zero(self):
        model = PoleResidueModel(poles=[-2.0 + 0j], residues=[1.0 + 0j], d=0.0, h=0.0)
        _, zeros = pr_poles_zeros(model)
        assert zeros.size == 0

    def test_lead_lag_zero(self):
        # 1/(s+1) + 1 = (s+2)/(s+1)
        model = PoleResidueModel(poles=[-1.0 + 0j], residues=[1.0 + 0j], d=1.0, h=0.0)
        poles, zeros = pr_poles_zeros(model)
        assert np.allclose(poles, [-1.0])
        assert zeros.size == 1
        assert abs(zeros[0] - (-2.0)) <= 1e-10

    def test_h_term_contributes_a_zero(self):
        # s + 1/(s+1) = (s^2 + s + 1)/(s+1): roots at -0.5 +- i sqrt(3)/2
        model = PoleResidueModel(poles=[-1.0 + 0j], residues=[1.0 + 0j], d=0.0, h=1.0)
        _, zeros = pr_poles_zeros(model)
        expected = np.roots([1.0, 1.0, 1.0])
        assert match_distance(expected, zeros) <= 1e-10

    def test_fitted_model_zeros_conjugate_closed(self):
        samples, *_ = rational_samples(4, 7, n_pairs=24, with_offset=True)
        model, _ = fit_vf(samples, order=4, n_iter=8)
        _, zeros = pr_poles_zeros(model)
        assert conjugate_closed(zeros, tol=1e-7)


class TestInitialPoles:
    def test_auto_poles_are_paired_and_scaled(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 10, 40) + 1j * rng.uniform(-1, 1, 40)
        poles = initial_poles_auto(pts, 6)
        assert poles.size == 6
        assert conjugate_closed(poles)
        span = pts.real.max() - pts.real.min()
        betas = np.abs(poles.imag[poles.imag > 0])
        assert betas.min() >= 0.49 * span
        assert betas.max() <= 1.21 * span

    def test_odd_order_includes_real_pole(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 10, 40) + 1j * rng.uniform(-1, 1, 40)
        poles = initial_poles_auto(pts, 5)
        assert poles.size == 5
        assert np.sum(np.abs(poles.imag) < 1e-12) == 1

    def test_pair_ordering_gives_exact_conjugate_mates(self):
        poles = order_conjugate_pairs([1.0 - (2.0 + 1e-12) * 1j, 3.0 + 1e-13j, 1.0 + 2.0j])
        assert poles.tolist() == [3.0, 1.0 + 2.0j, 1.0 - 2.0j]

    def test_pair_ordering_rejects_stray(self):
        with pytest.raises(SymmetryError):
            order_conjugate_pairs([1.0 + 2.0j, 3.0 + 0j])
