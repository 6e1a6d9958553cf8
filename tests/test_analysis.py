import dataclasses
import inspect
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SMALL_FIT_SETTINGS, rational_samples
from ratapprox import (
    OMEGA,
    InsufficientDataError,
    PoleError,
    RatApproxError,
    SampleError,
    SampleSet,
    SettingError,
    build_pencil,
    compare_methods,
    detect_cancellations,
    error_grid,
    h_of_s,
    h_on_grid,
    match_known_zeros,
    partition,
    truncate,
)
from ratapprox import aaa, analysis, greedy, loewner, vectorfit
from ratapprox.analysis import FIT_DEFAULTS, fit, oracle_grid


class TestErrorGrid:
    def test_oracle_as_its_own_model_is_exact(self):
        # the lambda has no grid method, so oracle and model both take the pointwise series
        report = error_grid(h_of_s, lambda s: h_of_s(s), OMEGA, 40, 30)
        assert report.max_error <= 1e-15
        assert report.errors.size == 1200

    def test_fitted_model_error_is_small(self):
        samples, f, *_ = rational_samples(3, 0, n_pairs=20)
        from ratapprox import build_pencil, partition, truncate

        model = truncate(build_pencil(partition(samples)), order=3).model
        report = error_grid(model, f, OMEGA, 50, 20, method_tag="loewner")
        assert report.max_error <= 1e-10
        assert report.method_tag == "loewner"
        # max is attained on the surface
        assert report.max_error == np.nanmax(report.errors)

    def test_oracle_poles_excluded_and_counted(self):
        def spiky(s):
            s = np.asarray(s, dtype=complex)
            if np.any(s == 5.0):
                raise PoleError("pole at 5", point=5.0 + 0j)
            return 1.0 / (s - 5.0)

        def model(s):
            s = np.asarray(s, dtype=complex)
            return np.where(s == 5.0, 0.0, 1.0 / np.where(s == 5.0, 1.0, s - 5.0))

        # 11 x 3 grid over [0,10] x [-1,1] puts a point exactly at s = 5
        report = error_grid(model, spiky, OMEGA, 11, 3)
        assert report.n_excluded == 1
        assert np.isnan(report.errors).sum() == 1
        assert report.max_error <= 1e-15

    def test_non_finite_oracle_value_excluded_and_counted(self):
        def oracle(s):
            s = np.asarray(s, dtype=complex)
            return np.where(s == 5.0, np.nan, 1.0 / (s + 1.0))

        # 11 x 3 grid over [0,10] x [-1,1] puts a point exactly at s = 5
        report = error_grid(lambda s: 1.0 / (np.asarray(s) + 1.0), oracle, OMEGA, 11, 3)
        assert report.n_excluded == 1
        assert np.isnan(report.errors).sum() == 1
        assert report.max_error <= 1e-15

    # a 10 x 10 grid is one batch of the sweep, a 100 x 100 grid five
    @pytest.mark.parametrize("n", [10, 100])
    def test_one_value_for_every_batch_is_a_sample_error(self, n):
        with pytest.raises(SampleError, match=r"shape \(\)"):
            oracle_grid(lambda s: 1 + 0j, OMEGA, n, n)

    @pytest.mark.parametrize("reshape", [np.transpose, np.ravel], ids=["transposed", "flat"])
    def test_a_grid_surface_of_another_shape_is_a_sample_error(self, reshape):
        def oracle(s):
            return h_of_s(s)

        oracle.on_grid = lambda xs, ys: reshape(h_on_grid(xs, ys))
        with pytest.raises(SampleError, match="shape"):
            oracle_grid(oracle, OMEGA, 10, 5)

    def test_csv_and_svg_outputs(self, tmp_path):
        report = error_grid(h_of_s, h_of_s, OMEGA, 20, 10)
        csv_path = tmp_path / "surface.csv"
        svg_path = tmp_path / "surface.svg"
        report.to_csv(csv_path, meta="unit test")
        report.to_svg(svg_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "re_s,im_s,abs_error"
        assert len(lines) == 2 + 200
        svg = svg_path.read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_heatmap_ramp_spans_whole_decades(self, tmp_path):
        rng = np.random.default_rng(19)
        errors = 10.0 ** rng.uniform(-12.0, -4.5, 20 * 10)
        errors[37] = 2e-13  # the smallest block, low in its decade
        fills = []
        for scale in (1.0, 1.5):
            surface = errors.copy()
            surface[37] *= scale
            report = analysis.ErrorReport(domain=OMEGA, nx=20, ny=10, max_error=float(surface.max()),
                                          argmax_point=0j, errors=surface, method_tag="t")
            report.to_svg(tmp_path / "map.svg")
            svg = (tmp_path / "map.svg").read_text()
            assert "log10|err| in [-13, -4]" in svg
            fills.append(re.findall(r'fill="(#[0-9a-f]{6})"', svg))
        changed = [k for k, (a, b) in enumerate(zip(*fills)) if a != b]
        # cell 37 (row 1, column 17 from the bottom) is drawn in the last row but one
        assert changed == [(10 - 1 - 37 // 20) * 20 + 37 % 20]

    def test_heatmap_gives_an_infinite_error_the_top_colour(self, tmp_path):
        rng = np.random.default_rng(19)
        errors = 10.0 ** rng.uniform(-12.0, -4.5, 20 * 10)
        errors[37] = 2e-13
        fills = []
        for surface in (errors, np.where(np.arange(errors.size) == 150, np.inf, errors)):
            report = analysis.ErrorReport(domain=OMEGA, nx=20, ny=10, max_error=float(surface.max()),
                                          argmax_point=0j, errors=surface, method_tag="t")
            report.to_svg(tmp_path / "map.svg")
            svg = (tmp_path / "map.svg").read_text()
            assert "log10|err| in [-13, -4]" in svg
            fills.append(re.findall(r'fill="(#[0-9a-f]{6})"', svg))
        assert "max inf" in svg
        changed = [k for k, (a, b) in enumerate(zip(*fills)) if a != b]
        assert changed == [(10 - 1 - 150 // 20) * 20 + 150 % 20]
        assert fills[1][changed[0]] == analysis._ramp_color(1.0)

    def test_heatmap_of_infinite_errors_only_starts_at_the_floor(self, tmp_path):
        report = analysis.ErrorReport(domain=OMEGA, nx=20, ny=10, max_error=np.inf, argmax_point=0j,
                                      errors=np.full(200, np.inf))
        report.to_svg(tmp_path / "map.svg")
        svg = (tmp_path / "map.svg").read_text()
        assert "log10|err| in [-16, -15]" in svg
        assert set(re.findall(r'fill="(#[0-9a-f]{6})"', svg)) == {analysis._ramp_color(1.0)}

    def test_heatmap_draws_a_block_of_excluded_points_white_without_a_warning(self, tmp_path):
        # 500 x 20 points: blocks of 2 x 1; the block of points 38 and 39 holds only NaN
        errors = 10.0 ** np.random.default_rng(19).uniform(-12.0, -4.5, 500 * 20)
        errors[38:40] = np.nan
        report = analysis.ErrorReport(domain=OMEGA, nx=500, ny=20, max_error=float(np.nanmax(errors)),
                                      argmax_point=0j, errors=errors, method_tag="t")
        report.to_svg(tmp_path / "map.svg")  # a RuntimeWarning fails the test
        fills = re.findall(r'fill="(#[0-9a-f]{6})"', (tmp_path / "map.svg").read_text())
        assert len(fills) == 250 * 20
        assert [k for k, fill in enumerate(fills) if fill == "#ffffff"] == [(20 - 1) * 250 + 19]

    def test_heatmap_of_partly_excluded_blocks_keeps_the_bytes_of_their_nanmean(self, tmp_path):
        # 500 x 200 points in 2 x 2 blocks against the 250 x 100 surface of the block means
        rng = np.random.default_rng(23)
        fine = 10.0 ** rng.uniform(-12.0, -4.5, (200, 500))
        fine[rng.random(fine.shape) < 0.3] = np.nan
        fine[0, 0:2] = fine[1, 0:2] = np.nan
        fine[0, 2] = fine[1, 2] = fine[0, 3] = np.nan  # one point left of four
        fine[4, 4] = np.inf
        blocks = fine.reshape(100, 2, 250, 2)
        kept = ~np.isnan(blocks)
        assert not kept.any(axis=(1, 3)).all()  # one block has no point left
        with np.errstate(invalid="ignore"), pytest.warns(RuntimeWarning, match="Mean of empty slice"):
            coarse = np.nanmean(blocks, axis=(1, 3))
        svgs = []
        for surface in (fine, coarse):
            ny, nx = surface.shape
            report = analysis.ErrorReport(domain=OMEGA, nx=nx, ny=ny, max_error=np.inf, argmax_point=0.5j,
                                          errors=surface.ravel(), method_tag="t")
            report.to_svg(tmp_path / "map.svg")
            svgs.append((tmp_path / "map.svg").read_bytes())
        assert svgs[0] == svgs[1]

    @pytest.mark.parametrize("model", [lambda s: 1 + 0j, lambda s: np.asarray(s)[:, None]],
                             ids=["constant", "column"])
    def test_model_values_of_another_shape_are_a_sample_error(self, model):
        truth = oracle_grid(h_of_s, OMEGA, 10, 5)
        shape = np.shape(model(truth.points))
        with pytest.raises(SampleError, match=re.escape(f"model t gave values of shape {shape} for points "
                                                        "of shape (50,)")):
            analysis.model_error(model, truth, method_tag="t")


class TestCancellations:
    def test_single_obvious_pair(self):
        pairs = detect_cancellations([1.0, 2.0], [2.0 + 1e-10])
        assert len(pairs) == 1
        assert pairs[0].pole == 2.0
        assert pairs[0].gap == pytest.approx(1e-10)

    def test_matching_is_one_to_one(self):
        # two poles near one zero: only one pair may report
        pairs = detect_cancellations([2.0, 2.0 + 1e-9], [2.0 + 1e-10])
        assert len(pairs) == 1

    def test_no_pairs_outside_tolerance(self):
        assert detect_cancellations([1.0], [1.1]) == []

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 9999), tol_exp=st.integers(-9, -3))
    def test_shrinking_tolerance_never_adds_pairs(self, seed, tol_exp):
        rng = np.random.default_rng(seed)
        poles = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        zeros = poles[:3] + 10.0 ** rng.uniform(-12, -2, 3) + rng.standard_normal(3) * 0.0
        loose = detect_cancellations(poles, zeros, rel_tol=10.0**tol_exp)
        tight = detect_cancellations(poles, zeros, rel_tol=10.0 ** (tol_exp - 2))
        assert len(tight) <= len(loose)


class TestMatchKnownZeros:
    def test_empty_pole_list(self):
        assert match_known_zeros([], [2.4, 5.5]) == []

    def test_nearest_reporting(self):
        matches = match_known_zeros([2.4 + 0.001j, 8.0], [2.40482555769577])
        assert len(matches) == 1
        assert matches[0].nearest_pole == 2.4 + 0.001j
        assert matches[0].distance == pytest.approx(abs(2.4 + 0.001j - 2.40482555769577))


class TestCompareMethods:
    def test_degenerate_input_flags_errors_but_emits_table(self, tmp_path):
        pts = np.array([1.0 + 0j, 2.0 + 0j, 3.0 + 0j, 4.0 + 0j])
        samples = SampleSet(pts, 1.0 / (pts + 1.0))
        truth = oracle_grid(lambda s: 1.0 / (np.asarray(s, complex) + 1.0), OMEGA, 10, 5)
        table = compare_methods(samples, truth)
        assert len(table.rows) == 4
        assert any(r.status.startswith("error") for r in table.rows)
        text = table.to_text()
        assert "loewner" in text and "vf" in text
        table.to_csv(tmp_path / "cmp.csv", meta="x")
        header = (tmp_path / "cmp.csv").read_text().splitlines()[1]
        assert header == "method,order,max_error,argmax_re,argmax_im,poles_in_domain,status"

    def test_oracle_evaluated_once_per_grid(self, small_bessel_samples):
        evaluated = []

        def oracle(s):
            evaluated.append(np.size(s))
            return h_of_s(s)

        table = compare_methods(small_bessel_samples, oracle_grid(oracle, OMEGA, 40, 15), SMALL_FIT_SETTINGS)
        assert all(r.status == "ok" for r in table.rows)
        assert sum(evaluated) == 40 * 15
        # each row is the error surface error_grid reports for that method
        loewner_model = truncate(build_pencil(partition(small_bessel_samples)), order=8).model
        report = error_grid(loewner_model, oracle, OMEGA, 40, 15)
        assert table.rows[0].max_error == report.max_error
        assert table.rows[0].argmax_point == report.argmax_point

    def test_rows_split_fit_and_evaluation_time(self, small_bessel_samples):
        settings = {**SMALL_FIT_SETTINGS, "aaa": {**SMALL_FIT_SETTINGS.get("aaa", {}), "order": 0}}
        table = compare_methods(small_bessel_samples, oracle_grid(h_of_s, OMEGA, 40, 15), settings)
        rows = {r.method: r for r in table.rows}
        assert rows["aaa"].status.startswith("error") and rows["aaa"].eval_s == 0.0
        assert all(r.fit_s > 0 and r.eval_s > 0 for m, r in rows.items() if m != "aaa")
        header, _, *lines = table.to_text().splitlines()
        assert header.split()[-5:] == ["fit", "[s]", "eval", "[s]", "status"]
        assert lines[0].split()[-3:] == [f"{rows['loewner'].fit_s:.2f}", f"{rows['loewner'].eval_s:.2f}", "ok"]

    @pytest.mark.parametrize("method, bad", [("loewner", {"order": 5, "tol": 1e-8}), ("rloewner", {"seed": -1}),
                                             ("loewner", {"scheme": "bogus"})])
    def test_invalid_setting_value_gives_an_error_row(self, small_bessel_samples, method, bad):
        settings = {**SMALL_FIT_SETTINGS, method: bad}
        table = compare_methods(small_bessel_samples, oracle_grid(h_of_s, OMEGA, 10, 5), settings)
        assert [r.method for r in table.rows] == list(FIT_DEFAULTS)
        for r in table.rows:
            assert r.status.startswith("error: ") if r.method == method else r.status == "ok"

    def test_a_model_of_another_shape_gives_an_error_row(self, small_bessel_samples, monkeypatch):
        monkeypatch.setattr(analysis, "fit", lambda method, samples: (lambda s: 1 + 0j, None))
        table = compare_methods(small_bessel_samples, oracle_grid(h_of_s, OMEGA, 10, 5))
        assert [r.status for r in table.rows] == [
            f"error: model {m} gave values of shape () for points of shape (50,)" for m in FIT_DEFAULTS]

    def test_small_benchmark_all_methods_succeed(self, small_bessel_samples):
        table = compare_methods(small_bessel_samples, oracle_grid(h_of_s, OMEGA, 40, 15), SMALL_FIT_SETTINGS)
        assert all(r.status == "ok" for r in table.rows)
        assert all(np.isfinite(r.max_error) for r in table.rows)
        assert all(r.max_error < 1e-2 for r in table.rows)
        # every method should see the three true poles inside the rectangle
        assert all(r.poles_in_domain >= 3 for r in table.rows)


def assert_identical(a, b):
    """Equal values, with arrays equal bit for bit, through dataclasses and lists."""
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_identical(x, y)
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_identical(getattr(a, f.name), getattr(b, f.name))
    else:
        assert a == b or (a != a and b != b)


class TestFit:
    """``analysis.fit`` is the module call with the settings of ``FIT_DEFAULTS``."""

    @staticmethod
    def direct(method, samples, **s):
        if method == "loewner":
            red = loewner.truncate(loewner.build_pencil(loewner.partition(samples, s["scheme"])),
                                   order=s["order"] if s["tol"] is None else None, tol=s["tol"])
            return red.model, red
        if method == "rloewner":
            result = greedy.fit_greedy(samples, order_target=s["order"], seed=s["seed"])
            return result.model, result.history
        if method == "aaa":
            model, history = aaa.fit_aaa(samples, tol=s["tol"], max_order=s["order"],
                                         real_mode=s["real_mode"], seed=s["seed"])
            return (aaa.cleanup(model, samples) if s["cleanup"] else model), history
        return vectorfit.fit_vf(samples, order=s["order"], n_iter=s["iters"])

    def test_table_holds_the_documented_defaults(self):
        assert FIT_DEFAULTS == {
            "loewner": {"order": 11, "tol": None, "scheme": "epsilon_paired"},
            "rloewner": {"order": 11, "seed": 0},
            "aaa": {"order": 30, "tol": 1e-13, "real_mode": False, "seed": None, "cleanup": False},
            "vf": {"order": 12, "iters": 20},
        }

    @pytest.mark.parametrize("method, defaults", [
        ("loewner", {loewner.partition: {"scheme": "scheme"},
                     loewner.truncate: {"tol": "tol"},
                     loewner.trajectory_study: {"order": "order", "scheme": "scheme"}}),
        ("rloewner", {greedy.fit_greedy: {"order": "order_target", "seed": "seed"}}),
        ("aaa", {aaa.fit_aaa: {"order": "max_order", "tol": "tol", "real_mode": "real_mode",
                               "seed": "seed"}}),
        ("vf", {vectorfit.fit_vf: {"order": "order", "iters": "n_iter"}}),
    ])
    def test_library_defaults_are_the_table(self, method, defaults):
        # each setting, by its name in the table and in each function's signature
        for function, names in defaults.items():
            parameters = inspect.signature(function).parameters
            for setting, parameter in names.items():
                assert parameters[parameter].default == FIT_DEFAULTS[method][setting], (function, parameter)
        covered = {setting for names in defaults.values() for setting in names}
        # cleanup is a step of fit, not a parameter of fit_aaa
        assert covered | ({"cleanup"} if method == "aaa" else set()) == set(FIT_DEFAULTS[method])

    def test_fit_aaa_caps_the_order_as_fit_does(self, medium_bessel_samples):
        # noise of 1e-9 keeps AAA above its 1e-13 tolerance up to the cap
        rng = np.random.default_rng(0)
        noise = 1e-9 * (rng.standard_normal(len(medium_bessel_samples))
                        + 1j * rng.standard_normal(len(medium_bessel_samples)))
        noisy = SampleSet(medium_bessel_samples.points, medium_bessel_samples.values + noise)
        model, history = aaa.fit_aaa(noisy)
        assert model.order == FIT_DEFAULTS["aaa"]["order"]
        assert history[-1].max_error > 1e-13 * np.max(np.abs(noisy.values))
        assert_identical(fit("aaa", noisy), (model, history))

    @pytest.mark.parametrize("method", sorted(FIT_DEFAULTS))
    def test_defaults_equal_the_direct_call(self, method, medium_bessel_samples):
        model, history = fit(method, medium_bessel_samples)
        assert_identical((model, history), self.direct(method, medium_bessel_samples, **FIT_DEFAULTS[method]))
        # None is the default too
        assert_identical(fit(method, medium_bessel_samples, order=None), (model, history))

    @pytest.mark.parametrize("method, settings", [
        ("loewner", {"tol": 1e-8, "scheme": "half_split"}),
        ("rloewner", {"order": 9, "seed": 3}),
        ("aaa", {"order": 10, "real_mode": True, "cleanup": True, "seed": 2}),
        ("vf", {"order": 10, "iters": 4}),
    ])
    def test_settings_override_the_table(self, method, settings, medium_bessel_samples):
        assert_identical(fit(method, medium_bessel_samples, **settings),
                         self.direct(method, medium_bessel_samples, **FIT_DEFAULTS[method] | settings))

    def test_loewner_order_and_tol_together_are_rejected(self, small_bessel_samples):
        with pytest.raises(ValueError, match="exactly one"):
            fit("loewner", small_bessel_samples, order=5, tol=1e-8)

    @pytest.mark.parametrize("method, settings", [
        ("newton", {}),
        ("vf", {"tol": 1e-3}),
        ("aaa", {"iters": 3}),
        ("rloewner", {"scheme": "half_split"}),
        ("loewner", {"seed": 0}),
        ("aaa", {"max_order": 9}),
    ])
    def test_unknown_method_or_setting_raises(self, method, settings, small_bessel_samples):
        with pytest.raises(ValueError):
            fit(method, small_bessel_samples, **settings)

    @pytest.mark.parametrize("fit_call", [
        lambda samples: aaa.fit_aaa(samples, max_order=0),
        lambda samples: vectorfit.fit_vf(samples, order=0),
        lambda samples: greedy.fit_greedy(samples, order_target=0),
    ], ids=["aaa", "vf", "rloewner"])
    def test_order_below_one_is_a_setting_error(self, fit_call, small_bessel_samples):
        with pytest.raises(SettingError, match="order must be at least 1") as info:
            fit_call(small_bessel_samples)
        assert isinstance(info.value, ValueError) and isinstance(info.value, RatApproxError)

    @pytest.mark.parametrize("settings", [{"newton": {}}, {"vf": {"tol": 1e-3}}])
    def test_compare_config_rejects_what_fit_would(self, settings, small_bessel_samples, monkeypatch):
        # checked before the first fit
        monkeypatch.setattr(analysis, "fit", None)
        with pytest.raises(ValueError):
            compare_methods(small_bessel_samples, oracle_grid(h_of_s, OMEGA, 10, 5), settings)

    def test_one_sample_gives_four_error_rows(self):
        pts = np.array([2.0 + 0.5j])
        samples = SampleSet(pts, 1.0 / (pts + 1.0))
        table = compare_methods(samples, oracle_grid(h_of_s, OMEGA, 10, 5))
        assert [r.method for r in table.rows] == list(FIT_DEFAULTS)
        assert all(r.status.startswith("error") for r in table.rows)
        with pytest.raises(InsufficientDataError):
            aaa.fit_aaa(samples)
