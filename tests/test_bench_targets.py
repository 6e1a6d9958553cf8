"""The names the benchmark's traced pass wraps stay where its callers look them up.

``perfbench/layers.py`` wraps each ``(owner, attribute)`` in place, reading
``owner.__dict__[attribute]``; a name that moves (to a base class, or out of
the module its caller reads it from) breaks the trace or leaves a layer
reading zero.
"""

import functools
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from conftest import SMALL_FIT_SETTINGS  # noqa: E402
from layers import all_targets  # noqa: E402

from ratapprox import OMEGA, aaa, analysis, cli, greedy, loewner, sampling, special, vectorfit  # noqa: E402
from ratapprox.analysis import compare_methods, fit, model_error, oracle_grid  # noqa: E402
from ratapprox.special import h_of_s  # noqa: E402


def test_every_target_is_defined_on_its_owner():
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in all_targets()
               if attr not in owner.__dict__]
    assert missing == []


def test_compare_methods_calls_each_fit_through_its_module(small_bessel_samples, monkeypatch):
    called = []
    for owner, attr in ((loewner, "truncate"), (greedy, "fit_greedy"),
                        (aaa, "fit_aaa"), (vectorfit, "fit_vf")):
        def spy(*args, _fn=getattr(owner, attr), _name=attr, **kwargs):
            called.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, spy)
    table = compare_methods(small_bessel_samples, oracle_grid(h_of_s, OMEGA, 10, 5), SMALL_FIT_SETTINGS)
    assert all(row.status == "ok" for row in table.rows)
    assert sorted(set(called)) == ["fit_aaa", "fit_greedy", "fit_vf", "truncate"]


def test_fit_aaa_ranks_through_eval_barycentric(small_bessel_samples, monkeypatch):
    """The ranking runs inside the traced ``aaa.eval`` span, one call per step."""
    calls = []

    def spy(model, s, _fn=aaa.eval_barycentric):
        calls.append(len(s))
        return _fn(model, s)

    monkeypatch.setattr(aaa, "eval_barycentric", spy)
    model, history = aaa.fit_aaa(small_bessel_samples, tol=1e-11, max_order=12)
    assert calls == [len(small_bessel_samples) - step.order for step in history]


@pytest.mark.parametrize("method", ["loewner", "aaa", "vf"])
def test_calling_a_model_runs_the_eval_of_its_class(method, small_bessel_samples, monkeypatch):
    """The trace wraps ``StateSpaceModel.eval`` on the class; ``model(s)`` must reach it."""
    model, _ = fit(method, small_bessel_samples, **SMALL_FIT_SETTINGS[method])
    calls = []

    def spy(self, s, _fn=type(model).eval):
        calls.append(len(s))
        return _fn(self, s)

    monkeypatch.setattr(type(model), "eval", spy)
    pts = small_bessel_samples.points
    assert model(pts).tobytes() == spy(model, pts).tobytes()
    truth = oracle_grid(h_of_s, OMEGA, 10, 5)
    model_error(model, truth)
    assert calls == [pts.size, pts.size, truth.points.size]


def test_repro_reads_the_oracle_sampler_and_comparison_off_their_modules(tmp_path, monkeypatch):
    """The traced ``repro`` wraps these three where they are defined; ``cli`` must look them up there."""
    called = Counter()
    for owner, attr in ((special, "h_of_s"), (sampling, "sample_oracle"), (analysis, "compare_methods")):
        @functools.wraps(getattr(owner, attr))  # keeps h_of_s.on_grid, as the trace's wrapper does
        def spy(*args, _fn=getattr(owner, attr), _name=attr, **kwargs):
            called[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, spy)
    assert cli.main(["repro", "--out-dir", str(tmp_path), "--nx", "20", "--ny", "10"]) == 0
    # the oracle is called by the sampler only: the dense surface takes its grid method
    assert called == {"h_of_s": 2, "sample_oracle": 2, "compare_methods": 2}
