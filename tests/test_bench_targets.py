"""The names the benchmark's traced pass wraps stay where its callers look them up.

``perfbench/layers.py`` wraps each ``(owner, attribute)`` in place, reading
``owner.__dict__[attribute]``; a name that moves (to a base class, or out of
the module its caller reads it from) breaks the trace or leaves a layer
reading zero.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from layers import all_targets  # noqa: E402

from ratapprox import aaa, greedy, loewner, vectorfit  # noqa: E402
from ratapprox.analysis import CompareConfig, compare_methods  # noqa: E402
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
    cfg = CompareConfig(loewner_order=8, rloewner_order=7, aaa_max_order=12, vf_order=8,
                        aaa_tol=1e-11, vf_iterations=10, grid_nx=10, grid_ny=5)
    table = compare_methods(small_bessel_samples, h_of_s, cfg)
    assert all(row.status == "ok" for row in table.rows)
    assert sorted(set(called)) == ["fit_aaa", "fit_greedy", "fit_vf", "truncate"]
