"""Every count setting (an order, an iteration count, a seed or a grid size) follows one rule.

The value must be an integer, Python's or numpy's, and not a bool, of at
least the setting's minimum; otherwise ``SettingError`` names the setting,
before any sample is evaluated or any pencil is built.
"""

import numpy as np
import pytest

from conftest import rational_samples
from ratapprox import OMEGA, SettingError, aaa, greedy, linalg, loewner, sampling, vectorfit
from ratapprox.analysis import oracle_grid
from ratapprox.errors import check_count
from ratapprox.special import h_of_s

_SAMPLES, *_ = rational_samples(2, 7, n_pairs=12)
_PENCIL = loewner.build_pencil(loewner.partition(_SAMPLES))

# (setting id, the name in the message, minimum, a valid value, call(value, oracle))
SETTINGS = [
    ("fit_aaa.max_order", "order", 1, 4, lambda v, o: aaa.fit_aaa(_SAMPLES, max_order=v)),
    ("fit_aaa.seed", "seed", 0, 3, lambda v, o: aaa.fit_aaa(_SAMPLES, max_order=4, seed=v)),
    ("fit_greedy.order_target", "order", 1, 2, lambda v, o: greedy.fit_greedy(_SAMPLES, order_target=v)),
    ("fit_greedy.seed", "seed", 0, 3, lambda v, o: greedy.fit_greedy(_SAMPLES, order_target=2, seed=v)),
    ("fit_vf.order", "order", 1, 2, lambda v, o: vectorfit.fit_vf(_SAMPLES, order=v, n_iter=2)),
    ("fit_vf.n_iter", "iters", 0, 2, lambda v, o: vectorfit.fit_vf(_SAMPLES, order=2, n_iter=v)),
    ("truncate.order", "order", 1, 2, lambda v, o: loewner.truncate(_PENCIL, order=v)),
    ("trajectory_study.a", "a", 3, 3,
     lambda v, o: loewner.trajectory_study(o, OMEGA, a=v, n_steps=1, order=2)),
    ("trajectory_study.n_steps", "n_steps", 1, 1,
     lambda v, o: loewner.trajectory_study(o, OMEGA, a=3, n_steps=v, order=2)),
    ("trajectory_study.order", "order", 1, 2,
     lambda v, o: loewner.trajectory_study(o, OMEGA, a=3, n_steps=1, order=v)),
    ("structured_grid.nx", "nx", 2, 3, lambda v, o: sampling.structured_grid(OMEGA, v, 3)),
    ("structured_grid.ny", "ny", 2, 3, lambda v, o: sampling.structured_grid(OMEGA, 3, v)),
    ("oracle_grid.nx", "nx", 2, 3, lambda v, o: oracle_grid(o, OMEGA, v, 3)),
    ("oracle_grid.ny", "ny", 2, 3, lambda v, o: oracle_grid(o, OMEGA, 3, v)),
    ("uniform_random_grid.n_pairs", "n_pairs", 1, 2, lambda v, o: sampling.uniform_random_grid(OMEGA, v, 0)),
    ("uniform_random_grid.seed", "seed", 0, 3, lambda v, o: sampling.uniform_random_grid(OMEGA, 2, v)),
]

#: the first piece of work of each function: none of them may run for a bad setting
WORK = [
    (loewner, "build_pencil"),
    (greedy, "build_pencil"),
    (linalg, "leading_svd"),
    (linalg, "svd"),
    (aaa, "_solve_weights"),
    (vectorfit, "initial_poles_auto"),
    (vectorfit, "_basis"),
    (sampling, "_symmetric_linspace"),
]


class SpyOracle:
    """The 1/J0 oracle, recording its point and grid calls."""

    def __init__(self):
        self.calls = []

    def __call__(self, s):
        self.calls.append("points")
        return h_of_s(s)

    def on_grid(self, xs, ys):
        self.calls.append("grid")
        return h_of_s.on_grid(xs, ys)


@pytest.fixture
def work_calls(monkeypatch):
    calls = []
    for owner, attr in WORK:
        def spy(*args, _fn=getattr(owner, attr), _name=f"{owner.__name__}.{attr}", **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, spy)
    return calls


def _bad_values(minimum):
    return [2.5, True, np.float64(3.0), "3", minimum - 1]


@pytest.mark.parametrize(
    "setting_id, name, call, bad",
    [(sid, name, call, bad) for sid, name, minimum, _, call in SETTINGS for bad in _bad_values(minimum)],
    ids=[f"{sid}={bad!r}" for sid, _, minimum, _, _ in SETTINGS for bad in _bad_values(minimum)],
)
def test_bad_count_is_a_setting_error_before_any_work(setting_id, name, call, bad, work_calls):
    oracle = SpyOracle()
    with pytest.raises(SettingError, match=rf"^{name} must be "):
        call(bad, oracle)
    assert oracle.calls == []
    assert work_calls == []


@pytest.mark.parametrize("setting_id, call, good",
                         [(sid, call, good) for sid, _, _, good, call in SETTINGS],
                         ids=[sid for sid, *_ in SETTINGS])
def test_numpy_integer_is_a_count(setting_id, call, good):
    call(np.int64(good), SpyOracle())


@pytest.mark.parametrize("value, message", [
    (-1, "n must be at least 0"),
    (np.int64(-2), "n must be at least 0"),
    (False, "n must be an integer, got False"),
    (np.bool_(True), "n must be an integer, got np.True_"),
    (1.0, "n must be an integer, got 1.0"),
    (None, "n must be an integer, got None"),
])
def test_message_names_the_setting_and_the_rule(value, message):
    with pytest.raises(SettingError) as info:
        check_count("n", value, 0)
    assert str(info.value) == message
