"""Self-time arithmetic of the span recorder on synthetic nested calls.

    python3 -m pytest -q perfbench/test_spans.py
"""

import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Recorder, Span, instrumented  # noqa: E402


class FakeClock:
    """A clock that only moves when the test advances it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    rec = Recorder(clock=clock)

    def leaf(dt):
        clock.advance(dt)

    def middle():
        clock.advance(1.0)
        rec.call("leaf", leaf, 2.0)
        clock.advance(0.5)
        rec.call("leaf", leaf, 3.0)

    def outer():
        clock.advance(0.25)
        rec.call("middle", middle)
        clock.advance(4.0)

    rec.call("outer", outer)

    names = [s.name for s in rec.spans]
    assert names == ["outer", "middle", "leaf", "leaf"]
    assert [s.parent for s in rec.spans] == [-1, 0, 1, 1]
    assert [s.duration for s in rec.spans] == [10.75, 6.5, 2.0, 3.0]
    assert rec.self_times() == [4.25, 1.5, 2.0, 3.0]
    # the self times of all spans add up to the root's duration
    assert sum(rec.self_times()) == rec.spans[0].duration


def test_overlapping_children_are_counted_once():
    rec = Recorder()
    rec.spans = [Span("p", 0.0, 10.0), Span("a", 1.0, 4.0, parent=0), Span("b", 3.0, 6.0, parent=0)]
    assert rec.self_times()[0] == 5.0


def test_span_survives_an_exception_and_notes_are_recorded():
    clock = FakeClock()
    rec = Recorder(clock=clock, notes={"ok": lambda args, kwargs, result: {"n": result}})

    def boom():
        clock.advance(1.0)
        raise ValueError("boom")

    try:
        rec.call("boom", boom)
    except ValueError:
        pass
    assert rec.call("ok", len, [1, 2, 3]) == 3
    assert rec.spans[0].duration == 1.0
    assert rec.spans[1].note == {"n": 3} and rec.spans[1].parent == -1


def test_instrumented_wraps_at_the_lookup_site_and_restores():
    def double(x):
        return 2 * x

    module = SimpleNamespace(double=double)
    rec = Recorder()
    with instrumented(rec, [(module, "double", "mod.double")]):
        assert module.double(4) == 8
    assert module.double is double
    assert [s.name for s in rec.spans] == ["mod.double"]
