"""Spans, self times and the wrappers' restore."""

import types

from bench.calibrate import REFERENCE_S, Calibrator, NormClock
from bench.probe import Probe, Span


def _clock():
    clock = NormClock()
    # Reference speed throughout: normalised time equals raw time.
    clock.calibrations = [(-1.0, 0.0, REFERENCE_S), (100.0, 101.0, REFERENCE_S)]
    return clock


def test_self_times_subtract_children_and_sum_to_the_root():
    clock = _clock()
    probe = Probe(clock, Calibrator(clock))
    root = Span("experiments.fig2", 0.0, None, None, end=10.0)
    child = Span("kernel", 1.0, root, 0, end=4.0)
    grandchild = Span("sim.construct", 2.0, child, 0, end=3.0)
    sibling = Span("cache.get", 5.0, root, 1, end=6.0)
    own = probe.self_times([root, child, grandchild, sibling])
    assert own[id(root)] == 10.0 - 3.0 - 1.0
    assert own[id(child)] == 3.0 - 1.0
    assert own[id(grandchild)] == 1.0
    assert sum(own.values()) == 10.0


def test_wrappers_record_resolutions_and_restore_originals():
    clock = NormClock()
    clock.calibrate(1)
    probe = Probe(clock, Calibrator(clock, every=0.0))
    module = types.SimpleNamespace(get=lambda key: None if key == "miss" else key)
    original = module.get
    probe.resolution(module, "get", "cache.get", counts=lambda r: r is not None)
    probe.traced = True
    assert module.get("hit") == "hit" and module.get("miss") is None
    probe.close()
    assert module.get is original
    assert len(probe.requests) == 1, "a miss resolves nothing"
    assert [s.info["resolved"] for s in probe.spans] == [True, False]
    assert len(clock.calibrations) == 2, "the hit was a calibration boundary"
