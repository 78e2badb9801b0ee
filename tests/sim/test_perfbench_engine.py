"""Perfbench kernel measurement: rep isolation (no real benchmarking
here -- measurement is monkeypatched so this stays fast)."""

import pytest

import repro.sim.perfbench as perfbench


class TestRepIsolation:
    def test_each_rep_starts_from_a_collected_heap(self, monkeypatch):
        collections = []
        monkeypatch.setattr(
            perfbench.gc, "collect", lambda: collections.append(1)
        )
        monkeypatch.setattr(perfbench, "BENCHMARKS", {})
        with pytest.raises(ZeroDivisionError):
            # No benchmarks -> 0/0, but the per-rep collect must have
            # happened before any timing work.
            perfbench.measure_mechanism("perfect", reps=1)
        assert collections, "rep did not gc.collect() before measuring"
