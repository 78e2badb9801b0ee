"""Kernel selection: ``resolve_engine`` names the one cycle kernel and
rejects a ``REPRO_ENGINE`` that names any other (the benchmark harness
imports it for its run header)."""

import pytest


class TestResolveEngine:
    def test_default_is_reference(self, monkeypatch):
        from repro.engine import resolve_engine

        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine() == "reference"
        monkeypatch.setenv("REPRO_ENGINE", "")
        assert resolve_engine() == "reference"
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        assert resolve_engine() == "reference"

    def test_batched_env_raises(self, monkeypatch):
        from repro.engine import resolve_engine

        monkeypatch.setenv("REPRO_ENGINE", "batched")
        with pytest.raises(ValueError, match="batched"):
            resolve_engine()

    def test_unknown_env_value_raises(self, monkeypatch):
        from repro.engine import resolve_engine

        monkeypatch.setenv("REPRO_ENGINE", "warp-drive")
        with pytest.raises(ValueError, match="warp-drive"):
            resolve_engine()
