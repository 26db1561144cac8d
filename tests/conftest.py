"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Gate-level property tests build netlists inside examples; relax deadlines.
settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=50,
)
settings.load_profile("repro")


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic NumPy generator for sampling-based tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def fresh_native(monkeypatch, tmp_path):
    """A private native-library cache and no bindings, before and after;
    yields the cache directory (created by the first build)."""
    from repro.hdl.native import clear_native_cache

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    clear_native_cache()
    yield tmp_path / "cache" / "repro" / "native"
    clear_native_cache()
