"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.hardware.topology import TorusMesh, multipod, single_pod

# CI runs with HYPOTHESIS_PROFILE=ci: derandomized so a red build replays
# the exact same examples, no deadline so shared runners don't flake.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def small_torus() -> TorusMesh:
    """A 4x4 full torus (both wraps)."""
    return TorusMesh(4, 4, wrap_x=True, wrap_y=True)


@pytest.fixture
def small_mesh() -> TorusMesh:
    """A 4x4 open mesh (no wraps)."""
    return TorusMesh(4, 4)


@pytest.fixture
def the_multipod() -> TorusMesh:
    """The paper's 4096-chip 128x32 multipod."""
    return multipod(4)


@pytest.fixture
def pod() -> TorusMesh:
    return single_pod()


@pytest.fixture
def fresh_telemetry(monkeypatch):
    """Telemetry on, every counter at zero before and after the test."""
    from repro import telemetry

    monkeypatch.setattr(telemetry, "enabled", True)
    telemetry.reset()
    yield telemetry.metrics
    telemetry.reset()
