"""Fixtures shared by the test modules."""

import os

import pytest


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(k)`` makes the package see k usable CPUs, whatever the machine
    has, until the test ends: every pool width is capped by that count."""
    def set_cpus(k: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
    return set_cpus
