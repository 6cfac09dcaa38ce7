"""Shared test plumbing: acceptance lines that survive output capture, and cold geometry caches."""

from __future__ import annotations

import pytest

ACCEPTANCE_LINES: list = []


def record_acceptance(line: str) -> None:
    """Queue a one-line verdict for the end-of-run acceptance section."""
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def geometry_caches() -> list:
    """Every ``functools.lru_cache`` of the package's modules, each once."""
    from nosignal import composite, lattice, protocol, qcore

    found = {}
    for module in (composite, lattice, protocol, qcore):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                found[id(value)] = value
    return list(found.values())


@pytest.fixture
def cold_caches() -> list:
    """Empty every cache first, so the test sees each geometry built; returns the caches."""
    caches = geometry_caches()
    for cache in caches:
        cache.cache_clear()
    return caches
