"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: long-running test (set REPRO_RUN_SLOW=1 to include)",
    )

from repro.topology.generators import (
    InternetTopologyConfig,
    example_paper_topology,
    generate_internet_topology,
)


@pytest.fixture
def example_graph():
    """The hand-built 9-AS topology from the generators module."""
    return example_paper_topology()


@pytest.fixture(scope="session")
def small_internet():
    """A ~90-AS generated Internet-like topology (session-cached)."""
    config = InternetTopologyConfig(
        seed=11, n_tier1=4, n_tier2=12, n_tier3=24, n_stub=50
    )
    graph, tiers = generate_internet_topology(config)
    return graph, tiers


@pytest.fixture(scope="session")
def medium_internet():
    """A ~220-AS generated topology for heavier integration tests."""
    config = InternetTopologyConfig(
        seed=7, n_tier1=5, n_tier2=25, n_tier3=60, n_stub=130
    )
    graph, tiers = generate_internet_topology(config)
    return graph, tiers


@pytest.fixture
def rng():
    """A deterministic RNG for scenario construction."""
    return random.Random("tests")
