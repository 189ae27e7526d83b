"""Shared fixtures: small deterministic networks and object sets."""

from __future__ import annotations

import random
import threading

import pytest
from hypothesis import settings

from repro.graph import RoadNetwork, grid_network, ring_radial_network
from repro.knn import DijkstraKNN


# Hypothesis budgets.  ``default`` is derandomized, so tier-1 is
# reproducible and the stateful protocol suite (tests/test_pool_protocol.py,
# which sizes itself from ``max_examples``) stays a few seconds;
# ``tools/ci.sh chaos`` runs it ten times deeper, freshly seeded, with
# ``--hypothesis-profile=thorough`` (the plugin loads that after this).
settings.register_profile("default", max_examples=100, derandomize=True)
settings.register_profile("thorough", max_examples=1000)
settings.load_profile("default")


@pytest.fixture(scope="session")
def path_network() -> RoadNetwork:
    """0 - 1 - 2 - 3 - 4 path with unit-ish weights."""
    edges = [(i, i + 1, float(i + 1)) for i in range(4)]
    coords = [(float(i), 0.0) for i in range(5)]
    return RoadNetwork(5, edges, coordinates=coords, name="path5")


@pytest.fixture(scope="session")
def small_grid() -> RoadNetwork:
    return grid_network(8, 8, seed=1, diagonal_fraction=0.15)


@pytest.fixture(scope="session")
def medium_grid() -> RoadNetwork:
    return grid_network(16, 16, seed=2, diagonal_fraction=0.2, deletion_fraction=0.08)


@pytest.fixture(scope="session")
def ring_network() -> RoadNetwork:
    return ring_radial_network(5, 12, seed=3)


@pytest.fixture(params=[
    pytest.param("thread", id="thread"),
    pytest.param("process", id="process", marks=pytest.mark.slow),
])
def worker_kind(request) -> str:
    """``build_executor``'s ``mode`` for the signal-free protocol tests:
    thread workers run in tier-1, the process variant in the slow lane."""
    return request.param


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(1234)


def place_objects(network: RoadNetwork, count: int, seed: int = 7) -> dict[int, int]:
    generator = random.Random(seed)
    return {i: generator.randrange(network.num_nodes) for i in range(count)}


@pytest.fixture()
def grid_objects(small_grid: RoadNetwork) -> dict[int, int]:
    return place_objects(small_grid, 15)


def gated_solution(network: RoadNetwork) -> tuple[DijkstraKNN, threading.Event]:
    """A solution whose workers block every op batch until the returned
    gate is set — a stuck worker thread on demand (thread mode only)."""
    gate = threading.Event()

    class GatedKNN(DijkstraKNN):
        def spawn(self, objects):
            return GatedKNN(self._network, objects)

        def run_ops(self, ops, op_timings=None):
            gate.wait(timeout=30)
            return super().run_ops(ops, op_timings)

    return GatedKNN(network), gate
