"""Shared fixtures: small deterministic networks and object sets."""

from __future__ import annotations

import random
import threading
import time
from collections import Counter

import pytest
from hypothesis import settings

from repro.graph import RoadNetwork, grid_network, ring_radial_network
from repro.graph.kernels import KERNEL_CALLS
from repro.knn import DijkstraKNN
from repro.mpr import MPRConfig, QueryResult, ReconfigEvent, ReconfigRejected
from repro.obs import Telemetry


# Hypothesis budgets.  ``default`` is derandomized, so tier-1 is
# reproducible and the stateful protocol suite (tests/test_pool_protocol.py,
# which sizes itself from ``max_examples``) stays a few seconds;
# ``tools/ci.sh chaos`` runs it (beside the real-signal pool fault tests)
# ten times deeper, freshly seeded, with ``--hypothesis-profile=thorough``
# (the plugin loads that after this).
settings.register_profile("default", max_examples=100, derandomize=True)
settings.register_profile("thorough", max_examples=1000)
# Test modules import this file a second time (``from tests.conftest
# import ...``); that import must not undo a profile the command line
# chose.
if settings.get_current_profile_name() == "default":
    settings.load_profile("default")


#: Threads the package starts; every one has an owner whose ``close()`` /
#: ``stop()`` ends it.
_OWNED_THREADS = ("w-core", "mpr-pump-loop", "reconfig-manager")


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail the test that leaves one of the package's threads running.

    An unclosed thread-mode pool is otherwise reaped by a later GC
    *inside some other test* (the transport's ``weakref.finalize``),
    where the exiting ``w-core`` threads show up as that test's flake.
    """
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 0.5
    while True:
        leaked = sorted(
            thread.name for thread in threading.enumerate()
            if thread not in before and thread.name.startswith(_OWNED_THREADS)
        )
        if not leaked or time.monotonic() >= deadline:
            break
        time.sleep(0.01)
    assert not leaked, f"test left threads running: {leaked}"


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


#: The ``KERNEL_CALLS`` names of a batch call that swept: delta-wide
#: windows, or one capped window, whichever the kernels' work model picks.
SWEEP_ENGINES = ("knn_batch", "one_window")


def sweeps(before: Counter) -> int:
    """Batch sweeps since ``before = Counter(KERNEL_CALLS)`` was taken.

    Asserts that nothing else searched meanwhile (no heap search, no
    solo ``topk`` or ``topk_one_window``), so renaming a sweep engine
    breaks no count and a search that left its message's sweep still
    does."""
    ran = KERNEL_CALLS - before
    others = {name: n for name, n in ran.items() if name not in SWEEP_ENGINES}
    assert not others, f"engines other than a batch sweep ran: {others}"
    return sum(ran[name] for name in SWEEP_ENGINES)


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(1234)


def place_objects(network: RoadNetwork, count: int, seed: int = 7) -> dict[int, int]:
    generator = random.Random(seed)
    return {i: generator.randrange(network.num_nodes) for i in range(count)}


@pytest.fixture()
def grid_objects(small_grid: RoadNetwork) -> dict[int, int]:
    return place_objects(small_grid, 15)


def ok_results(reference) -> dict[int, QueryResult]:
    """A serial reference (``query_id -> list[Neighbor]``) as the
    envelopes a pool must answer it with: the same canonical top-k *and*
    ``status is OK`` — so ``pool.run(tasks) == ok_results(oracle)`` is
    the house oracle rule."""
    return {
        query_id: QueryResult.from_answer(query_id, neighbors)
        for query_id, neighbors in reference.items()
    }


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


class FakeSystem:
    """The duck-typed seam :class:`repro.mpr.ReconfigManager` drives,
    without workers: an enabled telemetry (tests bump its router
    counters), the serving shape, and a ``reconfigure()`` that adopts
    the proposal — after going through ``outcomes`` first, one entry per
    call: ``"rejected"`` raises, ``"rolled_back"`` keeps the shape."""

    def __init__(self, config=MPRConfig(2, 2, 1), outcomes=()):
        self.telemetry = Telemetry()
        self.config = config
        self.outcomes = list(outcomes)
        #: ``(proposed shape, trigger)`` of every proposal adopted.
        self.calls: list[tuple[MPRConfig, str]] = []
        #: The shape serving when each proposal arrived, adopted or not.
        self.proposed_from: list[MPRConfig] = []

    def reconfigure(self, new_config, *, trigger, warm_timeout,
                    retire_timeout):
        self.proposed_from.append(self.config)
        outcome = self.outcomes.pop(0) if self.outcomes else "completed"
        if outcome == "rejected":
            raise ReconfigRejected("breaker open")
        event = ReconfigEvent(
            started_at=0.0, old_config=self.config, new_config=new_config,
            trigger=trigger, outcome=outcome,
        )
        if outcome == "completed":
            self.calls.append((new_config, trigger))
            self.config = new_config
        return event
