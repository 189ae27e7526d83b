"""Answer checking: every run compares the product with a reference.

``pool_*`` know their exact submitted stream, so they replay it — all
updates, a deterministic sample of the queries — through
``run_serial_reference`` and compare answers.  ``serve_*`` cannot know
the object state a concurrent query saw, so envelopes are checked
structurally during load, and after quiescing fresh queries are
compared with a fresh ``DijkstraKNN`` on the end state, which is known
because all updates ride one connection in stream order.

Every checker returns ``(checked, mismatches)``; a mismatch is a failed
operation.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping, Sequence

from repro.graph import RoadNetwork
from repro.knn import DijkstraKNN
from repro.knn.base import Neighbor
from repro.mpr import QueryResult, run_serial_reference
from repro.objects.tasks import Task, TaskKind

from .spec import K


def fresh_queries(network: RoadNetwork, seed: int, count: int = 200) -> list[int]:
    """Query origins for the end-state check, apart from the stream's."""
    rng = random.Random(seed ^ 0x5EED)
    return [rng.randrange(network.num_nodes) for _ in range(count)]


def envelope_ok(result: QueryResult) -> bool:
    """A complete, canonical top-k: OK, k distinct objects, ascending."""
    neighbors = result.neighbors
    return (
        result.ok
        and len(neighbors) == K
        and len({neighbor.object_id for neighbor in neighbors}) == K
        and all(a <= b for a, b in zip(neighbors, neighbors[1:]))
    )


def replay(
    network: RoadNetwork,
    initial_objects: Mapping[int, int],
    submitted: Iterable[Task],
    sampled: Mapping[int, Sequence[Neighbor]],
) -> tuple[int, int]:
    """Serially replay the stream; compare the sampled queries' answers."""
    stream = [
        task for task in submitted
        if task.kind is not TaskKind.QUERY or task.query_id in sampled
    ]
    expected = run_serial_reference(
        DijkstraKNN(network), initial_objects, stream
    )
    mismatches = sum(
        list(sampled[query_id]) != expected[query_id] for query_id in sampled
    )
    return len(sampled), mismatches


def end_state(
    network: RoadNetwork,
    initial_objects: Mapping[int, int],
    applied_updates: Iterable[Task],
    answers: Sequence[tuple[int, QueryResult]],
) -> tuple[int, int]:
    """Compare post-quiescence ``(location, result)`` pairs with a fresh
    solution holding the objects where the applied updates left them."""
    reference = DijkstraKNN(network, initial_objects)
    for task in applied_updates:
        if task.kind is TaskKind.INSERT:
            reference.insert(task.object_id, task.location)
        else:
            reference.delete(task.object_id)
    mismatches = sum(
        not result.ok or list(result.neighbors) != reference.query(location, K)
        for location, result in answers
    )
    return len(answers), mismatches
