"""The moving-object set ``M`` (taxis, Pokémons, bikes).

Objects live on network nodes.  Every kNN solution keeps its own object
bookkeeping, but the canonical mutable set below is used by workload
generation, by the reference (oracle) kNN, and by tests checking the
partition/replication invariants of the core matrix.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator

from ..graph.road_network import RoadNetwork


class ObjectSet:
    """A mutable mapping of object ids to node locations.

    Maintains both directions — ``object -> node`` and the per-node
    bucket ``node -> {objects}`` — so kNN scans and update handling are
    both O(1) per step.
    """

    def __init__(self, locations: dict[int, int] | None = None) -> None:
        self._location: dict[int, int] = {}
        self._bucket: dict[int, set[int]] = {}
        self._next_id = 0
        if locations:
            for object_id, node in locations.items():
                self.insert(object_id, node)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def random_on_network(
        cls,
        network: RoadNetwork,
        count: int,
        seed: int = 0,
        candidate_nodes: Iterable[int] | None = None,
    ) -> "ObjectSet":
        """Place ``count`` objects uniformly on the network's nodes.

        This mirrors the paper's setup ("we randomly select m nodes in the
        network at each of which an object is created and placed").  Pass
        ``candidate_nodes`` (e.g. POIs) to restrict placement sites.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        rng = random.Random(seed)
        nodes = list(candidate_nodes) if candidate_nodes is not None else None
        if nodes is not None and not nodes and count > 0:
            raise ValueError("candidate_nodes is empty but count > 0")
        objects = cls()
        for object_id in range(count):
            if nodes is not None:
                node = rng.choice(nodes)
            else:
                node = rng.randrange(network.num_nodes)
            objects.insert(object_id, node)
        return objects

    # ------------------------------------------------------------------
    # Mutations (the A.I / A.D semantics of the paper)
    # ------------------------------------------------------------------
    def insert(self, object_id: int, node: int) -> None:
        if object_id in self._location:
            raise KeyError(f"object {object_id} already present")
        self._location[object_id] = node
        self._bucket.setdefault(node, set()).add(object_id)
        if object_id >= self._next_id:
            self._next_id = object_id + 1

    def delete(self, object_id: int) -> int:
        """Remove an object, returning the node it was at."""
        try:
            node = self._location.pop(object_id)
        except KeyError:
            raise KeyError(f"object {object_id} not present") from None
        bucket = self._bucket[node]
        bucket.discard(object_id)
        if not bucket:
            del self._bucket[node]
        return node

    def move(self, object_id: int, new_node: int) -> tuple[int, int]:
        """Relocate an object; returns ``(old_node, new_node)``.

        Semantically a delete followed by an insert, exactly how the
        paper says kNN solutions process a location change.
        """
        old_node = self.delete(object_id)
        self.insert(object_id, new_node)
        return old_node, new_node

    def fresh_id(self) -> int:
        """An object id never used before (for RU-mode inserts)."""
        object_id = self._next_id
        self._next_id += 1
        return object_id

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def location_of(self, object_id: int) -> int:
        try:
            return self._location[object_id]
        except KeyError:
            raise KeyError(f"object {object_id} not present") from None

    def objects_at(self, node: int) -> frozenset[int]:
        return frozenset(self._bucket.get(node, ()))

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._location

    def __len__(self) -> int:
        return len(self._location)

    def __iter__(self) -> Iterator[int]:
        return iter(self._location)

    def items(self) -> Iterator[tuple[int, int]]:
        """Yield ``(object_id, node)`` pairs."""
        return iter(self._location.items())

    def snapshot(self) -> dict[int, int]:
        """An immutable-by-copy view of ``object -> node``."""
        return dict(self._location)

    def copy(self) -> "ObjectSet":
        clone = ObjectSet()
        clone._location = dict(self._location)
        clone._bucket = {node: set(bucket) for node, bucket in self._bucket.items()}
        clone._next_id = self._next_id
        return clone

    def random_object(self, rng: random.Random) -> int:
        """A uniformly random present object (for RU-mode deletes).

        O(n) worst case but amortized cheap via reservoir over the dict —
        we simply materialize keys; workloads are generated once, so this
        is off the hot path.
        """
        if not self._location:
            raise KeyError("object set is empty")
        return rng.choice(list(self._location))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ObjectSet(size={len(self._location)})"
