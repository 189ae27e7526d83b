"""RouteBatcher edge cases: flush semantics, ordering, locality grouping.

The serial-equivalence argument rests on two batcher properties: each
worker's updates keep their arrival order (queries may only reorder
*between* two updates, never across one), and releasing is
deterministic for a given submit/flush interleaving.  The locality
grouping added for the batched kNN kernel must preserve both.
"""

from __future__ import annotations

import pytest

from repro.knn import DijkstraKNN
from repro.mpr import MPRConfig, MPRRouter, RouteBatcher, build_executor
from repro.objects.tasks import DeleteTask, InsertTask, QueryTask
from tests.conftest import place_objects


def query(query_id: int, location: int = 0, k: int = 4) -> QueryTask:
    return QueryTask(float(query_id), query_id, location, k)


def make(config: MPRConfig, batch_size: int, **kwargs) -> RouteBatcher:
    return RouteBatcher(MPRRouter(config), batch_size, **kwargs)


class TestFlushEdgeCases:
    def test_empty_flush_is_empty(self) -> None:
        batcher = make(MPRConfig(2, 2, 1), batch_size=4)
        assert batcher.flush() == []
        assert batcher.pending_ops == 0

    def test_single_task_batch(self) -> None:
        batcher = make(MPRConfig(1, 1, 1), batch_size=1)
        _, ready = batcher.add(query(0, location=5))
        assert ready == [((0, 0, 0), (("query", 0, 5, 4),))]
        assert batcher.flush() == []  # nothing left behind

    def test_flush_after_close_is_a_noop(self, small_grid) -> None:
        """A closed pool ignores flush instead of touching dead workers."""
        solution = DijkstraKNN(small_grid, place_objects(small_grid, 5))
        pool = build_executor(
            MPRConfig(1, 1, 1), solution, mode="process", batch_size=8
        )
        pool.close()
        pool.flush()  # must not raise, must not dispatch
        threaded = build_executor(MPRConfig(1, 1, 1), solution, mode="thread")
        threaded.close()
        threaded.flush()


class TestOrderingDeterminism:
    def _drive(self, batcher, flush_at: set[int]) -> list:
        released = []
        tasks = [
            query(0, location=9),
            query(1, location=2),
            InsertTask(2.0, 50, 3),
            query(2, location=9),
            query(3, location=1),
            DeleteTask(5.0, 50),
            query(4, location=2),
        ]
        for position, task in enumerate(tasks):
            _, ready = batcher.add(task)
            released.extend(ready)
            if position in flush_at:
                released.extend(batcher.flush())
        released.extend(batcher.flush())
        return released

    def test_same_interleaving_is_deterministic(self) -> None:
        first = self._drive(make(MPRConfig(1, 1, 1), 3), flush_at={4})
        second = self._drive(make(MPRConfig(1, 1, 1), 3), flush_at={4})
        assert first == second

    @pytest.mark.parametrize("flush_at", [set(), {1}, {2, 4}, {0, 3, 5}])
    def test_updates_never_reorder(self, flush_at) -> None:
        released = self._drive(make(MPRConfig(1, 1, 1), 3), flush_at)
        ops = [op for _, batch in released for op in batch]
        updates = [op for op in ops if op[0] != "query"]
        assert updates == [("insert", 50, 3), ("delete", 50)]
        # Queries keep their side of every update barrier: the insert
        # separates {0, 1} from {2, 3}; the delete separates those
        # from {4}.
        segments = []
        current: list[int] = []
        for op in ops:
            if op[0] == "query":
                current.append(op[1])
            else:
                segments.append(set(current))
                current = []
        segments.append(set(current))
        assert segments == [{0, 1}, {2, 3}, {4}]

    def test_locality_sorts_each_query_run(self) -> None:
        batcher = make(MPRConfig(1, 1, 1), 7)
        (_, ops), = self._drive(batcher, flush_at=set())
        # Run 1 = queries 0, 1 at locations 9, 2 → sorted by location;
        # run 2 = queries 2, 3 at locations 9, 1 → sorted; run 3 = {4}.
        assert ops == (
            ("query", 1, 2, 4),
            ("query", 0, 9, 4),
            ("insert", 50, 3),
            ("query", 3, 1, 4),
            ("query", 2, 9, 4),
            ("delete", 50),
            ("query", 4, 2, 4),
        )

    def test_duplicate_locations_tie_break_on_query_id(self) -> None:
        batcher = make(MPRConfig(1, 1, 1), 4)
        for query_id in (3, 1, 2, 0):
            _, ready = batcher.add(query(query_id, location=6))
        (_, ops), = ready
        assert [op[1] for op in ops] == [0, 1, 2, 3]


class TestBatchSize:
    def test_rejects_invalid(self) -> None:
        """The width is fixed at construction, and checked there."""
        with pytest.raises(ValueError):
            make(MPRConfig(1, 1, 1), 0)
