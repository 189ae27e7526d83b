"""Tests for the core-matrix routing logic (Algorithms 1-3)."""

import pytest

from repro.mpr import MPRConfig, MPRRouter, QueryRoute, UpdateRoute
from repro.mpr.core_matrix import check_matrix_invariants
from repro.objects import DeleteTask, InsertTask, QueryTask


def query(i: int) -> QueryTask:
    return QueryTask(float(i), i, 0, 5)


class TestQueryRouting:
    def test_round_robin_over_rows(self) -> None:
        router = MPRRouter(MPRConfig(x=2, y=3, z=1))
        rows = [router.route(query(i)).row for i in range(6)]
        assert rows == [0, 1, 2, 0, 1, 2]

    def test_query_reaches_whole_row(self) -> None:
        router = MPRRouter(MPRConfig(x=3, y=2, z=1))
        route = router.route(query(0))
        assert isinstance(route, QueryRoute)
        assert route.workers == ((0, 0, 0), (0, 0, 1), (0, 0, 2))

    def test_round_robin_over_layers(self) -> None:
        router = MPRRouter(MPRConfig(x=1, y=2, z=3))
        layers = [router.route(query(i)).layer for i in range(6)]
        assert layers == [0, 1, 2, 0, 1, 2]


class TestUpdateRouting:
    def test_insert_round_robin_over_columns(self) -> None:
        router = MPRRouter(MPRConfig(x=3, y=1, z=1))
        columns = [
            router.route(InsertTask(float(i), i, 0)).columns[0] for i in range(6)
        ]
        assert columns == [0, 1, 2, 0, 1, 2]

    def test_update_reaches_whole_column_every_layer(self) -> None:
        router = MPRRouter(MPRConfig(x=2, y=2, z=2))
        route = router.route(InsertTask(0.0, 7, 0))
        assert isinstance(route, UpdateRoute)
        assert len(route.workers) == 2 * 2  # y rows x z layers
        layers = {w[0] for w in route.workers}
        assert layers == {0, 1}

    def test_delete_follows_insert_column(self) -> None:
        router = MPRRouter(MPRConfig(x=4, y=1, z=1))
        router.route(InsertTask(0.0, 1, 0))  # column 0
        router.route(InsertTask(0.1, 2, 0))  # column 1
        delete_route = router.route(DeleteTask(0.2, 1))
        assert delete_route.columns == (0,)

    def test_delete_unknown_object_raises(self) -> None:
        router = MPRRouter(MPRConfig(x=2, y=1, z=1))
        with pytest.raises(KeyError, match="unknown object"):
            router.route(DeleteTask(0.0, 404))

    def test_double_insert_raises(self) -> None:
        router = MPRRouter(MPRConfig(x=2, y=1, z=1))
        router.route(InsertTask(0.0, 1, 0))
        with pytest.raises(KeyError, match="live object"):
            router.route(InsertTask(0.1, 1, 5))

    def test_reinsert_after_delete_allowed(self) -> None:
        router = MPRRouter(MPRConfig(x=2, y=1, z=1))
        router.route(InsertTask(0.0, 1, 0))
        router.route(DeleteTask(0.1, 1))
        route = router.route(InsertTask(0.2, 1, 3))
        assert isinstance(route, UpdateRoute)


class TestSerializability:
    def test_update_before_query_shares_worker(self) -> None:
        """Section IV-A's argument: an update u arriving before query q
        shares at least one w-core with q, serializing them there."""
        config = MPRConfig(x=3, y=4, z=2)
        router = MPRRouter(config)
        update_route = router.route(InsertTask(0.0, 1, 0))
        query_route = router.route(query(1))
        assert set(update_route.workers) & set(query_route.workers)


class TestPreload:
    def test_preload_respects_invariants(self) -> None:
        config = MPRConfig(x=3, y=2, z=2)
        router = MPRRouter(config)
        objects = {i: i * 10 for i in range(10)}
        contents = router.preload_objects(objects)
        check_matrix_invariants(contents, config)
        union = set()
        for column in range(config.x):
            union |= set(contents[(0, 0, column)])
        assert union == set(objects)

    def test_preload_registers_delete_routing(self) -> None:
        config = MPRConfig(x=3, y=1, z=1)
        router = MPRRouter(config)
        router.preload_objects({5: 0, 6: 1, 7: 2})
        route = router.route(DeleteTask(0.0, 6))
        # Object 6 is the second in sorted order -> column 1.
        assert route.columns == (1,)

    def test_all_workers_enumerated(self) -> None:
        config = MPRConfig(x=2, y=3, z=2)
        router = MPRRouter(config)
        assert len(router.all_workers()) == config.worker_cores


class TestInvariantChecker:
    def test_detects_overlapping_cells(self) -> None:
        config = MPRConfig(x=2, y=1, z=1)
        contents = {(0, 0, 0): {1: 0}, (0, 0, 1): {1: 0}}
        with pytest.raises(AssertionError, match="overlap"):
            check_matrix_invariants(contents, config)

    def test_detects_column_divergence(self) -> None:
        config = MPRConfig(x=1, y=2, z=1)
        contents = {(0, 0, 0): {1: 0}, (0, 1, 0): {1: 5}}
        with pytest.raises(AssertionError, match="differs"):
            check_matrix_invariants(contents, config)

    def test_detects_missing_replica(self) -> None:
        config = MPRConfig(x=1, y=2, z=1)
        contents = {(0, 0, 0): {1: 0}, (0, 1, 0): {}}
        with pytest.raises(AssertionError):
            check_matrix_invariants(contents, config)


class TestRouteBatcher:
    def make(self, config: MPRConfig, batch_size: int):
        from repro.mpr import RouteBatcher

        return RouteBatcher(MPRRouter(config), batch_size)

    def test_batch_released_when_full(self) -> None:
        batcher = self.make(MPRConfig(x=1, y=1, z=1), batch_size=3)
        for i in range(2):
            _, ready = batcher.add(query(i))
            assert ready == []
        _, ready = batcher.add(query(2))
        assert len(ready) == 1
        worker, ops = ready[0]
        assert worker == (0, 0, 0)
        assert [op[0] for op in ops] == ["query", "query", "query"]
        assert batcher.pending_ops == 0

    def test_flush_releases_partial_batches(self) -> None:
        batcher = self.make(MPRConfig(x=2, y=1, z=1), batch_size=10)
        batcher.add(query(0))           # both columns of the row
        batcher.add(InsertTask(1.0, 7, 3))  # one column only
        assert batcher.pending_ops == 3
        released = {worker: ops for worker, ops in batcher.flush()}
        assert set(released) == {(0, 0, 0), (0, 0, 1)}
        assert batcher.pending_ops == 0
        assert batcher.flush() == []

    def test_per_worker_fcfs_order_is_preserved(self) -> None:
        batcher = self.make(MPRConfig(x=1, y=1, z=1), batch_size=2)
        batcher.add(InsertTask(0.0, 5, 1))
        _, ready = batcher.add(query(0))
        assert ready == []  # one query of two: the update does not count
        batcher.add(DeleteTask(1.0, 5))
        _, ready = batcher.add(query(1))
        (_, ops), = ready
        assert [op[:2] for op in ops] == [
            ("insert", 5), ("query", 0), ("delete", 5), ("query", 1),
        ]
        batcher.add(InsertTask(2.0, 5, 1))
        (_, ops2), = batcher.flush()
        assert ops2 == (("insert", 5, 1),)

    def test_query_dense_stream_releases_sweep_by_sweep(self) -> None:
        batcher = self.make(MPRConfig(x=1, y=1, z=1), batch_size=4)
        released = []
        for i in range(10):
            _, ready = batcher.add(query(i))
            released += [(i, ops) for _, ops in ready]
        assert [i for i, _ in released] == [3, 7]  # at exactly 4 queries
        assert [[op[1] for op in ops] for _, ops in released] == [
            [0, 1, 2, 3], [4, 5, 6, 7],
        ]
        assert batcher.pending_ops == 2

    def test_update_only_stream_releases_at_the_ops_cap(self) -> None:
        from repro.mpr.core_matrix import MAX_OPS_PER_QUERY_SLOT

        batcher = self.make(MPRConfig(x=1, y=1, z=1), batch_size=2)
        cap = MAX_OPS_PER_QUERY_SLOT * 2
        released = []
        for i in range(cap + 3):
            _, ready = batcher.add(InsertTask(float(i), i, 0))
            released += [(i, ops) for _, ops in ready]
        ((at, ops),) = released
        assert at == cap - 1 and [op[1] for op in ops] == list(range(cap))
        assert batcher.pending_ops == 3

    def test_updates_ride_along_without_filling_the_sweep(self) -> None:
        """Updates do not count toward the release, keep their place
        among the queries, and go only to their own column."""
        batcher = self.make(MPRConfig(x=2, y=1, z=1), batch_size=3)
        stream = [
            query(0), InsertTask(0.1, 100, 0), InsertTask(0.2, 101, 0),
            query(1), DeleteTask(1.1, 100), InsertTask(1.2, 102, 0),
        ]
        for task in stream:
            _, ready = batcher.add(task)
            assert ready == []
        _, ready = batcher.add(query(2))
        released = {worker: [op[:2] for op in ops] for worker, ops in ready}
        assert released == {
            (0, 0, 0): [
                ("query", 0), ("insert", 100), ("query", 1),
                ("delete", 100), ("insert", 102), ("query", 2),
            ],
            (0, 0, 1): [
                ("query", 0), ("insert", 101), ("query", 1), ("query", 2),
            ],
        }

    def test_flush_resets_the_query_count(self) -> None:
        batcher = self.make(MPRConfig(x=1, y=1, z=1), batch_size=3)
        batcher.add(query(0))
        batcher.add(query(1))
        assert len(batcher.flush()) == 1
        for i in (2, 3):  # a stale count of 2 would release at the first
            _, ready = batcher.add(query(i))
            assert ready == []
        _, ready = batcher.add(query(4))
        ((_, ops),) = ready
        assert [op[1] for op in ops] == [2, 3, 4]

    def test_batch_size_one_is_per_task_dispatch(self) -> None:
        batcher = self.make(MPRConfig(x=2, y=1, z=1), batch_size=1)
        _, ready = batcher.add(query(0))
        assert len(ready) == 2          # one single-op message per worker
        assert all(len(ops) == 1 for _, ops in ready)

    def test_rejects_invalid_batch_size(self) -> None:
        with pytest.raises(ValueError):
            self.make(MPRConfig(x=1, y=1, z=1), batch_size=0)


class TestEncodeOp:
    def test_wire_forms(self) -> None:
        from repro.mpr import encode_op

        assert encode_op(QueryTask(0.0, 4, 17, 6)) == ("query", 4, 17, 6)
        assert encode_op(InsertTask(0.0, 9, 3)) == ("insert", 9, 3)
        assert encode_op(DeleteTask(0.0, 9)) == ("delete", 9)
