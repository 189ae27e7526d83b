"""The pool's ack / hedge / respawn / reconfigure protocol, checked
deterministically on :class:`fake_transport.FakeTransport`.

No process, no thread, no descriptor, no sleep: every w-core is
in-memory, time is virtual, and the schedule — which worker runs, which
ack is delivered, who dies holding what — is either written out (the
named cases below, one per protocol situation and one per bug the last
PRs found by accident) or drawn by ``hypothesis`` (the stateful machine
at the bottom, whose rules interleave submits, drains, deaths, stalls,
poison, clogged inboxes, time and shape changes freely).

Invariants, checked by :meth:`Rig.drain` after every drain and by
:meth:`Rig.check_step` after every step: answers equal
``run_serial_reference`` *and say* ``OK`` (a degraded answer only for a
column the schedule really hit, and then consistent with the oracle's
ranking; a *hedged* answer may instead reflect a later point of the same
serial order — see :meth:`Rig.drain`), every drained value is one
well-formed ``QueryResult`` (:meth:`Rig.check_shape`), every query
resolved exactly once per drain, no ``_PendingQuery`` or
deadline left behind, admission ledger at zero, inbox backlog ⊆
``unacked``, ``check_matrix_invariants`` at quiescence, and no live
handle after ``close()``.
"""

from __future__ import annotations

import pytest
from hypothesis import event, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from fake_transport import FakeHandle, FakeTransport
from repro.graph import grid_network
from repro.knn import DijkstraKNN
from repro.mpr import (
    MPRConfig,
    ProcessPoolService,
    QueryResult,
    ReconfigRejected,
    ResilienceConfig,
    ResultStatus,
    check_matrix_invariants,
    run_serial_reference,
)
from repro.mpr.reconfig import _Role
from repro.objects.tasks import DeleteTask, InsertTask, QueryTask

GRID = grid_network(8, 8, seed=1, diagonal_fraction=0.15)
OBJECTS = {i: (i * 7 + 3) % GRID.num_nodes for i in range(12)}
POISON_K = 13  # a query asking for 13 neighbours crashes its batch
POISON_OBJECT = 666  # ... and so does any batch in a cell holding this
SHAPES = [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 1), (1, 1, 2)]

#: Deadlines, breaker backoff and the watchdog all inside a few virtual
#: seconds, so a drain walks through every one of them.
POLICY = ResilienceConfig(
    default_deadline=0.2, hedge=True, breaker_failures=2,
    backoff_base=0.3, backoff_max=2.0, stall_timeout=1.0,
)


class PoisonableKNN(DijkstraKNN):
    def spawn(self, objects):
        return PoisonableKNN(self._network, objects)

    def run_ops(self, ops, op_timings=None):
        if POISON_OBJECT in self.object_locations() or any(
            op[0] == "query" and op[3] == POISON_K for op in ops
        ):
            raise RuntimeError("poison")
        return super().run_ops(ops, op_timings)


class Rig:
    """A pool on a fake transport, the serial oracle beside it, and the
    invariant checks."""

    def __init__(
        self, shape, *, seed=0, resilience=None, batch_size=2, objects=OBJECTS
    ) -> None:
        self.fake = FakeTransport(seed)
        self.initial = dict(objects)
        self.objects = dict(objects)  # the serial state, for valid updates
        self.pool = ProcessPoolService(
            PoisonableKNN(GRID), MPRConfig(*shape), objects,
            batch_size=batch_size, start_method=self.fake,
            resilience=resilience, max_respawns=10**6,
        ).start()
        self.tasks: list = []  # everything submitted, poison excepted
        self.open: dict[int, QueryTask] = {}  # queries since the last drain
        self.poison: set[int] = set()
        self.seen: set[int] = set()  # query ids already answered
        self.faulted: set[tuple[int, int]] = set()  # (layer, column) hit
        self.clock = 0.0
        self.next_query = self.next_object = 0
        self.note = lambda label: None  # the machine points this at event()
        self.hedged: set[int] = set()  # queries the pool re-issued
        dispatch_hedge = self.pool._ledger._dispatch_hedge

        def recording_hedge(query, column, row) -> None:
            self.hedged.add(query.task.query_id)
            dispatch_hedge(query, column, row)

        self.pool._ledger._dispatch_hedge = recording_hedge

    # -- the stream ----------------------------------------------------
    def _submit(self, task) -> None:
        self.clock += 1e-3
        self.pool.submit(task)

    def query(self, location=5, k=3, deadline=None) -> QueryTask:
        task = QueryTask(
            self.clock, self.next_query, location, k, deadline=deadline
        )
        self.next_query += 1
        self.open[task.query_id] = task
        if k == POISON_K:
            self.poison.add(task.query_id)
        else:
            self.tasks.append(task)
        self._submit(task)
        return task

    def insert(self, node=9) -> None:
        object_id = 1000 + self.next_object
        self.next_object += 1
        self.objects[object_id] = node
        task = InsertTask(self.clock, object_id, node)
        self.tasks.append(task)
        self._submit(task)

    def delete(self, object_id) -> None:
        del self.objects[object_id]
        task = DeleteTask(self.clock, object_id)
        self.tasks.append(task)
        self._submit(task)

    # -- the schedule --------------------------------------------------
    def handles(self, role: _Role | None = None) -> list[FakeHandle]:
        return [
            handle for handle in self.fake.handles
            if role is None or handle.owner.fleet.role is role
        ]

    def handle(self, worker_id, role=_Role.SERVING) -> FakeHandle:
        (found,) = [
            h for h in self.handles(role) if h.worker_id == worker_id
        ]
        return found

    def deliver(self, *handles: FakeHandle) -> None:
        """One non-blocking pump step that finds exactly these ready."""
        for handle in handles:
            self.fake.release(handle)
        self.pool._collect_ready()

    def settle(self, *handles: FakeHandle) -> None:
        """Run these w-cores dry and deliver everything they wrote."""
        for handle in handles:
            self.fake.run(handle, None)
            while handle.outbox:
                self.deliver(handle)

    def crash(self, handle: FakeHandle) -> None:
        layer, _row, column = handle.worker_id
        self.faulted.add((layer, column))
        self.fake.kill(handle)

    # -- the invariants ------------------------------------------------
    def check_step(self) -> None:
        for handle in self.fake.handles:
            state = handle.owner
            assert state is not None and not handle.retired
            if handle.alive:
                assert state.handle is handle
                for message in handle.backlog:
                    assert message[0] == "stop" or message[1] in state.unacked

    def drain(self, timeout: float = 120.0) -> dict:
        pool = self.pool
        answers = pool.drain(timeout=timeout)
        # every query resolved exactly once per drain
        assert set(answers) == set(self.open)
        assert not self.seen & set(answers)
        self.seen |= set(answers)
        # nothing left behind
        assert not pool._ledger.queries and not pool._ledger.deadlines and not pool._ledger.shed
        assert not pool._resilience.admission.outstanding
        # answers equal the serial oracle
        oracle = run_serial_reference(DijkstraKNN(GRID), self.initial, self.tasks)
        for query_id, answer in answers.items():
            task = self.open[query_id]
            self.check_shape(query_id, answer)
            if query_id in self.poison:
                assert answer.status is ResultStatus.PARTIAL
            elif answer.status is ResultStatus.PARTIAL:
                self.note("degraded answer")
                assert set(answer.missing_columns) <= self.faulted, (
                    answer.missing_columns, self.faulted
                )
                self.check_consistent(task, list(answer.neighbors))
            elif answer.status is ResultStatus.OVERLOADED:
                self.note("shed answer")
            elif answer != QueryResult.from_answer(query_id, oracle[query_id]):
                assert answer.ok and query_id in self.hedged, (task, answer)
                self.note("hedged answer from a later serial point")
                self.check_consistent(task, list(answer.neighbors))
        self.open.clear()
        self.check_step()
        states = pool._shapes.current.workers.values()
        breakers = pool._resilience.breakers().values()
        if (
            all(s.alive(self.fake) and not s.quarantined for s in states)
            and all(breaker.state == "closed" for breaker in breakers)
            and not any(handle.stalled for handle in self.fake.handles)
        ):
            self.faulted.clear()  # else a column may stay down across drains
            contents = pool.worker_contents()
            check_matrix_invariants(contents, pool.config)
            for layer in range(pool.config.z):
                for row in range(pool.config.y):
                    merged: dict[int, int] = {}
                    for (l, r, _c), cell in contents.items():
                        if (l, r) == (layer, row):
                            merged.update(cell)
                    assert merged == self.objects
            self.note("matrix invariants checked at quiescence")
        return answers

    def check_shape(self, query_id: int, result) -> None:
        """One result shape: whatever happened to the query — answered,
        hedged, replayed, degraded, shed, carried over a cutover — the
        drain names it with exactly one well-formed envelope."""
        assert type(result) is QueryResult and result.query_id == query_id
        assert result.status in (
            ResultStatus.OK, ResultStatus.PARTIAL, ResultStatus.OVERLOADED
        )
        assert bool(result.missing_columns) == (
            result.status is ResultStatus.PARTIAL
        )
        shed = result.status is ResultStatus.OVERLOADED
        bound = self.pool._resilience.config.max_outstanding
        assert (result.outstanding is not None) == shed
        assert result.bound == (bound if shed else None)
        assert not (shed and result.neighbors)
        assert result.retry_after is None and result.detail is None

    def check_consistent(self, task: QueryTask, answer: list) -> None:
        """An answer that is not the oracle's — degraded, or hedged —
        still holds only true neighbours, in canonical order.

        True *when*: at the query's own serial point — unless it was
        hedged.  What the machine found: a hedge is answered from the
        sibling row's *current* cell, so with updates in between it
        reflects a later point of the serial order (per column; the
        columns of one answer may differ).  Then any point since."""
        later = task.query_id in self.hedged
        instance = DijkstraKNN(GRID, self.initial)
        true: set = set()
        for other in self.tasks:
            if isinstance(other, InsertTask):
                instance.insert(other.object_id, other.location)
            elif isinstance(other, DeleteTask):
                instance.delete(other.object_id)
            elif other is not task:
                continue
            if other is task or (later and true):
                true.update(instance.query(task.location, 10**6))
        assert set(answer) <= true and answer == sorted(answer)
        assert len({n.object_id for n in answer}) == len(answer) <= task.k

    def close(self) -> None:
        self.pool.close()
        assert self.fake.closed and not self.fake.handles
        assert self.fake.now() < 1000.0 + 3600.0  # nothing spun on the clock


def warm(rig: Rig) -> None:
    """Run every warming w-core's probe and deliver the acks."""
    rig.settle(*rig.handles(_Role.WARMING))


# ----------------------------------------------------------------------
# One named case per protocol situation
# ----------------------------------------------------------------------
def test_death_with_the_ack_lost_replays_the_batch() -> None:
    rig = Rig((1, 1, 1), batch_size=1)
    rig.query()
    rig.insert()
    rig.pool.flush()  # else the update rides along with the next query
    rig.query()
    (worker,) = rig.handles()
    assert len(worker.inbox) == 3  # sent, none executed
    rig.crash(worker)  # dies holding all three: no ack was ever written
    answers = rig.drain()
    assert len(answers) == 2 and rig.pool.metrics.batches_replayed == 3
    assert rig.pool.metrics.respawns == 1
    rig.close()


def test_death_with_the_ack_surviving_is_deduplicated_after_replay() -> None:
    """The breaker opens on the death, so the batches are quarantined
    with their acks still unread in the pipe; those acks then arrive
    for batches no longer in ``unacked`` (the answers count, the cell
    does not advance); the half-open trial replays all of them and the
    second round of acks is the duplicate — dropped, cell advanced once."""
    policy = ResilienceConfig(
        hedge=False, breaker_failures=1, backoff_base=0.5, stall_timeout=None
    )
    rig = Rig((1, 1, 1), batch_size=1, resilience=policy)
    first = rig.query(location=5)
    rig.insert(node=5)
    rig.pool.flush()  # the update as a message of its own
    (worker,) = rig.handles()
    rig.fake.run(worker, None)  # both executed: both acks are in the pipe
    rig.crash(worker)
    second = rig.query(location=5)  # the send path finds the death
    assert rig.pool.metrics.breaker_opens == 1
    assert rig.pool.metrics.batches_quarantined == 2  # the new one: next sweep
    answers = rig.drain()
    assert answers[first.query_id].status is ResultStatus.OK  # survived
    assert answers[second.query_id].missing_columns == ((0, 0),)  # column down
    assert rig.pool.worker_contents()[(0, 0, 0)] == OBJECTS  # not advanced
    rig.fake.advance(0.6)  # backoff over: the next send is the trial
    third = rig.query(location=5)
    assert rig.pool.metrics.respawns == 1
    assert rig.pool.metrics.batches_replayed == 3
    answers = rig.drain()
    assert answers[third.query_id].neighbors[0].distance == 0.0  # the insert, once
    rig.close()


def test_hedge_answered_by_both_rows_counts_one_duplicate() -> None:
    rig = Rig((1, 2, 1), batch_size=1, resilience=POLICY)
    task = rig.query()
    (slow,) = [h for h in rig.handles() if h.inbox]
    (other,) = [h for h in rig.handles() if h is not slow]
    rig.fake.advance(0.3)  # past the 0.2 s deadline: hedge to the other row
    rig.query()  # any pool call notices; this one is routed to `other`
    rig.pool._ledger.enforce_deadlines(rig.fake.now())
    assert rig.pool.metrics.hedges == 1
    rig.settle(other)
    rig.settle(slow)  # the original answers too, late
    assert rig.pool.metrics.duplicate_acks == 1
    answers = rig.drain()
    assert task.query_id in answers
    rig.close()


def test_poison_batch_is_quarantined_and_its_query_degrades() -> None:
    rig = Rig((2, 1, 1), batch_size=1, resilience=POLICY)
    before = rig.query()
    poison = rig.query(k=POISON_K)
    after = rig.query()
    answers = rig.drain()
    assert rig.pool.metrics.batches_quarantined == 2  # one per column
    assert sorted(answers[poison.query_id].missing_columns) == [(0, 0), (0, 1)]
    for task in (before, after):
        assert answers[task.query_id].status is ResultStatus.OK
    rig.close()


def test_shed_query_drains_as_overloaded_with_backlog_and_bound() -> None:
    """The ledger names the outcome where it is decided: a query routed
    at a backlog at the bound is refused at submit and drains as the
    ``OVERLOADED`` envelope carrying both numbers — beside, and in the
    same shape as, the ``OK`` answers of the queries that were admitted."""
    policy = ResilienceConfig(max_outstanding=2, hedge=False, stall_timeout=None)
    rig = Rig((1, 1, 1), batch_size=1, resilience=policy)
    admitted = [rig.query(location=i) for i in range(2)]  # loads 0 and 1
    shed = rig.query(location=2)  # finds a backlog of 2: at the bound
    assert rig.pool.metrics.shed == 1
    answers = rig.drain()
    assert answers[shed.query_id] == QueryResult(
        shed.query_id, ResultStatus.OVERLOADED, outstanding=2, bound=2
    )
    assert all(answers[task.query_id].ok for task in admitted)
    readmitted = rig.query(location=2)  # the backlog drained with the acks
    assert rig.drain()[readmitted.query_id].ok and rig.pool.metrics.shed == 1
    rig.close()


def test_breaker_opens_half_opens_and_closes_on_virtual_time() -> None:
    policy = ResilienceConfig(
        hedge=False, breaker_failures=1, backoff_base=0.5, stall_timeout=None
    )
    rig = Rig((1, 1, 1), batch_size=1, resilience=policy)
    (worker,) = rig.handles()
    rig.crash(worker)
    task = rig.query()
    breaker = rig.pool._resilience.breaker((0, 0, 0))
    assert breaker.state == "open" and rig.pool.metrics.respawns == 0
    rig.pool._check_health(rig.fake.now())
    assert breaker.state == "open"  # backoff not yet elapsed: no respawn
    rig.fake.advance(0.6)
    rig.pool._check_health(rig.fake.now())
    assert breaker.state == "half_open" and rig.pool.metrics.respawns == 1
    answers = rig.drain()
    assert breaker.state == "closed"
    assert answers[task.query_id].status is ResultStatus.OK
    rig.close()


def test_stalled_worker_is_killed_by_the_watchdog_and_replayed() -> None:
    rig = Rig((1, 1, 1), batch_size=1, resilience=POLICY)
    (worker,) = rig.handles()
    rig.fake.stall(worker)
    task = rig.query(deadline=100.0)
    answers = rig.drain()
    assert rig.pool.metrics.stall_kills == 1 and rig.pool.metrics.respawns == 1
    assert answers[task.query_id].status is ResultStatus.OK
    rig.close()


def test_warm_timeout_rolls_back_and_keeps_serving() -> None:
    rig = Rig((2, 1, 1))
    task = rig.query()
    for handle in rig.handles():
        rig.fake.stall(handle)  # nobody acks a probe... or anything
    change = rig.pool.begin_reconfigure(MPRConfig(1, 2, 1), warm_timeout=1.0)
    for handle in rig.handles(_Role.WARMING):
        rig.fake.stall(handle)
    rig.fake.advance(1.5)
    rig.insert()
    assert change.outcome == "rolled_back" and "timed out" in change.reason
    assert rig.pool.config == MPRConfig(2, 1, 1)
    for handle in rig.handles():
        rig.fake.resume(handle)
    assert task.query_id in rig.drain()
    rig.close()


def test_warming_worker_death_rolls_back() -> None:
    rig = Rig((2, 1, 1))
    change = rig.pool.begin_reconfigure(MPRConfig(1, 2, 1))
    rig.fake.kill(rig.handles(_Role.WARMING)[0])
    task = rig.query()
    assert change.outcome == "rolled_back" and "died while warming" in change.reason
    assert not rig.handles(_Role.WARMING)
    assert task.query_id in rig.drain()
    rig.close()


def test_cutover_with_queries_in_flight_answers_them_from_the_old_shape() -> None:
    rig = Rig((2, 1, 1), batch_size=1)
    early = [rig.query(location=i) for i in range(4)]
    change = rig.pool.begin_reconfigure(MPRConfig(1, 2, 1))
    rig.insert(node=0)  # dual-fed to the warming cells
    warm(rig)
    late = rig.query(location=0)  # triggers the cutover; routed by the new shape
    assert change.outcome == "completed" and change.inflight_at_cutover == 9
    assert change.catchup_ops == 1 and rig.pool.generation == 1
    answers = rig.drain()
    assert answers[late.query_id].neighbors[0].distance == 0.0
    assert all(task.query_id in answers for task in early)
    rig.close()


def test_retiring_worker_dying_while_it_owes_answers_is_respawned() -> None:
    rig = Rig((1, 1, 1), batch_size=1, resilience=POLICY)
    owed = rig.query(deadline=100.0)
    rig.pool.begin_reconfigure(MPRConfig(1, 2, 1))
    warm(rig)
    rig.insert()  # cutover
    (retiring,) = rig.handles(_Role.RETIRING)
    assert retiring.owner.unacked
    rig.crash(retiring)
    answers = rig.drain()
    assert answers[owed.query_id].status is ResultStatus.OK
    assert rig.pool.metrics.respawns == 1
    assert not rig.pool._resilience.breakers()  # breaker-free by design
    rig.close()


@pytest.mark.parametrize("step", range(9))
def test_begin_reconfigure_at_every_step_of_a_short_stream(step) -> None:
    rig = Rig((2, 1, 1), seed=step)
    stream = [
        lambda: rig.query(location=1), rig.insert, lambda: rig.query(location=2),
        lambda: rig.delete(3), rig.pool.flush, lambda: rig.query(location=9),
        rig.insert, lambda: rig.query(location=4),
    ]
    for index, action in enumerate([*stream, lambda: None]):
        if index == step:
            rig.pool.begin_reconfigure(MPRConfig(1, 2, 1))
        action()
    rig.drain()
    assert rig.pool.config == MPRConfig(1, 2, 1)
    rig.query(location=7)
    rig.drain()
    rig.close()


# ----------------------------------------------------------------------
# The four bugs the last PRs found by accident, pinned on purpose
# ----------------------------------------------------------------------
def test_poison_from_retiring_worker_leaves_new_shape_admission_alone() -> None:
    """PR 16.  After a cutover the admission ledger is keyed by the
    *new* shape's workers; a poison report from a retiring worker with
    the same id must not release load the new worker still carries."""
    rig = Rig((2, 1, 1), batch_size=1, resilience=POLICY)
    poison = rig.query(k=POISON_K, deadline=100.0)  # in both old inboxes
    rig.pool.begin_reconfigure(MPRConfig(1, 2, 1))
    warm(rig)
    carried = [rig.query(deadline=100.0) for _ in range(4)]  # first: cutover
    admission = rig.pool._resilience.admission
    load = {worker: admission.load(worker) for worker in rig.pool._shapes.current.workers}
    assert load[(0, 0, 0)] == 2  # ... carried by the new shape's (0, 0, 0)
    retiring = rig.handle((0, 0, 0), _Role.RETIRING)
    rig.settle(retiring)  # executes the poison, reports, is handled
    assert 0 in retiring.owner.poisoned and not retiring.owner.unacked
    assert rig.pool.metrics.batches_quarantined == 1
    assert {w: admission.load(w) for w in load} == load
    answers = rig.drain()
    assert answers[poison.query_id].status is ResultStatus.PARTIAL
    assert all(t.query_id in answers for t in carried)
    rig.close()


def test_poison_report_and_sibling_ack_in_one_pump_step() -> None:
    """PR 19.  One pump step finds column 0's error report *and* column
    1's ack ready.  Handling the report respawns the worker, which
    collects the dead worker's residue — only its own: were that a full
    pump, it would consume the sibling's ack from under the step that
    found it ready (a real ``recv`` then blocks; the fake asserts)."""
    objects = {**OBJECTS, POISON_OBJECT: 1, POISON_OBJECT + 1: 2}
    rig = Rig(
        (2, 1, 1), batch_size=4, objects=objects,
        resilience=ResilienceConfig(hedge=False),
    )
    poisoned, sibling = rig.handle((0, 0, 0)), rig.handle((0, 0, 1))
    assert POISON_OBJECT in rig.pool.worker_contents()[(0, 0, 0)]
    task = rig.query(location=3, k=4)
    rig.pool.flush()
    rig.fake.run(poisoned)
    rig.fake.run(sibling)
    rig.deliver(poisoned, sibling)  # both ready in one step, poison first
    assert rig.pool.metrics.batches_quarantined == 1
    assert sibling.owner.unacked == {}  # its ack was handled, by that step
    answers = rig.pool.drain(timeout=60.0)
    # PARTIAL names exactly the dead cell and carries the survivor's
    # canonical top-k: what column 1's cell alone would answer.
    survivor = DijkstraKNN(GRID, rig.pool.worker_contents()[(0, 0, 1)])
    assert answers[task.query_id] == QueryResult(
        task.query_id, ResultStatus.PARTIAL,
        tuple(survivor.query(3, 4)), ((0, 0),),
    )
    rig.close()


def test_drained_retiring_fleet_does_not_reject_the_next_transition() -> None:
    """PR 19 review.  Retirement only progresses from submit and drain;
    a second ``begin_reconfigure`` right after the first cutover must
    stop and reap the fleet that owes nothing instead of refusing."""
    rig = Rig((1, 1, 1))
    rig.pool.begin_reconfigure(MPRConfig(1, 2, 1))
    warm(rig)
    rig.query()  # cutover
    rig.drain()
    third = rig.pool.begin_reconfigure(MPRConfig(2, 1, 1))  # not rejected
    assert third.outcome == "pending" and not rig.handles(_Role.RETIRING)
    rig.query()
    rig.drain()
    rig.close()


def test_retiring_fleet_that_still_owes_answers_rejects_the_next_transition() -> None:
    rig = Rig((1, 1, 1), batch_size=1)
    rig.query()
    rig.pool.begin_reconfigure(MPRConfig(1, 2, 1))
    warm(rig)
    rig.insert()  # cutover; the old worker still owes the query
    with pytest.raises(ReconfigRejected, match="still retiring"):
        rig.pool.begin_reconfigure(MPRConfig(2, 1, 1))
    rig.drain()
    rig.close()


def test_clogged_inbox_on_a_dying_worker_replays_exactly_its_unacked_suffix() -> None:
    """PR 20.  What a clogged inbox kept parent-side is a suffix of
    ``unacked``; when the worker dies it is dropped with the pipe and
    the respawn replays ``unacked`` — no more, no less."""
    rig = Rig((1, 1, 1), batch_size=1)
    (worker,) = rig.handles()
    rig.query()
    rig.fake.clog(worker)
    rig.query()
    rig.insert()
    rig.pool.flush()  # the update as a message of its own
    assert [m[1] for m in worker.backlog] == [1, 2]
    rig.check_step()
    rig.settle(worker)  # seq 0 executed and acked; 1 and 2 still clogged
    assert sorted(worker.owner.unacked) == [1, 2]
    rig.crash(worker)
    rig.query()  # the send path finds the death, respawns, replays
    (respawned,) = rig.handles()
    assert [m[1] for m in respawned.inbox] == [1, 2, 3]
    assert rig.pool.metrics.batches_replayed == 2
    assert len(rig.drain()) == 3
    rig.close()


# ----------------------------------------------------------------------
# What the machine found
# ----------------------------------------------------------------------
def test_cutover_does_not_replay_past_a_quarantined_hole() -> None:
    """A breaker-open worker holds a quarantined delete and, behind it,
    an unacked query.  The cutover used to drop the quarantined batches
    only, and the retiring respawn then replayed the query alone —
    against a cell the delete never reached: an exact-looking answer no
    serial order produces.  Now the whole log dies with the shape and
    the query degrades, naming its column."""
    rig = Rig((1, 1, 1), batch_size=1, resilience=POLICY)
    rig.crash(rig.handles()[0])
    rig.query()  # the send path finds the death: first failure, respawn
    rig.crash(rig.handles()[0])
    rig.drain()  # second failure: the breaker opens, the query degrades
    gone = 2
    rig.delete(gone)
    rig.pool.flush()  # its own message: unacked on the dead worker ...
    stale = rig.query(location=OBJECTS[gone], k=1)  # ... quarantined by this send
    (state,) = rig.pool._shapes.current.workers.values()
    assert list(state.quarantined) == [0, 1] and list(state.unacked) == [2]
    rig.pool.begin_reconfigure(MPRConfig(2, 1, 1))
    answers = rig.drain()  # warms, cuts over, settles the old shape
    assert rig.pool.config == MPRConfig(2, 1, 1)
    assert answers[stale.query_id].missing_columns == ((0, 0),)
    fresh = rig.query(location=OBJECTS[gone], k=1)
    assert rig.drain()[fresh.query_id].neighbors[0].object_id != gone
    rig.close()


# ----------------------------------------------------------------------
# The stateful machine: every interleaving hypothesis can draw
# ----------------------------------------------------------------------
class PoolProtocol(RuleBasedStateMachine):
    rig: Rig | None = None

    @initialize(
        seed=st.integers(0, 2**16),
        shape=st.sampled_from(SHAPES),
        resilient=st.booleans(),
        batch_size=st.sampled_from([1, 2, 4]),
    )
    def build(self, seed, shape, resilient, batch_size) -> None:
        self.resilient = resilient
        self.rig = Rig(
            shape, seed=seed, batch_size=batch_size,
            resilience=POLICY if resilient else None,
        )
        self.rig.note = event

    def pick(self, index: int, role: _Role | None = None) -> FakeHandle | None:
        handles = self.rig.handles(role)
        return handles[index % len(handles)] if handles else None

    @rule(location=st.integers(0, GRID.num_nodes - 1), k=st.integers(1, 5))
    def submit_query(self, location, k) -> None:
        self.rig.query(location, k)

    @rule(node=st.integers(0, GRID.num_nodes - 1))
    def submit_insert(self, node) -> None:
        self.rig.insert(node)

    @rule(index=st.integers(0, 1000))
    def submit_delete(self, index) -> None:
        live = sorted(self.rig.objects)
        if len(live) > 2:
            self.rig.delete(live[index % len(live)])

    @rule()
    def flush(self) -> None:
        self.rig.pool.flush()

    @rule()
    def drain(self) -> None:
        self.rig.drain()

    @rule(index=st.integers(0, 1000), count=st.integers(1, 4))
    def run_worker(self, index, count) -> None:
        handle = self.pick(index)
        if handle is not None:
            self.rig.fake.run(handle, count)

    @rule(index=st.integers(0, 1000))
    def deliver_one(self, index) -> None:
        ready = self.rig.fake._ready()
        if ready:
            self.rig.deliver(ready[index % len(ready)])

    @rule(index=st.integers(0, 1000), after_ack=st.booleans())
    def kill_worker(self, index, after_ack) -> None:
        handle = self.pick(index)
        if handle is None or not handle.alive:
            return
        if after_ack:
            self.rig.fake.run(handle, None)
        event(
            f"death of a {handle.owner.fleet.role.value} worker, "
            + ("acks surviving" if handle.outbox else "nothing written")
            + (", batches lost" if handle.inbox or handle.backlog else "")
        )
        self.rig.crash(handle)

    @precondition(lambda self: self.resilient)
    @rule(index=st.integers(0, 1000))
    def stall(self, index) -> None:
        handle = self.pick(index)
        if handle is not None:
            layer, _row, column = handle.worker_id
            self.rig.faulted.add((layer, column))  # the watchdog will kill it
            self.rig.fake.stall(handle)

    @rule(index=st.integers(0, 1000))
    def resume(self, index) -> None:
        handle = self.pick(index)
        if handle is not None:
            self.rig.fake.resume(handle)

    @precondition(lambda self: self.resilient)
    @rule()
    def poison(self) -> None:
        self.rig.pool.flush()  # alone in its batch: no update dies with it
        self.rig.query(k=POISON_K)
        self.rig.pool.flush()
        # Every cell it reaches exits; when the send path notices an
        # exit before the report is read, that feeds the cell's breaker
        # — enough of them and the column is down for its neighbours.
        for layer, _row, column in self.rig.pool.worker_contents():
            self.rig.faulted.add((layer, column))

    @rule(index=st.integers(0, 1000))
    def clog(self, index) -> None:
        handle = self.pick(index)
        if handle is not None:
            self.rig.fake.clog(handle)

    @rule(seconds=st.sampled_from([0.01, 0.25, 1.5, 6.0]))
    def advance_time(self, seconds) -> None:
        self.rig.fake.advance(seconds)

    @rule(
        shape=st.sampled_from(SHAPES),
        warm_timeout=st.sampled_from([0.0, 5.0]),
        retire_timeout=st.sampled_from([0.0, 5.0]),
    )
    def begin_reconfigure(self, shape, warm_timeout, retire_timeout) -> None:
        try:
            self.rig.pool.begin_reconfigure(
                MPRConfig(*shape),
                warm_timeout=warm_timeout, retire_timeout=retire_timeout,
            )
        except ReconfigRejected as rejected:
            event(f"rejected: {rejected}")

    @rule(index=st.integers(0, 1000))
    def kill_warming_worker(self, index) -> None:
        handle = self.pick(index, _Role.WARMING)
        if handle is not None:
            self.rig.crash(handle)

    @invariant()
    def backlog_within_unacked(self) -> None:
        if self.rig is not None:
            self.rig.check_step()

    def teardown(self) -> None:
        if self.rig is not None:
            for change in self.rig.pool.reconfig_history:
                event(f"reconfigure {change.outcome}")
            metrics = self.rig.pool.metrics
            for name in ("hedges", "duplicate_acks", "stall_kills",
                         "breaker_opens", "batches_quarantined"):
                if getattr(metrics, name):
                    event(name)
            self.rig.drain()
            self.rig.close()


TestPoolProtocol = PoolProtocol.TestCase
TestPoolProtocol.settings = settings(
    max_examples=2 * settings.default.max_examples,  # see tests/conftest.py
    stateful_step_count=50,
    deadline=None,
)
