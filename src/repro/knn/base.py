"""The single-threaded kNN solution interface of the paper.

Section IV-A: "We assume that a kNN solution A provides three
interfaces, namely, A.Q(l, k) (query the k closest objects from location
l), A.I(o, l) (insert object o at location l), and A.D(o) (delete object
o)."  Every solution in this package — the paper's three, Dijkstra,
V-tree and TOAIN — implements exactly that interface
(:class:`KNNSolution`), which is all the MPR machinery ever calls — the
"extremely lightweight wrapper" the paper advertises.  Only
:class:`~repro.knn.dijkstra_knn.DijkstraKNN` overrides the batched
entry points (:meth:`KNNSolution.query_batch`,
:meth:`KNNSolution.run_ops`); V-tree and TOAIN inherit the defaults,
which answer one query at a time.

Additionally, MPR partitions the *object set* across worker cores while
sharing the road-network index (end of Section III).  :meth:`spawn`
realizes this: it creates a sibling instance over the same immutable
network-side index but holding only a given subset of objects.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from functools import partial
from typing import Iterable, Mapping, NamedTuple, Sequence


class Neighbor(NamedTuple):
    """One kNN answer entry: the pair ``(distance, object_id)``, equal to
    that plain pair.

    Ordering is ``(distance, object_id)`` so result lists are canonical
    and ties are broken deterministically, which lets tests compare
    answers across solutions and schemes bit-for-bit.  Being a tuple,
    a list of them sorts by C tuple comparison, it pickles and hashes
    as its fields do, and JSON encodes it as ``[distance, object_id]``.
    It also *equals* its plain pair: ``Neighbor(1.0, 7) == (1.0, 7)``.
    """

    distance: float
    object_id: int


#: ``Neighbor`` of one ``(distance, object_id)`` pair, built in C
#: (``Neighbor._make`` checks the length in Python first).
_neighbor = partial(tuple.__new__, Neighbor)


def _pairs(neighbors: Sequence[Neighbor]) -> list[tuple[float, int]]:
    """``neighbors`` as the plain ``(distance, object_id)`` tuples acks
    carry (a pickled ``Neighbor`` would name its class)."""
    return list(map(tuple, neighbors))


def _neighbors(pairs: Iterable[tuple[float, int]]) -> list[Neighbor]:
    """The :class:`Neighbor` list of ``(distance, object_id)`` pairs."""
    return list(map(_neighbor, pairs))


def canonical_knn(candidates: Mapping[int, float] | Sequence[Neighbor], k: int) -> list[Neighbor]:
    """Best ``k`` of a candidate pool in canonical order.

    ``k`` may exceed the pool (the whole pool is returned, sorted) but
    must be non-negative: a negative ``k`` would silently slice from
    the *end* of the pool and return the worst candidates.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if isinstance(candidates, Mapping):
        pool = [Neighbor(distance, object_id) for object_id, distance in candidates.items()]
    else:
        pool = list(candidates)
    pool.sort()
    return pool[:k]


def merge_partial_results(
    partials: Sequence[Sequence[tuple[float, int]]], k: int
) -> list[Neighbor]:
    """Aggregate per-partition kNN answers into the global top-k.

    This is the a-core's merge (Algorithm 3): each worker of a row
    returns at most ``k`` ``(distance, object_id)`` pairs over its
    partition — the shape :meth:`KNNSolution.run_ops` acks carry —
    and their union contains the true top-k because partitions cover
    ``M`` disjointly.  Pairs rank as plain tuples, in the order
    :class:`Neighbor` defines; only the ``k`` kept become
    :class:`Neighbor` tuples.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    best: dict[int, float] = {}
    for partial in partials:
        for distance, object_id in partial:
            prior = best.get(object_id)
            if prior is None or distance < prior:
                best[object_id] = distance
    ranked = sorted(zip(best.values(), best.keys()))
    return _neighbors(ranked[:k])


class KNNSolution(ABC):
    """Abstract single-threaded kNN solution over a fixed road network."""

    #: Short display name ("Dijkstra", "V-tree", "TOAIN", ...)
    name: str = "abstract"

    # -- the paper's three interfaces ----------------------------------
    @abstractmethod
    def query(self, location: int, k: int) -> list[Neighbor]:
        """Return the ``k`` nearest objects to ``location`` canonically."""

    @abstractmethod
    def insert(self, object_id: int, location: int) -> None:
        """Insert ``object_id`` at node ``location``."""

    @abstractmethod
    def delete(self, object_id: int) -> None:
        """Delete ``object_id``."""

    # -- MPR integration ------------------------------------------------
    @abstractmethod
    def spawn(self, objects: Mapping[int, int]) -> "KNNSolution":
        """A sibling instance holding ``objects``, sharing the network index.

        Workers of an MPR core matrix each call this once with their
        partition ``M[i][j]``; the expensive network-side structures
        (partition tree, contraction hierarchy) are shared, mirroring the
        paper's shared road-network index.
        """

    @abstractmethod
    def object_locations(self) -> dict[int, int]:
        """Current ``object -> node`` contents (diagnostics and tests)."""

    # -- batched queries ------------------------------------------------
    def query_batch(
        self, locations: Sequence[int], ks: Sequence[int]
    ) -> list[list[Neighbor]]:
        """Answer many queries at once; results align with the inputs.

        Semantically exactly ``[self.query(l, k) for l, k in zip(...)]``
        — the batch sees one consistent object snapshot (queries never
        mutate state, so batching any run of consecutive queries is
        equivalence-preserving), answers are canonical, and result
        ``i`` belongs to ``locations[i]`` regardless of any internal
        reordering.  This default *is* that loop; a solution with a
        vectorized substrate overrides it to answer the whole batch in
        shared kernel sweeps (:class:`~repro.knn.dijkstra_knn.
        DijkstraKNN`), and :meth:`run_ops` hands it whole query runs.
        """
        return [
            self.query(location, k)
            for location, k in zip(locations, ks, strict=True)
        ]

    # -- op batches -------------------------------------------------------
    def run_ops(
        self, ops: Sequence[tuple], op_timings: list[tuple] | None = None
    ) -> list[tuple[int, list[tuple[float, int]]]]:
        """Execute one FCFS batch of worker ops; return the query partials.

        ``ops`` is a w-core's slice of the task stream in arrival
        order, in the executors' wire encoding: ``("query", query_id,
        location, k)``, ``("insert", object_id, location)`` or
        ``("delete", object_id)``.  The result is one ``(query_id,
        answer)`` pair per query, in op order, where ``answer`` is the
        canonical top-k as plain ``(distance, object_id)`` tuples — the
        partial a w-core's ack carries, cheap to pickle, and what
        :func:`merge_partial_results` ranks.  The contract is serial
        equivalence: answers and final state are exactly those of
        calling :meth:`query`/:meth:`insert`/:meth:`delete` once per
        op, in order (each :class:`Neighbor` as its pair).  An op that
        raises leaves every earlier op applied and no later one.

        This default groups maximal runs of back-to-back queries into
        one :meth:`query_batch` call — queries never mutate state, so a
        run shares one object snapshot — while updates and singleton
        queries take the per-op path.  Solutions whose search does not
        depend on the object set can share work *across* updates too
        (:class:`~repro.knn.dijkstra_knn.DijkstraKNN` answers the whole
        batch in one kernel sweep).

        When ``op_timings`` is a list, ``time.monotonic`` stamps are
        appended for the executor's telemetry: ``("q", query_id, t0,
        t1)`` for a query answered alone, ``("qb", (query_ids...), t0,
        t1)`` for queries answered together, ``("u", t0, t1)`` per
        update.  ``None`` skips every clock read.
        """
        monotonic = time.monotonic
        partials: list[tuple[int, list[tuple[float, int]]]] = []
        index = 0
        total = len(ops)
        while index < total:
            op = ops[index]
            if op[0] != "query":
                self._apply_update(op, op_timings)
                index += 1
                continue
            end = index + 1
            while end < total and ops[end][0] == "query":
                end += 1
            run = ops[index:end]
            started = monotonic() if op_timings is not None else 0.0
            if len(run) == 1:
                _, query_id, location, k = run[0]
                partials.append((query_id, _pairs(self.query(location, k))))
                if op_timings is not None:
                    op_timings.append(("q", query_id, started, monotonic()))
            else:
                answers = self.query_batch(
                    [op[2] for op in run], [op[3] for op in run]
                )
                for op, answer in zip(run, answers):
                    partials.append((op[1], _pairs(answer)))
                if op_timings is not None:
                    op_timings.append(
                        ("qb", tuple(op[1] for op in run), started, monotonic())
                    )
            index = end
        return partials

    def _apply_update(self, op: tuple, op_timings: list[tuple] | None) -> None:
        """Apply one insert/delete op of :meth:`run_ops`, stamping it."""
        started = time.monotonic() if op_timings is not None else 0.0
        if op[0] == "insert":
            self.insert(op[1], op[2])
        else:
            self.delete(op[1])
        if op_timings is not None:
            op_timings.append(("u", started, time.monotonic()))

    # -- paper-style aliases --------------------------------------------
    def Q(self, l: int, k: int) -> list[Neighbor]:  # noqa: N802 - paper naming
        return self.query(l, k)

    def I(self, o: int, l: int) -> None:  # noqa: N802, E743 - paper naming
        self.insert(o, l)

    def D(self, o: int) -> None:  # noqa: N802 - paper naming
        self.delete(o)

    def __len__(self) -> int:
        return len(self.object_locations())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(objects={len(self)})"
