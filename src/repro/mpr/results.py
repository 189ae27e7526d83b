"""The typed query-result envelope shared by library and wire protocol.

Every query outcome is a :class:`QueryResult` with an explicit
:class:`ResultStatus`, and it is named once, where it is decided: the
pool's query ledger builds ``OK`` / ``PARTIAL`` / ``OVERLOADED``
(:meth:`repro.mpr.process_executor.ProcessPoolService.drain`), the
completion pump adds ``TIMEOUT`` / ``ERROR`` for the drains that raised
(:meth:`repro.mpr.api.MPRSystem.submit_async`).  The ``repro.serve``
wire protocol carries the same envelope: :meth:`QueryResult.to_wire` is
the payload a server frame carries, and ``from_wire(to_wire(r)) == r``
round-trips byte-for-byte under the protocol's canonical JSON encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping, Sequence

from ..knn.base import Neighbor

__all__ = ["QueryResult", "ResultStatus"]


class ResultStatus(Enum):
    """Why a query finished the way it did (wire values are the enum
    values, stable by contract — see docs/API.md "Serving").

    * ``OK`` — complete top-k over every partition column.
    * ``PARTIAL`` — degraded: every replica of some partition columns
      was down (crash loop, breaker open), so instead of blocking
      forever the pool answered with the top-k over the *surviving*
      columns only; ``missing_columns`` names the dead ``(layer,
      column)`` cells.  Not retryable through the same replica set, but
      still a usable (lower-bound) answer.
    * ``OVERLOADED`` — shed by admission control before execution;
      retryable after ``retry_after`` seconds.
    * ``TIMEOUT`` — the query was in flight when its drain deadline
      expired (or the server shut down around it); the executor never
      produced an answer.  Queries are read-only, so retrying is safe.
    * ``ERROR`` — the executor failed irrecoverably underneath the
      query (e.g. a poison task exhausting every replica).
    """

    OK = "ok"
    PARTIAL = "partial"
    OVERLOADED = "overloaded"
    TIMEOUT = "timeout"
    ERROR = "error"


#: Statuses a client may retry verbatim (queries never mutate state).
RETRYABLE_STATUSES = (ResultStatus.OVERLOADED, ResultStatus.TIMEOUT)


@dataclass(frozen=True)
class QueryResult:
    """One query's outcome: status, neighbors, and failure context.

    ``neighbors`` is the (possibly partial, possibly empty) canonical
    top-k.  ``missing_columns`` is non-empty exactly for ``PARTIAL``;
    ``outstanding``/``bound`` carry the admission verdict for
    ``OVERLOADED`` — the backlog of the most loaded target worker at
    the moment the query was refused, and the configured
    :attr:`~repro.mpr.resilience.ResilienceConfig.max_outstanding`;
    ``retry_after`` is the backoff hint a server attaches to retryable
    statuses; ``detail`` is a human-readable failure note for
    ``TIMEOUT``/``ERROR``.
    """

    query_id: int
    status: ResultStatus
    neighbors: tuple[Neighbor, ...] = ()
    missing_columns: tuple[tuple[int, int], ...] = ()
    outstanding: int | None = None
    bound: int | None = None
    retry_after: float | None = None
    detail: str | None = field(default=None, compare=False)

    @property
    def ok(self) -> bool:
        return self.status is ResultStatus.OK

    @property
    def retryable(self) -> bool:
        """Whether resubmitting the same query verbatim is sensible."""
        return self.status in RETRYABLE_STATUSES

    def with_retry_after(self, retry_after: float | None) -> "QueryResult":
        """A copy carrying a server-side backoff hint (no-op if None)."""
        if retry_after is None:
            return self
        return QueryResult(
            self.query_id, self.status, self.neighbors,
            self.missing_columns, self.outstanding, self.bound,
            retry_after, self.detail,
        )

    @classmethod
    def from_answer(
        cls, query_id: int, neighbors: Sequence[Neighbor]
    ) -> "QueryResult":
        """The ``OK`` envelope of a complete canonical top-k."""
        return cls(query_id, ResultStatus.OK, tuple(neighbors))

    @classmethod
    def timed_out(cls, query_id: int, detail: str) -> "QueryResult":
        return cls(query_id, ResultStatus.TIMEOUT, detail=detail)

    @classmethod
    def failed(cls, query_id: int, detail: str) -> "QueryResult":
        return cls(query_id, ResultStatus.ERROR, detail=detail)

    # ------------------------------------------------------------------
    # Wire form (shared verbatim with repro.serve.protocol)
    # ------------------------------------------------------------------
    def to_wire(self) -> dict[str, Any]:
        """The JSON-ready dict a protocol frame carries.

        Optional fields are omitted when absent so the canonical
        encoding stays minimal and stable; neighbors travel as
        ``[distance, object_id]`` pairs.
        """
        payload: dict[str, Any] = {
            "query_id": self.query_id,
            "status": self.status.value,
            "neighbors": [
                [neighbor.distance, neighbor.object_id]
                for neighbor in self.neighbors
            ],
        }
        if self.missing_columns:
            payload["missing_columns"] = [
                list(column) for column in self.missing_columns
            ]
        if self.outstanding is not None:
            payload["outstanding"] = self.outstanding
        if self.bound is not None:
            payload["bound"] = self.bound
        if self.retry_after is not None:
            payload["retry_after"] = self.retry_after
        if self.detail is not None:
            payload["detail"] = self.detail
        return payload

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "QueryResult":
        """Inverse of :meth:`to_wire`.

        The payload is outside input: anything malformed — not a
        mapping, a missing key, an unknown status, a neighbour or
        column that is not a pair, a non-numeric ``outstanding`` /
        ``bound`` / ``retry_after``, a non-string ``detail`` — raises
        ``ValueError``, which both ends map to a protocol error.
        Optional fields are checked, not coerced, so the round trip
        stays byte-identical.
        """
        try:
            outstanding = payload.get("outstanding")
            bound = payload.get("bound")
            retry_after = payload.get("retry_after")
            detail = payload.get("detail")
            for count in (outstanding, bound):
                if count is not None and type(count) is not int:
                    raise ValueError(f"not an integer: {count!r}")
            if retry_after is not None and type(retry_after) not in (int, float):
                raise ValueError(f"retry_after is not a number: {retry_after!r}")
            if detail is not None and not isinstance(detail, str):
                raise ValueError(f"detail is not a string: {detail!r}")
            return cls(
                query_id=int(payload["query_id"]),
                status=ResultStatus(payload["status"]),
                neighbors=tuple(
                    Neighbor(float(distance), int(object_id))
                    for distance, object_id in payload.get("neighbors", ())
                ),
                missing_columns=tuple(
                    (int(layer), int(column))
                    for layer, column in payload.get("missing_columns", ())
                ),
                outstanding=outstanding,
                bound=bound,
                retry_after=retry_after,
                detail=detail,
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"malformed result payload: {exc!r}"
            ) from exc
