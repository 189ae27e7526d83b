"""Per-tenant weighted fair queueing for the serving tier.

Start-time fair queueing (SFQ): each tenant accrues *virtual time* in
proportion to ``cost / weight`` for the work it submits, and the
scheduler always releases the pending item with the smallest virtual
start tag.  A tenant flooding the server only advances its *own*
virtual clock — its backlog queues behind its inflated tags while
light tenants' items, tagged near the global virtual time, keep
jumping ahead.  Over any busy interval, tenant throughput converges to
the weight ratio regardless of arrival order, which is exactly the
"one heavy tenant cannot starve others' SLOs" property the serve tier
promises.

SFQ over the textbook WFQ because it needs no link-rate model: tags
derive only from weights and completions, so it drops straight onto a
queue drained by an executor whose service rate varies with batch
shape and load.  O(log n) push/pop; deterministic FIFO tie-break
within a tenant.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Iterator

__all__ = ["WeightedFairQueue"]

DEFAULT_WEIGHT = 1.0


class WeightedFairQueue:
    """A min-heap of pending items ordered by virtual start tag.

    Not thread-safe by design: the server drives it from one event
    loop.  ``push`` tags the item ``max(global_vtime, tenant_finish)``
    and advances the tenant's finish tag by ``cost / weight``; ``pop``
    releases the smallest tag and advances global virtual time to it.
    Weights are sticky per tenant (set on first sight, updatable via
    :meth:`set_weight`).
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, str, Any]] = []
        self._virtual_time = 0.0
        self._tenant_finish: dict[str, float] = {}
        self._weights: dict[str, float] = {}
        self._pending: dict[str, int] = {}
        self._sequence = 0

    def set_weight(self, tenant: str, weight: float) -> None:
        """A finite positive weight: ``inf`` would freeze the tenant's
        finish tag (``cost / inf = 0``) and ``nan`` poison every tag
        comparison and the virtual clock."""
        if not (math.isfinite(weight) and weight > 0):
            raise ValueError(
                f"tenant weight must be finite and positive, got {weight}"
            )
        self._weights[tenant] = float(weight)

    def weight(self, tenant: str) -> float:
        return self._weights.get(tenant, DEFAULT_WEIGHT)

    def push(
        self,
        tenant: str,
        item: Any,
        *,
        cost: float = 1.0,
        weight: float | None = None,
    ) -> None:
        """Enqueue ``item`` for ``tenant`` at ``cost`` virtual units."""
        if weight is not None:
            self.set_weight(tenant, weight)
        start = max(
            self._virtual_time,
            self._tenant_finish.get(tenant, self._virtual_time),
        )
        self._tenant_finish[tenant] = start + cost / self.weight(tenant)
        heapq.heappush(self._heap, (start, self._sequence, tenant, item))
        self._sequence += 1
        self._pending[tenant] = self._pending.get(tenant, 0) + 1

    def pop(self) -> tuple[str, Any]:
        """Release the fairest next item; raises ``IndexError`` if empty."""
        start, _, tenant, item = heapq.heappop(self._heap)
        self._virtual_time = max(self._virtual_time, start)
        remaining = self._pending.get(tenant, 1) - 1
        if remaining:
            self._pending[tenant] = remaining
        else:
            self._pending.pop(tenant, None)
            # An idle tenant's finish tag must not bank credit for a
            # comeback burst: snap it forward when it rejoins (handled
            # by the max() in push) — nothing to do here.
        return tenant, item

    def pending(self, tenant: str | None = None) -> int:
        if tenant is None:
            return len(self._heap)
        return self._pending.get(tenant, 0)

    def drain(self) -> Iterator[tuple[str, Any]]:
        """Pop everything (shutdown path)."""
        while self._heap:
            yield self.pop()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
