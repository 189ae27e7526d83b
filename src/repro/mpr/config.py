"""MPR configurations ``(x, y, z)`` and their core accounting.

Section V-B: "An MPR configuration (x, y, z) uses xyz (w-cores) + 1
(d-core) + z (s-cores) + z (a-cores) cores.  The exceptions are when
x = 1, no a-cores are used and when z = 1, no d-core is used."

The enumeration below reproduces the paper's configuration space: for
every layer count ``z`` and partition count ``x``, the replica count
``y`` is the largest that fits the core budget.  With 19 cores and
``max_layers = 5`` this yields exactly the 31 configurations of
Figure 4 (the paper does not spell out its layer cap; 5 is the value
that matches its count — see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class MPRConfig:
    """A core-matrix arrangement: x partitions, y replicas, z layers."""

    x: int
    y: int
    z: int

    def __post_init__(self) -> None:
        if self.x < 1 or self.y < 1 or self.z < 1:
            raise ValueError(f"x, y, z must all be >= 1, got {self}")

    # ------------------------------------------------------------------
    # Core accounting (Section V-B)
    # ------------------------------------------------------------------
    @property
    def worker_cores(self) -> int:
        return self.x * self.y * self.z

    @property
    def dispatcher_cores(self) -> int:
        return 1 if self.z > 1 else 0

    @property
    def scheduler_cores(self) -> int:
        return self.z

    @property
    def aggregator_cores(self) -> int:
        return self.z if self.x > 1 else 0

    @property
    def total_cores(self) -> int:
        return (
            self.worker_cores
            + self.dispatcher_cores
            + self.scheduler_cores
            + self.aggregator_cores
        )

    # ------------------------------------------------------------------
    # Derived rates: how the single stream splits across cores
    # ------------------------------------------------------------------
    def worker_query_rate(self, lambda_q: float) -> float:
        """Query arrival rate at one w-core (queries fan out over rows
        and layers; every w-core of the chosen row serves the query)."""
        return lambda_q / (self.y * self.z)

    def worker_update_rate(self, lambda_u: float) -> float:
        """Update arrival rate at one w-core (updates are split over the
        x columns but replicated across rows and layers)."""
        return lambda_u / self.x

    def scheduler_write_rate(self, lambda_q: float, lambda_u: float) -> float:
        """w-queue writes per second performed by one s-core.

        A layer's s-core writes x queues per query routed to its layer
        (rate λq / z) and y queues per update (updates reach every
        layer).  Section IV-C's overload condition is this rate times
        the per-write time exceeding 1.
        """
        return (lambda_q / self.z) * self.x + lambda_u * self.y

    def aggregator_merge_rate(self, lambda_q: float) -> float:
        """Partial results merged per second by one a-core."""
        if self.x == 1:
            return 0.0
        return (lambda_q / self.z) * self.x

    def dispatcher_rate(self, lambda_q: float, lambda_u: float) -> float:
        """Tasks per second handled by the d-core (updates hit all layers)."""
        if self.z == 1:
            return 0.0
        return lambda_q + lambda_u * self.z

    def describe(self) -> str:
        return (
            f"x={self.x} y={self.y} z={self.z} "
            f"(w={self.worker_cores}, d={self.dispatcher_cores}, "
            f"s={self.scheduler_cores}, a={self.aggregator_cores}, "
            f"total={self.total_cores})"
        )


def max_replicas(total_cores: int, x: int, z: int) -> int:
    """Largest y such that ``MPRConfig(x, y, z)`` fits ``total_cores``."""
    overhead = (1 if z > 1 else 0) + z + (z if x > 1 else 0)
    budget = total_cores - overhead
    return budget // (x * z)


def enumerate_configs(
    total_cores: int, max_layers: int | None = None
) -> list[MPRConfig]:
    """All maximal-y configurations that fit the core budget.

    For each ``(x, z)`` the configuration with the largest feasible
    ``y`` is kept (smaller y wastes cores and is never better under the
    models).  ``max_layers`` bounds z; with ``total_cores=19`` and
    ``max_layers=5`` this returns the paper's 31 configurations.
    """
    if total_cores < 2:
        return []
    configs: list[MPRConfig] = []
    z = 0
    while True:
        z += 1
        if max_layers is not None and z > max_layers:
            break
        found_for_z = False
        x = 0
        while True:
            x += 1
            y = max_replicas(total_cores, x, z)
            if y < 1:
                break
            configs.append(MPRConfig(x, y, z))
            found_for_z = True
        if not found_for_z:
            break
    return configs


def full_replication_config(total_cores: int) -> MPRConfig:
    """F-Rep: one partition, all available workers as replicas, one layer."""
    y = max_replicas(total_cores, x=1, z=1)
    if y < 1:
        raise ValueError(f"{total_cores} cores cannot host F-Rep")
    return MPRConfig(1, y, 1)


def full_partitioning_config(total_cores: int) -> MPRConfig:
    """F-Part: one replica, all available workers as partitions, one layer."""
    overhead = 1 + 1  # s-core + a-core (x > 1 in any non-trivial case)
    x = total_cores - overhead
    if x < 1:
        raise ValueError(f"{total_cores} cores cannot host F-Part")
    if x == 1:
        return MPRConfig(1, 1, 1)
    return MPRConfig(x, 1, 1)
