"""The paper's named experiment scenarios.

A scenario bundles a road network symbol, an update mode, an object
count and arrival rates — "We use X-Y (e.g., BJ-TH) to denote a
scenario of using road network X with update mode Y" (Section V-A).

Two consumption styles exist:

* **paper-parity** (the benches' default): the scenario supplies its
  arrival rates and a paper-parity algorithm profile to the analytical
  models and the DES.  Rates are the paper's actual numbers (e.g.
  λq = 15,000/s).
* **executable**: :func:`materialize` builds a scaled replica network,
  places objects, and generates a real task stream that the pure-Python
  solutions can actually process (object counts and rates scale down
  together so the run stays tractable).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..graph.generators import generate_pois, scaled_replica
from ..graph.road_network import RoadNetwork
from .generator import GeneratedWorkload, UpdateMode, generate_workload


@dataclass(frozen=True)
class Scenario:
    """One X-Y experiment setting of Section V."""

    name: str
    network_symbol: str
    mode: UpdateMode
    num_objects: int
    lambda_q: float
    lambda_u: float
    k: int = 10

    @property
    def label(self) -> str:
        return f"{self.network_symbol}-{self.mode.value}"

    def scaled(self, factor: float) -> "Scenario":
        """Scale object count and arrival rates together by ``factor``.

        Used to produce executable versions of paper-sized scenarios;
        the query/update *mixture* (the ratio λq : λu) is preserved,
        which is what the schemes adapt to.
        """
        if factor <= 0:
            raise ValueError("factor must be positive")
        return replace(
            self,
            name=f"{self.name}-x{factor:g}",
            num_objects=max(int(self.num_objects * factor), 1),
            lambda_q=self.lambda_q * factor,
            lambda_u=self.lambda_u * factor,
        )


# ----------------------------------------------------------------------
# Named scenarios from Section V
# ----------------------------------------------------------------------
#: Section V-B case study: "We consider BJ-RU [...].  We set m = 10,000
#: objects, k = 10, λq = 15,000, λu = 50,000".
CASE_STUDY = Scenario(
    "case-study", "BJ", UpdateMode.RANDOM,
    num_objects=10_000, lambda_q=15_000, lambda_u=50_000,
)

#: Section V-C: "(1) An update-heavy scenario using the New York road
#: network with random update mode (NY-RU), m = 80K objects, query
#: arrival rate λq = 1.25K, and a heavy update arrival rate λu = 20K."
NY_RU_UPDATE_HEAVY = Scenario(
    "ny-update-heavy", "NY", UpdateMode.RANDOM,
    num_objects=80_000, lambda_q=1_250, lambda_u=20_000,
)

#: Section V-C: "(2) A query-heavy scenario BJ-RU, m = 10K, λq = 20K,
#: λu = 10K."
BJ_RU_QUERY_HEAVY = Scenario(
    "bj-query-heavy", "BJ", UpdateMode.RANDOM,
    num_objects=10_000, lambda_q=20_000, lambda_u=10_000,
)

#: Figure 6's six network/update-mode combinations (the paper lists the
#: scenario axis as BJ/NY/NW crossed with RU/TH; rates follow the two
#: reference scenarios above).
FIGURE6_SCENARIOS = (
    Scenario("fig6-bj-ru", "BJ", UpdateMode.RANDOM, 10_000, 10_000, 10_000),
    Scenario("fig6-ny-ru", "NY", UpdateMode.RANDOM, 80_000, 1_250, 20_000),
    Scenario("fig6-bj-th", "BJ", UpdateMode.TAXI_HAILING, 10_000, 10_000, 10_000),
    Scenario("fig6-ny-th", "NY", UpdateMode.TAXI_HAILING, 80_000, 1_250, 20_000),
    Scenario("fig6-nw-ru", "NW", UpdateMode.RANDOM, 13_132, 5_000, 10_000),
    Scenario("fig6-nw-th", "NW", UpdateMode.TAXI_HAILING, 13_132, 5_000, 10_000),
)

#: Figure 10's scalability axis: "RU, (m, λq, λu) = (10K, 10K, 10K)"
#: over four networks of growing size.
FIGURE10_NETWORKS = ("NY", "BJ", "USA(E)", "USA(W)")
FIGURE10_SCENARIO_TEMPLATE = Scenario(
    "fig10", "NY", UpdateMode.RANDOM, 10_000, 10_000, 10_000
)


@dataclass(frozen=True)
class MaterializedScenario:
    """An executable scenario: real network, objects, and task stream."""

    scenario: Scenario
    network: RoadNetwork
    workload: GeneratedWorkload


def materialize(
    scenario: Scenario,
    network_scale: float = 1.0 / 400.0,
    load_scale: float = 1.0 / 100.0,
    duration: float = 1.0,
    seed: int = 0,
    network: RoadNetwork | None = None,
) -> MaterializedScenario:
    """Build an executable instance of a scenario.

    ``network_scale`` shrinks the road network (replica generators);
    ``load_scale`` shrinks m, λq and λu together.  NW scenarios restrict
    insert sites to generated POIs, mirroring the paper's NW-RU rule.
    """
    if network is None:
        network = scaled_replica(scenario.network_symbol, scale=network_scale, seed=seed)
    scaled = scenario.scaled(load_scale)
    insert_sites = None
    if scenario.network_symbol == "NW":
        poi_count = max(int(13_132 * network_scale * 10), 25)
        insert_sites = generate_pois(network, poi_count, seed=seed)
    workload = generate_workload(
        network,
        num_objects=min(scaled.num_objects, max(network.num_nodes // 2, 1)),
        lambda_q=scaled.lambda_q,
        lambda_u=scaled.lambda_u,
        duration=duration,
        mode=scenario.mode,
        k=scenario.k,
        seed=seed,
        insert_sites=insert_sites,
    )
    return MaterializedScenario(scenario=scaled, network=network, workload=workload)
