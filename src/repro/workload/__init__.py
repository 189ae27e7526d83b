"""Workload generation: arrivals, RU/TH streams, named scenarios.

The paper's inputs (Sections IV-B and V-A): stationary Poisson query
and update arrivals (:mod:`.arrivals`), the RU and TH update modes
(:mod:`.generator`), the named X-Y scenarios of Section V
(:mod:`.scenarios`), and paced replay of a stream against a live
executor (:mod:`.replay`).
"""

from .arrivals import poisson_arrivals
from .generator import GeneratedWorkload, UpdateMode, generate_workload
from .replay import replay_timed
from .scenarios import (
    BJ_RU_QUERY_HEAVY,
    CASE_STUDY,
    FIGURE6_SCENARIOS,
    FIGURE10_NETWORKS,
    FIGURE10_SCENARIO_TEMPLATE,
    NY_RU_UPDATE_HEAVY,
    MaterializedScenario,
    Scenario,
    materialize,
)

__all__ = [
    "poisson_arrivals",
    "GeneratedWorkload",
    "UpdateMode",
    "generate_workload",
    "replay_timed",
    "BJ_RU_QUERY_HEAVY",
    "CASE_STUDY",
    "FIGURE6_SCENARIOS",
    "FIGURE10_NETWORKS",
    "FIGURE10_SCENARIO_TEMPLATE",
    "NY_RU_UPDATE_HEAVY",
    "MaterializedScenario",
    "Scenario",
    "materialize",
]
