"""The MPR framework: core matrices, analytical models, schemes, executor.

Executor construction goes through :mod:`repro.mpr.api` —
:func:`build_executor` / :class:`MPRSystem` — which is re-exported
here and is the only public construction path; query outcomes travel
as the typed :class:`QueryResult` envelope from :mod:`repro.mpr.results`.
"""

from .api import MPRSystem, build_executor
from .analysis import (
    MachineSpec,
    OptimizationResult,
    Workload,
    control_plane_overloaded,
    feasible_frontier,
    max_throughput,
    max_throughput_closed_form,
    max_update_rate,
    optimize_response_time,
    optimize_throughput,
    response_time,
    single_queue_response_time,
    worker_sojourn_time,
)
from .comparison import (
    best_scheme,
    compare_schemes_response_time,
    compare_schemes_throughput,
)
from .config import (
    MPRConfig,
    enumerate_configs,
    full_partitioning_config,
    full_replication_config,
    max_replicas,
)
from .core_matrix import (
    LayerScheduler,
    MPRRouter,
    QueryRoute,
    RouteBatcher,
    UpdateRoute,
    WorkerId,
    check_matrix_invariants,
    encode_op,
)
from .autotune import JointChoice, joint_tune
from .balancing import (
    balance_by_update_rate,
    column_loads,
    hashed_columns,
    imbalance,
    round_robin_columns,
)
from .executor import QuiesceTimeout, run_serial_reference
from .process_executor import ProcessPoolService, WorkerCrash
from .reconfig import (
    RECONFIG_COUNTERS,
    RateEstimator,
    ReconfigEvent,
    ReconfigManager,
    ReconfigPolicy,
    ReconfigRejected,
)
from .results import (
    RETRYABLE_STATUSES,
    QueryResult,
    ResultStatus,
)
from .resilience import (
    RESILIENCE_COUNTERS,
    AdmissionController,
    CircuitBreaker,
    ResilienceConfig,
    ResiliencePolicy,
)
from .generic_grouping import (
    GenericGrouping,
    best_rectangular,
    equal_shares,
    grouping_response_time,
    proportional_shares,
    random_grouping,
)
from .schemes import (
    DEFAULT_MAX_LAYERS,
    Objective,
    Scheme,
    SchemeChoice,
    configure_all_schemes,
    configure_scheme,
)

__all__ = [
    "MPRSystem",
    "build_executor",
    "MachineSpec",
    "OptimizationResult",
    "Workload",
    "control_plane_overloaded",
    "feasible_frontier",
    "max_throughput",
    "max_throughput_closed_form",
    "max_update_rate",
    "optimize_response_time",
    "optimize_throughput",
    "response_time",
    "single_queue_response_time",
    "worker_sojourn_time",
    "best_scheme",
    "compare_schemes_response_time",
    "compare_schemes_throughput",
    "MPRConfig",
    "enumerate_configs",
    "full_partitioning_config",
    "full_replication_config",
    "max_replicas",
    "RateEstimator",
    "LayerScheduler",
    "MPRRouter",
    "QueryRoute",
    "RouteBatcher",
    "UpdateRoute",
    "WorkerId",
    "check_matrix_invariants",
    "encode_op",
    "run_serial_reference",
    "ProcessPoolService",
    "QuiesceTimeout",
    "WorkerCrash",
    "RECONFIG_COUNTERS",
    "ReconfigEvent",
    "ReconfigManager",
    "ReconfigPolicy",
    "ReconfigRejected",
    "RETRYABLE_STATUSES",
    "QueryResult",
    "ResultStatus",
    "RESILIENCE_COUNTERS",
    "AdmissionController",
    "CircuitBreaker",
    "ResilienceConfig",
    "ResiliencePolicy",
    "JointChoice",
    "joint_tune",
    "balance_by_update_rate",
    "column_loads",
    "hashed_columns",
    "imbalance",
    "round_robin_columns",
    "GenericGrouping",
    "best_rectangular",
    "equal_shares",
    "grouping_response_time",
    "proportional_shares",
    "random_grouping",
    "DEFAULT_MAX_LAYERS",
    "Objective",
    "Scheme",
    "SchemeChoice",
    "configure_all_schemes",
    "configure_scheme",
]
