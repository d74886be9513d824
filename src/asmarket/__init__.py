"""Frequency-secured electricity market clearing at desk scale, dual-based
ancillary-service pricing, and cooperative allocation of the AS cost."""

__version__ = "0.1.0"

from .scenario import (  # noqa: F401
    BESS,
    PHES,
    GeneratorSpec,
    RESSpec,
    Scenario,
    ScenarioError,
    ScenarioValidationError,
    StorageSpec,
    SystemParams,
    gb_template,
    load_scenario,
    write_scenario,
)
from .frequency import (  # noqa: F401
    nadir_feasible,
    nadir_feasible_product,
    rocof_min_inertia,
)
from .ucmodel import (  # noqa: F401
    EndogenousMax,
    FixedProfile,
    UCModel,
    build_uc,
)
from .solve import (  # noqa: F401
    CommitmentSchedule,
    DispatchSolution,
    DualSolution,
    InfeasibleError,
    SolveStats,
    SolverError,
    solve_mip,
    solve_relaxed,
)
from .pricing import (  # noqa: F401
    AsPrices,
    AuditError,
    MarketBreakdown,
    StandAloneCosts,
    StationarityError,
    as_prices_from_duals,
    duality_audit,
    standalone_markets,
)
from .allocation import (  # noqa: F401
    AirportGame,
    Allocation,
    AllocationError,
    AllocationSeries,
    CoreReport,
    allocate_hourly,
    core_check,
    group_by_type,
    nucleolus,
    nucleolus_lp_oracle,
    proportional,
    shapley_airport,
    shapley_bruteforce,
)
