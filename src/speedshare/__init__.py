"""speedshare: privacy-preserving speed advisories for vehicle fleets.

Vehicles evaluate their private per-speed cost tables, hide them behind an
affine mask and additive secret shares exchanged over a directed communication
graph, and a base station picks the speed minimising the fleet-wide aggregate
without learning any individual table.
"""

from .baseline import DpConfig, DpResult, mu_upper_bound, run_dp
from .emissions import (
    EmissionFactors,
    GrowthBounds,
    SpeedGrid,
    Vehicle,
    VehicleClass,
    build_speed_grid,
    emission_derivative,
    emission_rate,
    emission_second_derivative,
    growth_bounds,
)
from .errors import (
    BaselineInapplicableError,
    ConfigError,
    DomainError,
    EncodingError,
    IncompleteRoundError,
    PrivacyPreconditionError,
    ProtocolError,
)
from .graph import (
    CommGraph,
    GraphSequence,
    generate_switching_sequence,
    ring_over,
    row_stochastic_from_graph,
    validate_privacy_precondition,
)
from .harness import (
    DUMMY_ID,
    ScenarioConfig,
    ScenarioReport,
    attach_dummy_vehicle,
    compare_baseline,
    run_scenario,
    sweep_m,
)
from .oracle import OracleResult, accuracy, brute_force_optimum
from .protocol import (
    AggregatedTable,
    CostTable,
    MaskingParams,
    Recommendation,
    RoundTranscript,
    SCALE,
    ShareMessage,
    aggregate_local,
    base_station_aggregate,
    draw_shares,
    execute_round,
    from_fixed,
    mask,
    prepare_round,
    select_best,
    split_shares,
    to_fixed,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
