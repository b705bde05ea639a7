"""Two-tier wireless network scaling simulator.

A dense secondary tier relays packets for a sparse primary tier on the unit
square. The package builds random deployments, routes over cell grids,
schedules transmissions with preservation and collection regions, moves
packets at the frame level, audits SINR, and fits the measured rates and
delays against their predicted scaling laws.
"""

from .deployment import (
    PRIMARY,
    SECONDARY,
    CellGrid,
    ConfigurationError,
    Deployment,
    OccupancyReport,
    SimConfig,
    build_deployment,
    cell_occupancy,
    pair_sd,
    primary_cell_area,
    rng_streams,
    sample_ppp,
    secondary_cell_area,
)
from .routing import RelayAssignment, hv_path_cells, path_load_census, select_relays
from .scheduler import (
    PHASES,
    TICKS,
    clear_sinks,
    place_collection_regions,
    preservation_regions,
    slot_offsets,
)
from .phy import RateReport, sinr_at, tx_power
from .transport import (
    PacketRecord,
    RunOptions,
    TransportSim,
    relay_count,
)
from .harness import (
    CSV_COLUMNS,
    ExperimentResult,
    FitReport,
    SweepPlan,
    check_theorems,
    emit,
    fit_exponent,
    fit_line,
    format_fit_report,
    prepare,
    run_point,
    run_sweep,
    sweep_configs,
    trace_packet,
)

__version__ = "0.1.0"
