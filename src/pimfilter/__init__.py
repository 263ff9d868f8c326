"""Cycle-accurate crossbar simulator and base-count pre-alignment filter."""

from .crossbar import (
    CrossbarState,
    ExecResult,
    Init,
    MicroOpError,
    MicroProgram,
    NorCol,
    NorRow,
    ProgramBuilder,
    ReadCell,
    WriteExternal,
    execute,
)
from .gates import (
    Build,
    build_adder,
    build_copy,
    build_half_adder,
    build_mux,
    build_not,
    build_popcount,
    build_subtractor,
)
from .kernel import (
    KernelLayout,
    STEP_BUDGETS,
    build_program,
    encode_base,
    plan_layout,
    run_kernel,
)
from .oracle import BaseCounts, base_count_error, edit_distance, histogram, should_discard
from .genome import Tile, partition, route, run_filter, schedule, tile_count

__version__ = "0.1.0"
