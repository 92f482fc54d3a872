"""Automatic pipeline partitioning for large training graphs.

The pipeline runs in three phases: split a task graph into atomic
subcomponents, coarsen those into at most k memory-feasible blocks, then
assign contiguous block ranges to pipeline stages with a dynamic program
that balances stage times against device memory. A discrete-event replay
estimates iteration time for the winning plan.
"""

from .atoms import AtomicPartition, Subcomponent, build_atomic_subcomponents
from .blocks import BlockSet, CompactionStuck, InfeasibleAtom, partition_blocks
from .costs import (
    CostModel,
    CostModelConfig,
    CostRecord,
    CostTableEntry,
    load_cost_table,
)
from .generators import gen_bert_like, gen_resnet_like
from .graph import (
    ClusterSpec,
    CycleError,
    ParseError,
    TaskGraph,
    ValidationError,
    Violation,
    count_params,
    load_cluster,
    load_graph,
    save_graph,
    validate_graph,
)
from .simulate import (
    Event,
    InvalidPlan,
    Schedule,
    render_gantt,
    simulate,
)
from .stages import (
    InvalidArgs,
    Plan,
    SearchBudgetExceeded,
    SearchOptions,
    SearchResult,
    SearchStats,
    StagePlan,
    TooLarge,
    brute_force_partition,
    form_stage,
    form_stage_dp,
    validate_plan,
)

__version__ = "0.1.0"

__all__ = [
    "AtomicPartition",
    "BlockSet",
    "ClusterSpec",
    "CompactionStuck",
    "CostModel",
    "CostModelConfig",
    "CostRecord",
    "CostTableEntry",
    "CycleError",
    "Event",
    "InfeasibleAtom",
    "InvalidArgs",
    "InvalidPlan",
    "ParseError",
    "Plan",
    "Schedule",
    "SearchBudgetExceeded",
    "SearchOptions",
    "SearchResult",
    "SearchStats",
    "StagePlan",
    "Subcomponent",
    "TaskGraph",
    "TooLarge",
    "ValidationError",
    "Violation",
    "brute_force_partition",
    "build_atomic_subcomponents",
    "count_params",
    "form_stage",
    "form_stage_dp",
    "gen_bert_like",
    "gen_resnet_like",
    "load_cluster",
    "load_cost_table",
    "load_graph",
    "partition_blocks",
    "render_gantt",
    "save_graph",
    "simulate",
    "validate_graph",
    "validate_plan",
]
