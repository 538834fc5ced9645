"""The paper's eight scheduling algorithms and supporting machinery.

Importing this package registers every scheduler; use
:func:`get_scheduler` / :func:`scheduler_names` for dynamic lookup, or
instantiate the classes directly.
"""

from repro.scheduling.auto import AutoScheduler
from repro.scheduling.base import (
    Scheduler,
    get_scheduler,
    register,
    scheduler_names,
)
from repro.scheduling.coalesce import (
    Group,
    coalesce_by_threshold,
    expand_groups,
)
from repro.scheduling.estimator import (
    estimate_locate_seconds,
    estimate_schedule_seconds,
    full_read_seconds,
    locate_sequence_times,
)
from repro.scheduling.executor import ExecutionResult, execute_schedule
from repro.scheduling.fifo import FifoScheduler
from repro.scheduling.improve import (
    ImprovedLossScheduler,
    improve_schedule,
    or_opt_order,
)
from repro.scheduling.loss import (
    LossScheduler,
    loss_path,
    loss_path_fragments,
)
from repro.scheduling.ltsp import (
    LtspExactScheduler,
    LtspGreedyScheduler,
    LtspRepairScheduler,
    LtspSweepScheduler,
    exact_ltsp_order,
    linear_deadhead_sections,
)
from repro.scheduling.opt import (
    BruteForceOptScheduler,
    OptScheduler,
    brute_force_path,
    held_karp_path,
)
from repro.scheduling.read_all import ReadEntireTapeScheduler
from repro.scheduling.request import (
    Request,
    as_requests,
    request_lengths,
    request_segments,
)
from repro.scheduling.scan import ScanScheduler
from repro.scheduling.schedule import Schedule
from repro.scheduling.sltf import (
    SltfCoalesceScheduler,
    SltfNaiveScheduler,
    SltfScheduler,
)
from repro.scheduling.sort import SortScheduler
from repro.scheduling.weave import WeaveScheduler, weave_pattern

__all__ = [
    "AutoScheduler",
    "BruteForceOptScheduler",
    "ExecutionResult",
    "FifoScheduler",
    "Group",
    "ImprovedLossScheduler",
    "LossScheduler",
    "LtspExactScheduler",
    "LtspGreedyScheduler",
    "LtspRepairScheduler",
    "LtspSweepScheduler",
    "OptScheduler",
    "ReadEntireTapeScheduler",
    "Request",
    "ScanScheduler",
    "Schedule",
    "Scheduler",
    "SltfCoalesceScheduler",
    "SltfNaiveScheduler",
    "SltfScheduler",
    "SortScheduler",
    "WeaveScheduler",
    "as_requests",
    "brute_force_path",
    "coalesce_by_threshold",
    "estimate_locate_seconds",
    "estimate_schedule_seconds",
    "exact_ltsp_order",
    "execute_schedule",
    "expand_groups",
    "full_read_seconds",
    "get_scheduler",
    "held_karp_path",
    "improve_schedule",
    "linear_deadhead_sections",
    "locate_sequence_times",
    "loss_path",
    "loss_path_fragments",
    "or_opt_order",
    "register",
    "request_lengths",
    "request_segments",
    "scheduler_names",
    "weave_pattern",
]
