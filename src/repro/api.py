"""The single public facade of the reproduction.

``repro.api`` re-exports the blessed entry points of every layer under
one import, so downstream code can write::

    from repro import api

    tape = api.generate_tape(seed=7)
    bus = api.EventBus()
    system = api.TertiaryStorageSystem(geometry=tape, bus=bus)

and stay insulated from internal module moves: names re-exported here
are stable across releases (see ``docs/API.md`` for the signatures and
the deprecation policy), while importing from deep module paths may
break when internals are reorganized — such moves keep the old path
working for one release behind a :class:`DeprecationWarning` shim,
then remove it (see ``docs/API.md``).

The facade groups:

* **geometry / model** — synthetic cartridges and the locate-time model;
* **scheduling** — the paper's eight algorithms, the LTSP frontier
  solvers (exact, repair, sweep, greedy), schedules, execution;
* **online** — the batching service loop, the robotic library, and the
  staging-cache front-end;
* **serving** — the SLA-aware gateway of :mod:`repro.serve` (tenants,
  fairness, backpressure, typed shedding) and its deterministic
  multi-tenant load generator — the entry point external callers are
  meant to program against (see ``docs/SERVING.md``);
* **observability** — the event bus, metrics, and trace tooling of
  :mod:`repro.obs`;
* **experiments** — config plus the tabular-result export helpers;
* **static analysis** — the :mod:`repro.lint` engine behind
  ``repro lint`` (see ``docs/STATIC_ANALYSIS.md``).
"""

from __future__ import annotations

from repro._version import __version__
from repro.cache.library_tier import CachedLibrarySystem
from repro.cache.store import SegmentCache
from repro.cache.system import CachedTertiaryStorageSystem
from repro.drive.simulated import SimulatedDrive
from repro.exceptions import (
    AdmissionRejected,
    CacheError,
    DeadlineExpired,
    DriveError,
    DriveFault,
    DriveReset,
    LintError,
    LocateFault,
    MetricsError,
    NoSamplesError,
    ReadFault,
    ReproError,
    SchedulingError,
    ServeError,
    TenantOverloaded,
    TraceError,
    UnknownTenant,
)
from repro.lint import Finding, LintRun, ProjectGraph, flow_rules, run_lint
from repro.experiments.config import ExperimentConfig
from repro.experiments.export import result_to_rows, write_result
from repro.experiments.result import TabularResult
from repro.geometry.generator import generate_tape, tiny_tape
from repro.geometry.tape import TapeGeometry
from repro.model.linearize import LinearizedModel
from repro.model.locate import LocateTimeModel
from repro.obs import (
    EventBus,
    MetricsRegistry,
    TraceRecorder,
    TraceSummary,
    bind_standard_metrics,
    cache_stats_from_events,
    read_events_jsonl,
    response_stats_from_events,
    summarize_events,
    write_events_csv,
    write_events_jsonl,
)
from repro.library import (
    LibraryBatchRecord,
    LibraryRequest,
    MediaAgingModel,
    MultiDriveSystem,
    arm_policy_names,
    assignment_policy_names,
    exchange_policy_names,
    get_arm_policy,
    get_assignment_policy,
    get_exchange_policy,
    poisson_library_stream,
)
from repro.library.cartridge import Cartridge, TapeLibrary
from repro.online.batch_queue import (
    BatchPolicy,
    BatchQueue,
    DeadlineBatchPolicy,
)
from repro.online.metrics import CacheStats, ResponseStats
from repro.online.striping import (
    LogicalRead,
    StripedReadCoordinator,
    StripedVolume,
    striped_volume,
)
from repro.online.system import BatchRecord, TertiaryStorageSystem
from repro.resilience import (
    FaultInjector,
    FaultPlan,
    ResilienceConfig,
    RetryPolicy,
)
from repro.scheduling.base import (
    Scheduler,
    get_scheduler,
    scheduler_names,
)
from repro.scheduling.estimator import estimate_schedule_seconds
from repro.scheduling.executor import ExecutionResult, execute_schedule
from repro.scheduling.ltsp import (
    LtspExactScheduler,
    LtspGreedyScheduler,
    LtspRepairScheduler,
    LtspSweepScheduler,
    exact_ltsp_order,
    linear_deadhead_sections,
)
from repro.scheduling.request import Request
from repro.scheduling.schedule import Schedule
from repro.serve import (
    Gateway,
    ServeConfig,
    ServeReport,
    ServeRequest,
    ShedRecord,
    TenantConfig,
    TenantLoadSpec,
    TenantStats,
    load_serve_trace,
    save_serve_trace,
    zipf_serve_stream,
)
from repro.workload.arrivals import (
    PoissonArrivals,
    TimedRequest,
    ZipfArrivals,
)

__all__ = [
    "AdmissionRejected",
    "BatchPolicy",
    "BatchQueue",
    "BatchRecord",
    "CacheError",
    "CacheStats",
    "CachedLibrarySystem",
    "CachedTertiaryStorageSystem",
    "Cartridge",
    "DeadlineBatchPolicy",
    "DeadlineExpired",
    "DriveError",
    "DriveFault",
    "DriveReset",
    "EventBus",
    "Gateway",
    "ExecutionResult",
    "ExperimentConfig",
    "FaultInjector",
    "FaultPlan",
    "Finding",
    "LibraryBatchRecord",
    "LibraryRequest",
    "LinearizedModel",
    "LintError",
    "LintRun",
    "LocateFault",
    "LocateTimeModel",
    "LogicalRead",
    "LtspExactScheduler",
    "LtspGreedyScheduler",
    "LtspRepairScheduler",
    "LtspSweepScheduler",
    "MediaAgingModel",
    "MetricsError",
    "MetricsRegistry",
    "MultiDriveSystem",
    "NoSamplesError",
    "PoissonArrivals",
    "ProjectGraph",
    "ReadFault",
    "ReproError",
    "Request",
    "ResilienceConfig",
    "ResponseStats",
    "RetryPolicy",
    "Schedule",
    "Scheduler",
    "SchedulingError",
    "SegmentCache",
    "ServeConfig",
    "ServeError",
    "ServeReport",
    "ServeRequest",
    "ShedRecord",
    "SimulatedDrive",
    "StripedReadCoordinator",
    "StripedVolume",
    "TabularResult",
    "TapeGeometry",
    "TapeLibrary",
    "TenantConfig",
    "TenantLoadSpec",
    "TenantOverloaded",
    "TenantStats",
    "TertiaryStorageSystem",
    "TimedRequest",
    "TraceError",
    "TraceRecorder",
    "TraceSummary",
    "UnknownTenant",
    "ZipfArrivals",
    "__version__",
    "arm_policy_names",
    "assignment_policy_names",
    "bind_standard_metrics",
    "cache_stats_from_events",
    "estimate_schedule_seconds",
    "exact_ltsp_order",
    "exchange_policy_names",
    "execute_schedule",
    "flow_rules",
    "generate_tape",
    "get_arm_policy",
    "get_assignment_policy",
    "get_exchange_policy",
    "get_scheduler",
    "linear_deadhead_sections",
    "load_serve_trace",
    "poisson_library_stream",
    "read_events_jsonl",
    "response_stats_from_events",
    "result_to_rows",
    "run_lint",
    "save_serve_trace",
    "scheduler_names",
    "striped_volume",
    "summarize_events",
    "tiny_tape",
    "write_events_csv",
    "write_events_jsonl",
    "write_result",
    "zipf_serve_stream",
]
