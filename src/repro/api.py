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

Each name resolves on its first access (PEP 562) through the table
below, which maps a defining module to the names taken from it: using
``api.generate_tape`` loads the geometry layer only, and the
:mod:`repro.lint` analyzer loads only when one of its names is used.
``__all__`` and ``dir(api)`` list every name up front; moving a name
is one table edit.

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

from repro import _lazy_exports

_EXPORTS = {
    "repro._version": ("__version__",),
    "repro.cache.library_tier": ("CachedLibrarySystem",),
    "repro.cache.store": ("SegmentCache",),
    "repro.cache.system": ("CachedTertiaryStorageSystem",),
    "repro.drive.simulated": ("SimulatedDrive",),
    "repro.exceptions": (
        "AdmissionRejected",
        "CacheError",
        "DeadlineExpired",
        "DriveError",
        "DriveFault",
        "DriveReset",
        "LintError",
        "LocateFault",
        "MetricsError",
        "NoSamplesError",
        "ReadFault",
        "ReproError",
        "SchedulingError",
        "ServeError",
        "TenantOverloaded",
        "TraceError",
        "UnknownTenant",
    ),
    "repro.lint": (
        "Finding",
        "LintRun",
        "ProjectGraph",
        "flow_rules",
        "run_lint",
    ),
    "repro.experiments.config": ("ExperimentConfig",),
    "repro.experiments.export": (
        "result_to_rows",
        "write_result",
    ),
    "repro.experiments.result": ("TabularResult",),
    "repro.geometry.generator": (
        "generate_tape",
        "tiny_tape",
    ),
    "repro.geometry.tape": ("TapeGeometry",),
    "repro.model.linearize": ("LinearizedModel",),
    "repro.model.locate": ("LocateTimeModel",),
    "repro.obs": (
        "EventBus",
        "MetricsRegistry",
        "TraceRecorder",
        "TraceSummary",
        "bind_standard_metrics",
        "cache_stats_from_events",
        "read_events_jsonl",
        "response_stats_from_events",
        "summarize_events",
        "write_events_csv",
        "write_events_jsonl",
    ),
    "repro.library": (
        "LibraryBatchRecord",
        "LibraryRequest",
        "MediaAgingModel",
        "MultiDriveSystem",
        "arm_policy_names",
        "assignment_policy_names",
        "exchange_policy_names",
        "get_arm_policy",
        "get_assignment_policy",
        "get_exchange_policy",
        "poisson_library_stream",
    ),
    "repro.library.cartridge": (
        "Cartridge",
        "TapeLibrary",
    ),
    "repro.online.batch_queue": (
        "BatchPolicy",
        "BatchQueue",
        "DeadlineBatchPolicy",
    ),
    "repro.online.metrics": (
        "CacheStats",
        "ResponseStats",
    ),
    "repro.online.striping": (
        "LogicalRead",
        "StripedReadCoordinator",
        "StripedVolume",
        "striped_volume",
    ),
    "repro.online.system": (
        "BatchRecord",
        "TertiaryStorageSystem",
    ),
    "repro.resilience": (
        "FaultInjector",
        "FaultPlan",
        "ResilienceConfig",
        "RetryPolicy",
    ),
    "repro.scheduling.base": (
        "Scheduler",
        "get_scheduler",
        "scheduler_names",
    ),
    "repro.scheduling.estimator": ("estimate_schedule_seconds",),
    "repro.scheduling.executor": (
        "ExecutionResult",
        "execute_schedule",
    ),
    "repro.scheduling.ltsp": (
        "LtspExactScheduler",
        "LtspGreedyScheduler",
        "LtspRepairScheduler",
        "LtspSweepScheduler",
        "exact_ltsp_order",
        "linear_deadhead_sections",
    ),
    "repro.scheduling.request": ("Request",),
    "repro.scheduling.schedule": ("Schedule",),
    "repro.serve": (
        "Gateway",
        "ServeConfig",
        "ServeReport",
        "ServeRequest",
        "ShedRecord",
        "TenantConfig",
        "TenantLoadSpec",
        "TenantStats",
        "load_serve_trace",
        "save_serve_trace",
        "zipf_serve_stream",
    ),
    "repro.workload.arrivals": (
        "PoissonArrivals",
        "TimedRequest",
        "ZipfArrivals",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
