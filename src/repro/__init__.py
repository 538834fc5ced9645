"""repro — Random I/O scheduling for serpentine tertiary storage.

A from-scratch reproduction of Hillyer & Silberschatz, *Random I/O
Scheduling in Online Tertiary Storage Systems* (SIGMOD 1996): the
DLT4000 locate-time model, the eight batch schedulers (READ, FIFO, OPT,
SORT, SLTF, SCAN, WEAVE, LOSS), a simulated drive and robotic library,
and the full experiment harness that regenerates every figure and table
of the paper's evaluation.

Quickstart::

    from repro import (
        generate_tape, LocateTimeModel, LossScheduler,
        SimulatedDrive, execute_schedule,
    )

    tape = generate_tape(seed=7)
    model = LocateTimeModel(tape)
    batch = [123_456, 42, 599_999, 310_000]
    schedule = LossScheduler().schedule(model, origin=0, requests=batch)
    drive = SimulatedDrive(model)
    result = execute_schedule(drive, schedule)
    print(schedule.algorithm, result.total_seconds)

The names below resolve on first access (PEP 562): ``import repro``
loads no subsystem, and ``from repro import LossScheduler`` loads
:mod:`repro.scheduling` and what it imports, nothing more.  ``__all__``
and ``dir(repro)`` list every name up front.
"""

import importlib
import sys


def _lazy_exports(facade, table):
    """``__all__``, ``__getattr__`` and ``__dir__`` of a lazy facade.

    ``table`` maps each defining module to the names ``facade``
    re-exports from it; a name listed under ``facade`` itself is one of
    its submodules.  A name's module is imported on its first access
    and the name is cached in the facade's globals, so later lookups
    never reach ``__getattr__``.
    """
    source_of = {
        name: source for source, names in table.items() for name in names
    }
    namespace = vars(sys.modules[facade])
    exported = sorted(source_of)

    def __getattr__(name):
        try:
            source = source_of[name]
        except KeyError:
            raise AttributeError(
                f"module {facade!r} has no attribute {name!r}"
            ) from None
        if source == facade:
            value = importlib.import_module(f"{facade}.{name}")
        else:
            value = getattr(importlib.import_module(source), name)
        namespace[name] = value
        return value

    def __dir__():
        return list(exported)

    return exported, __getattr__, __dir__


_EXPORTS = {
    "repro": ("api",),
    "repro._version": ("__version__",),
    "repro.cache": (
        "AdmissionPolicy",
        "AlwaysAdmit",
        "CachedLibrarySystem",
        "CachedTertiaryStorageSystem",
        "CostThresholdAdmission",
        "EvictionPolicy",
        "FIFOPolicy",
        "FrequencyThresholdAdmission",
        "GDSFPolicy",
        "LRUPolicy",
        "SegmentCache",
    ),
    "repro.drive": (
        "SimulatedDrive",
        "ground_truth_drive",
        "ground_truth_model",
    ),
    "repro.exceptions": (
        "BatchTooLarge",
        "CacheError",
        "DriveError",
        "EmptyBatchError",
        "GeometryError",
        "MetricsError",
        "NoSamplesError",
        "ReproError",
        "SchedulingError",
        "SegmentOutOfRange",
        "TraceError",
    ),
    "repro.obs": (
        "EventBus",
        "MetricsRegistry",
        "TraceRecorder",
        "TraceSummary",
        "bind_standard_metrics",
        "summarize_events",
    ),
    "repro.library": (
        "LibraryRequest",
        "MultiDriveSystem",
    ),
    "repro.online": (
        "BatchPolicy",
        "CacheStats",
        "DeadlineBatchPolicy",
        "ResponseStats",
        "TertiaryStorageSystem",
    ),
    "repro.serve": (
        "Gateway",
        "ServeConfig",
        "ServeReport",
        "ServeRequest",
        "TenantConfig",
        "TenantLoadSpec",
        "TenantStats",
        "zipf_serve_stream",
    ),
    "repro.resilience": (
        "FaultInjector",
        "FaultPlan",
        "ResilienceConfig",
        "RetryPolicy",
    ),
    "repro.geometry": (
        "TapeGeometry",
        "calibrate_key_points",
        "generate_tape",
        "geometry_from_key_points",
        "make_tape_pair",
        "tiny_tape",
    ),
    "repro.model": (
        "EvenOddPerturbation",
        "LocateCase",
        "LocateTimeModel",
        "ShortLocateDeviation",
        "classify",
        "rewind_time",
    ),
    "repro.scheduling": (
        "AutoScheduler",
        "FifoScheduler",
        "LossScheduler",
        "OptScheduler",
        "ReadEntireTapeScheduler",
        "Request",
        "ScanScheduler",
        "Schedule",
        "Scheduler",
        "SltfScheduler",
        "SortScheduler",
        "WeaveScheduler",
        "estimate_schedule_seconds",
        "execute_schedule",
        "get_scheduler",
        "scheduler_names",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
