"""The layer boundaries the traced run wraps, and the per-layer metrics.

Layers are the ``repro`` packages.  :func:`install` wraps the public
entry points of each from outside the program: methods on their
classes, and module-level functions under every ``repro`` module
attribute that holds them (``repro.library.system.execute_schedule`` as
well as ``repro.scheduling.executor.execute_schedule``), so a call is
traced whichever import its caller resolves.  The library layer is the
``MultiDriveSystem`` serving loop -- kernel steps, the dispatch pump,
candidate views and event handlers -- so its self time is what is left
once the calls into every other layer are taken out.  Assignment,
exchange and arm policies (``policy``) and the robot arms (``robot``)
are split out of it as sub-layers.
"""

from __future__ import annotations

from repro.drive.simulated import SimulatedDrive
from repro.experiments import figure4
from repro.experiments.parallel import trial_workload
from repro.geometry.generator import generate_tape
from repro.library import policies
from repro.library.kernel import EventKernel
from repro.library.requests import poisson_library_stream
from repro.library.robot import ArmPool
from repro.library.system import MultiDriveSystem
from repro.model.locate import LocateTimeModel
from repro.model.perturb import ModelWrapper
from repro.obs.bus import EventBus
from repro.online.batch_queue import BatchQueue
from repro.resilience.injection import FaultInjector
from repro.scheduling.base import get_scheduler
from repro.scheduling.estimator import locate_sequence_times
from repro.scheduling.executor import execute_schedule
from repro.serve.fair import WeightedFairQueues
from repro.serve.gateway import Gateway
from repro.serve.workload import zipf_serve_stream
from repro.workload.random_uniform import UniformWorkload

#: The Figure 4 algorithms, each reported on its own.
ALGORITHMS = ("FIFO", "SORT", "SLTF", "SCAN", "WEAVE", "LOSS", "OPT", "READ")

_MODEL_VECTOR = ("locate_times", "times", "pairwise_times")

_POLICY_METHODS = (
    (policies.TapeAffinityAssignment, "choose"),
    (policies.LeastLoadedAssignment, "choose"),
    (policies.DrainBatchExchange, "should_release"),
    (policies.PreemptOnDeadlineExchange, "should_release"),
    (policies.LeastBusyArms, "choose"),
    (policies.RoundRobinArms, "choose"),
    (policies.DedicatedBayArms, "choose"),
)

_FUNCTIONS = (
    (locate_sequence_times, "scheduling.estimate", "scheduling"),
    (execute_schedule, "executor.execute_schedule", "executor"),
    (figure4.run, "experiments.figure4", "experiments"),
    (generate_tape, "geometry.generate_tape", "geometry"),
    (trial_workload, "workload.trial_workload", "workload"),
    (poisson_library_stream, "workload.poisson", "workload"),
    (zipf_serve_stream, "workload.zipf", "workload"),
)


def _handler_layer(handler) -> str:
    """The layer a kernel event handler belongs to, by its owner."""
    owner = getattr(handler, "__self__", None)
    module = type(owner).__module__ if owner is not None else ""
    if module.startswith("repro.serve"):
        return "serve"
    if module == "repro.library.robot":
        return "robot"
    return "library"


def install(tracer) -> None:
    """Wrap every layer boundary; ``tracer.restore()`` undoes it."""
    for attr in ("push", "flush", "ready"):
        tracer.patch(BatchQueue, attr, f"batch_queue.{attr}", "batch_queue")
    tracer.patch_property(
        BatchQueue, "oldest_arrival", "batch_queue.oldest_arrival",
        "batch_queue",
    )

    for attr in ("run", "begin", "submit", "finish"):
        tracer.patch(MultiDriveSystem, attr, f"library.{attr}", "library")
    tracer.patch(EventKernel, "step", "library.kernel_step", "library")
    register = EventKernel.on

    def on(kernel, event_type, handler):
        # Handlers of other layers that the kernel dispatches to get a
        # span of their own; the library's own handlers stay library.
        layer = _handler_layer(handler)
        if layer != "library":
            handler = tracer.wrap(handler, f"{layer}.handler", layer)
        return register(kernel, event_type, handler)

    tracer.replace(EventKernel, "on", on)
    for cls, attr in _POLICY_METHODS:
        tracer.patch(cls, attr, f"policy.{cls.__name__}", "policy")
    tracer.patch(ArmPool, "submit", "robot.submit", "robot")

    for name in ALGORITHMS:
        tracer.patch(
            type(get_scheduler(name)), "schedule", f"scheduling.{name}",
            "scheduling", size_arg=3,
        )

    for cls in (LocateTimeModel, ModelWrapper):
        for attr in ("locate_time", *_MODEL_VECTOR):
            tracer.patch(cls, attr, f"model.{attr}", "model")

    for attr in ("locate", "read", "rewind", "read_entire_tape"):
        tracer.patch(SimulatedDrive, attr, f"drive.{attr}", "drive")
    for attr in ("locate", "read", "rewind", "wait", "read_entire_tape"):
        tracer.patch(FaultInjector, attr, f"resilience.{attr}", "resilience")

    tracer.patch(EventBus, "publish", "obs.publish", "obs")

    tracer.patch(Gateway, "run", "serve.run", "serve")
    for attr in ("push", "pop"):
        tracer.patch(WeightedFairQueues, attr, f"serve.fair.{attr}", "serve")

    tracer.patch(
        UniformWorkload, "sample_batch_with_origin", "workload.sample_batch",
        "workload",
    )
    for function, key, layer in _FUNCTIONS:
        tracer.patch_function(function, key, layer)


def metrics(tracer) -> dict[str, float]:
    """The host per-layer metrics of one traced run."""
    layers = tracer.layer_totals()

    def layer(name: str, field: str) -> float:
        return layers.get(name, {}).get(field, 0)

    def calls(*keys: str) -> int:
        return sum(tracer.key(key).calls for key in keys)

    def outer(*keys: str) -> int:
        return sum(tracer.key(key).outer_calls for key in keys)

    scheduled = [tracer.key(f"scheduling.{name}") for name in ALGORITHMS]
    schedule_calls = sum(stat.outer_calls for stat in scheduled)
    values = {
        "batch_queue.push_calls": calls("batch_queue.push"),
        "batch_queue.oldest_arrival_calls": calls(
            "batch_queue.oldest_arrival"
        ),
        "batch_queue.flush_calls": calls("batch_queue.flush"),
        "batch_queue.self_s": layer("batch_queue", "self_s"),
        "library.kernel_events": calls("library.kernel_step"),
        "library.self_s": layer("library", "self_s"),
        "library.policy_calls": layer("policy", "calls"),
        "library.policy_self_s": layer("policy", "self_s"),
        "library.robot_self_s": layer("robot", "self_s"),
        "scheduling.calls": schedule_calls,
        "scheduling.mean_batch": (
            sum(stat.items for stat in scheduled) / schedule_calls
            if schedule_calls else 0.0
        ),
        "scheduling.self_s": layer("scheduling", "self_s"),
    }
    for name, stat in zip(ALGORITHMS, scheduled):
        values[f"scheduling.{name}.calls"] = stat.outer_calls
        values[f"scheduling.{name}.self_s"] = stat.self_s
    values.update(
        {
            "model.scalar_calls": outer("model.locate_time"),
            "model.vector_calls": outer(
                *(f"model.{attr}" for attr in _MODEL_VECTOR)
            ),
            "model.self_s": layer("model", "self_s"),
            "executor.calls": layer("executor", "calls"),
            "executor.self_s": layer("executor", "self_s"),
            "drive.calls": layer("drive", "calls"),
            "drive.self_s": layer("drive", "self_s"),
            "resilience.calls": layer("resilience", "calls"),
            "resilience.self_s": layer("resilience", "self_s"),
            "obs.publish_calls": calls("obs.publish"),
            "obs.self_s": layer("obs", "self_s"),
            "serve.self_s": layer("serve", "self_s"),
            "serve.fair_calls": calls("serve.fair.push", "serve.fair.pop"),
            "experiments.self_s": layer("experiments", "self_s"),
            "geometry.generate_tape_s": layer("geometry", "incl_s"),
            "workload.gen_s": layer("workload", "incl_s"),
            "trace.spans": sum(stat.calls for stat in tracer.stats.values()),
        }
    )
    return values


#: Per-layer metrics that must read zero on a workload, by why.
PREDICTED_ZERO = {
    "no event bus": (
        ("serve-tenants", "paper-sweep"),
        ("obs.publish_calls", "obs.self_s"),
    ),
    "no fault injection": (
        ("serve-tenants", "paper-sweep"),
        ("resilience.calls", "resilience.self_s"),
    ),
    "no gateway": (
        ("lib-faults", "paper-sweep"),
        ("serve.self_s", "serve.fair_calls"),
    ),
    "no library, queue or executor": (
        ("paper-sweep",),
        (
            "batch_queue.push_calls", "batch_queue.oldest_arrival_calls",
            "batch_queue.flush_calls", "batch_queue.self_s",
            "library.kernel_events", "library.self_s",
            "library.policy_calls", "library.policy_self_s",
            "library.robot_self_s", "executor.calls", "executor.self_s",
            "drive.calls", "drive.self_s",
        ),
    ),
    "no sweep": (
        ("lib-faults", "serve-tenants"),
        ("experiments.self_s",),
    ),
}


def zero_violations(workload: str, values: dict[str, float]) -> list[str]:
    """Predicted zeros that read nonzero (each one a benchmark bug)."""
    return [
        f"{name} = {values[name]!r} on {workload} ({reason})"
        for reason, (workloads, names) in PREDICTED_ZERO.items()
        if workload in workloads
        for name in names
        if values[name]
    ]
