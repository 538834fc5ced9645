"""The benchmark's three workloads, built from one seed.

The benchmark generates every input itself -- the cartridge shelf and
the request stream, or for the paper sweep the experiment config whose
seeds the sweep draws its trials from -- and hands the program only
those.  Seed ``n`` maps to the tape seeds ``1 + 8n .. 8 + 8n`` and the
stream seed ``n``, so seed 0 is the shelf and stream ``library-sim`` and
``serve-sim`` use by default.

Each workload has three steps:

* ``setup(seed)`` builds the inputs (timed as ``setup_s``);
* ``build(inputs, tracer)`` constructs the program objects (cheap,
  untimed) and returns them with the timed region as a list of
  zero-argument parts, timed one by one;
* ``outcome(inputs, built, results)`` reads the public results (the
  parts' return values and the built objects): the simulated metrics,
  the output checks, and the digest of the outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace

from repro.experiments import figure4, serve_sim
from repro.experiments.config import PAPER_SCHEDULE_LENGTHS, ExperimentConfig
from repro.geometry import generator
from repro.library import requests as library_requests
from repro.library.aging import MediaAgingModel
from repro.library.cartridge import Cartridge
from repro.library.policies import get_exchange_policy
from repro.library.system import MultiDriveSystem
from repro.model.locate import LocateTimeModel
from repro.obs.bus import EventBus
from repro.obs.metrics import bind_standard_metrics
from repro.online.batch_queue import BatchPolicy, DeadlineBatchPolicy
from repro.resilience.injection import FaultPlan
from repro.resilience.policy import ResilienceConfig, RetryPolicy
from repro.scheduling.base import get_scheduler
from repro.serve import workload as serve_workload
from repro.serve.config import ServeConfig, TenantConfig
from repro.serve.gateway import Gateway

#: Cartridges on the shelf.
SHELF_SIZE = 8

#: Largest phase-partition error tolerated per batch, in seconds.
PHASE_TOLERANCE_S = 1e-6

#: The sweep's schedule lengths: the powers of two on the paper's grid,
#: 1 .. 2048.  They span the whole figure (OPT at N <= 8) at about half
#: the cost of every grid length, so a run repeats each length about
#: five times instead of two and its fastest time steadies.
SWEEP_LENGTHS = tuple(n for n in PAPER_SCHEDULE_LENGTHS if n & (n - 1) == 0)


def tape_seeds(seed: int) -> list[int]:
    """The shelf's tape seeds for one workload seed."""
    return [1 + SHELF_SIZE * seed + index for index in range(SHELF_SIZE)]


def make_shelf(seed: int) -> list[Cartridge]:
    """Generate the shelf: tape-0 .. tape-7 with calibrated models."""
    return [
        Cartridge(f"tape-{index}", generator.generate_tape(seed=tape_seed))
        for index, tape_seed in enumerate(tape_seeds(seed))
    ]


def digest(payload) -> str:
    """SHA-256 of a JSON rendering (floats keep every digit)."""
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Inputs:
    """What ``setup`` generated for one seed."""

    seed: int
    shelf: list[Cartridge] = field(default_factory=list)
    stream: list = field(default_factory=list)
    config: ExperimentConfig | None = None


@dataclass
class Outcome:
    """The public results of one run, reduced to what the benchmark reports.

    ``submitted`` counts simulated requests offered (schedule calls on
    the sweep); ``work`` counts the requests the host processed, the
    numerator of ``host_req_per_s``; ``sim_failed`` counts failed, shed
    and lost requests; ``problems`` lists failed output checks.
    """

    submitted: int
    work: int
    sim_failed: int
    problems: list[str]
    digest: str
    sim: dict[str, float]


# -- library and serve ------------------------------------------------------


def _library_sim(system: MultiDriveSystem) -> dict[str, float]:
    """Simulated layer and end-to-end metrics of a finished library run."""
    stats = system.stats
    completed = stats.count
    makespan = system.clock_seconds
    batches = system.batches
    dispatched = sum(batch.size for batch in batches)
    busy = sum(bay.busy_seconds for bay in system.bays)

    def per_request(phase: str) -> float:
        return sum(getattr(batch, phase) for batch in batches) / completed

    requeues = system.requeues
    return {
        "sim_req_per_h": 3600.0 * completed / makespan,
        "sim_mean_response_s": stats.mean_seconds,
        "sim_p50_response_s": stats.percentile(50),
        "sim_p99_response_s": stats.percentile(99),
        "sim_p999_response_s": stats.percentile(99.9),
        "sim_response_samples": completed,
        "sim.queue.batches": len(batches),
        "sim.queue.mean_batch": dispatched / len(batches),
        "sim.queue.wait_s": (
            sum(batch.queue_wait_seconds for batch in batches) / dispatched
        ),
        "sim.drive.util": busy / (len(system.bays) * makespan),
        "sim.drive.locate_s_per_req": per_request("locate_seconds"),
        "sim.drive.transfer_s_per_req": per_request("transfer_seconds"),
        "sim.drive.rewind_s_per_req": per_request("rewind_seconds"),
        "sim.drive.fault_s_per_req": per_request("fault_seconds"),
        "sim.sched.estimate_gap_s": sum(
            batch.execution_seconds - batch.estimated_seconds
            for batch in batches
        ) / len(batches),
        "sim.robot.exchanges": system.exchanges,
        "sim.robot.exchanges_per_req": system.exchanges / completed,
        "sim.robot.occupancy": system.robot.busy_seconds / makespan,
        "sim.robot.max_arm_occupancy": max(
            system.robot.occupancies(makespan)
        ),
        "sim.resilience.requeues": requeues,
        "sim.resilience.failed": len(system.failed),
        "sim.resilience.useful_frac": completed / (completed + requeues),
    }


def _library_problems(system: MultiDriveSystem) -> list[str]:
    """Output checks every library run must pass."""
    problems = []
    if system.lost:
        problems.append(f"{system.lost} requests lost")
    for index, batch in enumerate(system.batches):
        phases = (
            batch.locate_seconds
            + batch.rewind_seconds
            + batch.transfer_seconds
            + batch.fault_seconds
        )
        if abs(phases - batch.execution_seconds) > PHASE_TOLERANCE_S:
            problems.append(
                f"batch {index}: phases sum to {phases!r} s, "
                f"execution took {batch.execution_seconds!r} s"
            )
            break
    return problems


def _library_payload(system: MultiDriveSystem) -> dict:
    """The simulated outputs the digest covers."""
    return {
        "samples": sorted(system.stats.samples),
        "failed": len(system.failed),
        "requeues": system.requeues,
        "batches": len(system.batches),
        "exchanges": system.exchanges,
    }


class FaultsWorkload:
    """``MultiDriveSystem.run`` over the 8-tape shelf: 4 drives, 2 arms,
    LOSS, ``BatchPolicy(max_batch=32)``, preempt exchange, media aging,
    injected faults with requeues, and the event bus on."""

    name = "lib-faults"
    rate_per_hour = 300.0
    horizon_hours = 48.0

    def setup(self, seed: int) -> Inputs:
        shelf = make_shelf(seed)
        stream = library_requests.poisson_library_stream(
            sorted(cartridge.label for cartridge in shelf),
            rate_per_hour=self.rate_per_hour,
            total_segments=shelf[0].geometry.total_segments,
            seed=seed,
            horizon_seconds=self.horizon_hours * 3600.0,
        )
        return Inputs(seed=seed, shelf=shelf, stream=stream)

    def build(self, inputs: Inputs, tracer=None):
        bus = EventBus()
        bind_standard_metrics(bus)
        system = MultiDriveSystem(
            inputs.shelf,
            drives=4,
            arms=2,
            scheduler=get_scheduler("LOSS"),
            policy=BatchPolicy(max_batch=32),
            exchange=get_exchange_policy("preempt"),
            aging=MediaAgingModel(seed=1 + inputs.seed),
            fault_plan=FaultPlan(
                locate_fault_probability=0.02,
                read_fault_probability=0.15,
                seed=inputs.seed,
            ),
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=1), max_requeues=2
            ),
            bus=bus,
        )
        return system, [lambda: system.run(inputs.stream)]

    def outcome(self, inputs: Inputs, system, results) -> Outcome:
        return Outcome(
            submitted=system.submitted,
            work=system.completed,
            sim_failed=len(system.failed) + system.lost,
            problems=_library_problems(system),
            digest=digest(_library_payload(system)),
            sim=_library_sim(system),
        )


class ServeWorkload:
    """``Gateway.run`` with the ``serve-sim`` defaults over a 4-drive,
    1-arm library."""

    name = "serve-tenants"
    horizon_hours = 48.0

    def setup(self, seed: int) -> Inputs:
        shelf = make_shelf(seed)
        stream = serve_workload.zipf_serve_stream(
            serve_sim.DEFAULT_TENANTS,
            sorted(cartridge.label for cartridge in shelf),
            total_segments=shelf[0].geometry.total_segments,
            horizon_seconds=self.horizon_hours * 3600.0,
            seed=seed,
        )
        return Inputs(seed=seed, shelf=shelf, stream=stream)

    def build(self, inputs: Inputs, tracer=None):
        system = MultiDriveSystem(
            inputs.shelf,
            drives=4,
            arms=1,
            scheduler=get_scheduler("LOSS"),
            policy=DeadlineBatchPolicy(
                max_batch=32,
                deadline_seconds=serve_sim.DEFAULT_DEADLINE_SECONDS,
                cut_slack_seconds=serve_sim.DEFAULT_CUT_SLACK_SECONDS,
            ),
        )
        gateway = Gateway(
            ServeConfig(
                tenants=tuple(
                    TenantConfig(
                        name=spec.name,
                        weight=spec.weight,
                        slo_seconds=serve_sim.DEFAULT_SLO_SECONDS.get(
                            spec.name, math.inf
                        ),
                    )
                    for spec in serve_sim.DEFAULT_TENANTS
                ),
                max_backend_depth=serve_sim.DEFAULT_BACKEND_DEPTH,
            ),
            system=system,
        )
        if tracer is not None:
            # The gateway's outcome listeners run inside the library's
            # completion path; attribute them to the serve layer.
            for hooks in (
                system.completion_listeners, system.failure_listeners,
            ):
                hooks[:] = [
                    tracer.wrap(hook, "serve.listener", "serve")
                    for hook in hooks
                ]
        return gateway, [lambda: gateway.run(inputs.stream)]

    def outcome(self, inputs: Inputs, gateway, results) -> Outcome:
        (report,) = results
        system = gateway.system
        problems = _library_problems(system)
        if report.lost:
            problems.append(f"gateway lost {report.lost} requests")
        gold = next(
            tenant for tenant in report.tenants if tenant.name == "gold"
        )
        sim = _library_sim(system)
        sim.update(
            {
                "sim_gold_p50_s": gold.p50_seconds,
                "sim_gold_p99_s": gold.p99_seconds,
                "sim_gold_samples": gold.completed,
                "sim.serve.shed": report.shed,
            }
        )
        payload = _library_payload(system)
        payload["report"] = report.to_dict()
        return Outcome(
            submitted=report.submitted,
            work=report.completed,
            sim_failed=report.failed + report.shed + report.lost,
            problems=problems,
            digest=digest(payload),
            sim=sim,
        )


# -- the paper's Figure 4 sweep -----------------------------------------------


class SweepWorkload:
    """``figure4.run`` at quick scale over ``SWEEP_LENGTHS``, serial,
    one part per schedule length.

    Every trial draws from its own seed stream, so the cells of one
    length do not depend on the others: the parts' records, merged in
    ``to_dict()`` order, are the records of the whole sweep.
    """

    name = "paper-sweep"

    def setup(self, seed: int) -> Inputs:
        config = ExperimentConfig(
            tape_seed=tape_seeds(seed)[0],
            workload_seed=seed,
            lengths=SWEEP_LENGTHS,
            scale="quick",
        )
        # The sweep's own set-up: one tape and its locate model.
        LocateTimeModel(generator.generate_tape(seed=config.tape_seed))
        return Inputs(seed=seed, config=config)

    def prime(self, inputs: Inputs) -> None:
        """Fill the sweep's per-process tape/model cache, so timed runs
        measure the sweep and not its set-up."""
        figure4.run(replace(inputs.config, lengths=(1,)), workers=1)

    def build(self, inputs: Inputs, tracer=None):
        config = inputs.config
        return None, [
            lambda length=length: figure4.run(
                replace(config, lengths=(length,)), workers=1
            )
            for length in config.effective_lengths
        ]

    def outcome(self, inputs: Inputs, built, results) -> Outcome:
        records = sorted(
            (record for result in results for record in result.to_dict()),
            key=lambda record: (record["algorithm"], record["length"]),
        )
        problems = [
            f"{record['algorithm']} at N={record['length']}: mean "
            f"{record['mean_total_seconds']!r} s"
            for record in records
            if not (
                math.isfinite(record["mean_total_seconds"])
                and record["mean_total_seconds"] > 0
            )
        ]
        loss = [record for record in records if record["algorithm"] == "LOSS"]
        loss_requests = sum(r["length"] * r["trials"] for r in loss)
        loss_seconds = sum(r["mean_total_seconds"] * r["trials"] for r in loss)
        return Outcome(
            submitted=sum(record["trials"] for record in records),
            work=sum(record["length"] * record["trials"] for record in records),
            sim_failed=0,
            problems=problems,
            digest=digest(records),
            sim={"sim_req_per_h": 3600.0 * loss_requests / loss_seconds},
        )


WORKLOADS = {
    workload.name: workload
    for workload in (
        FaultsWorkload(),
        ServeWorkload(),
        SweepWorkload(),
    )
}
