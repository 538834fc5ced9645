"""Quickstart: schedule a batch of random reads on a serpentine tape.

Generates a synthetic DLT4000 cartridge, builds its locate-time model,
schedules one batch of random requests with every algorithm from the
paper, and executes the winners on a simulated drive.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    EventBus,
    LocateTimeModel,
    SimulatedDrive,
    execute_schedule,
    generate_tape,
    get_scheduler,
)

BATCH_SIZE = 48
SEED = 7


def main() -> None:
    # A cartridge is characterized once (here: generated synthetically;
    # on real hardware: calibrated via repro.geometry.calibration).
    tape = generate_tape(seed=SEED)
    model = LocateTimeModel(tape)
    print(f"cartridge {tape.label}: {tape.total_segments} segments, "
          f"{tape.num_tracks} tracks")

    # A batch of uniformly random reads, head parked at segment 0.
    rng = np.random.default_rng(SEED)
    batch = rng.choice(
        tape.total_segments, size=BATCH_SIZE, replace=False
    ).tolist()

    print(f"\nscheduling {BATCH_SIZE} random reads:")
    print(f"{'algorithm':<10} {'est. total':>12} {'s/request':>10}")
    for name in ("FIFO", "SORT", "SCAN", "WEAVE", "SLTF", "LOSS"):
        schedule = get_scheduler(name).schedule(model, 0, batch)
        print(
            f"{name:<10} {schedule.estimated_seconds:>10.1f} s "
            f"{schedule.estimated_seconds / BATCH_SIZE:>9.1f}"
        )

    # Execute the LOSS schedule on a simulated drive and confirm the
    # estimate matches the measurement (same model on both sides).
    schedule = get_scheduler("LOSS").schedule(model, 0, batch)
    bus = EventBus()
    drive_ops = bus.collect("drive.op")
    drive = SimulatedDrive(model, bus=bus)
    result = execute_schedule(drive, schedule)
    print(f"\nLOSS executed: {result.total_seconds:.1f} s measured "
          f"vs {schedule.estimated_seconds:.1f} s estimated")
    print(f"  positioning {result.locate_seconds:.1f} s, "
          f"transfer {result.transfer_seconds:.1f} s, "
          f"{len(drive_ops)} drive events")


if __name__ == "__main__":
    main()
