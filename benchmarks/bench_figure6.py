"""Figure 6 — CPU seconds to generate a schedule.

Absolute values are modern-hardware numbers; the reproduction target is
the growth ordering: OPT exponential, LOSS clearly superlinear, the
others cheap.

The ledger test records schedules per second of each polynomial
scheduler at the Figure 6 sizes n = 64..4096, and of OPT at n = 8..12,
as ``extra_info`` keys ``<ALGORITHM>@<n>_per_s``: the whole
``schedule()`` call (bounds check, ordering, permutation check and
estimate) on one uniform batch of the tape-seed-1 cartridge, best of
``LEDGER_REPEATS`` calls.
"""

import time

from conftest import run_once

from repro.experiments import ExperimentConfig, figure6
from repro.geometry import generate_tape
from repro.model import LocateTimeModel
from repro.scheduling import get_scheduler
from repro.workload import UniformWorkload

LEDGER_SIZES = (64, 256, 1024, 4096)
LEDGER_ALGORITHMS = ("FIFO", "SORT", "SCAN", "WEAVE", "SLTF", "LOSS")
LEDGER_REPEATS = 5
#: OPT's exponential column: Held–Karp up to the paper's largest batch.
LEDGER_OPT_SIZES = (8, 10, 12)


def test_figure6(benchmark):
    config = ExperimentConfig(
        scale="quick", lengths=(4, 8, 12, 64, 192)
    )
    result = run_once(benchmark, figure6.run, config)

    # OPT's cost explodes with size while SORT stays flat.
    opt8 = result.point("OPT", 8).cpu.mean
    opt12 = result.point("OPT", 12).cpu.mean
    assert opt12 > 4 * opt8

    # LOSS at 192 costs more CPU than SORT at 192.
    loss = result.point("LOSS", 192).cpu.mean
    sort = result.point("SORT", 192).cpu.mean
    assert loss > sort

    benchmark.extra_info["opt@12_s"] = round(opt12, 5)
    benchmark.extra_info["loss@192_s"] = round(loss, 5)


def schedules_per_second() -> dict[str, float]:
    """The ledger: ``{"<ALGORITHM>@<n>_per_s": schedules per second}``."""
    tape = generate_tape(seed=1)
    model = LocateTimeModel(tape)
    workload = UniformWorkload(total_segments=tape.total_segments, seed=7)
    columns = [(size, LEDGER_ALGORITHMS) for size in LEDGER_SIZES]
    columns += [(size, ("OPT",)) for size in LEDGER_OPT_SIZES]
    ledger = {}
    for size, names in columns:
        origin, batch = workload.sample_batch_with_origin(size, False)
        batch = batch.tolist()
        for name in names:
            scheduler = get_scheduler(name)
            fastest = float("inf")
            for _ in range(LEDGER_REPEATS):
                started = time.perf_counter()
                scheduler.schedule(model, origin, batch)
                fastest = min(fastest, time.perf_counter() - started)
            ledger[f"{name}@{size}_per_s"] = round(1.0 / fastest, 1)
    return ledger


def test_figure6_ledger(benchmark):
    ledger = run_once(benchmark, schedules_per_second)
    assert len(ledger) == len(LEDGER_SIZES) * len(LEDGER_ALGORITHMS) + len(
        LEDGER_OPT_SIZES
    )
    assert all(rate > 0 for rate in ledger.values())
    benchmark.extra_info.update(ledger)
