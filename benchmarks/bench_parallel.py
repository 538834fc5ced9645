"""The parallel experiment engine on a reduced Figure 4 grid.

Two guarantees are measured/asserted here:

* **bit identity** — the ``workers=4`` run must reproduce the serial
  run cell for cell (count, mean, std, exact ``==``), on any machine,
  always;
* **speedup** — with at least 4 physical cores the fan-out must beat
  serial by >= 2.5x.  On smaller machines (CI shells, 1-2 core
  containers) the speedup is physically unobservable, so only the
  identity half is asserted there.
"""

from __future__ import annotations

import os
import time

from repro.experiments import ExperimentConfig, run_per_locate

from conftest import run_once

#: Reduced Figure 4 grid: enough work (~seconds serial) to amortize
#: pool start-up, small enough to keep the bench suite fast.
_GRID = (2, 4, 8, 16, 32, 64)
_ALGORITHMS = ("FIFO", "SORT", "LOSS", "OPT")


def _config() -> ExperimentConfig:
    return ExperimentConfig(lengths=_GRID, scale="quick")


def _assert_identical(serial, parallel) -> None:
    assert set(serial.points) == set(parallel.points)
    for key in serial.points:
        a, b = serial.points[key], parallel.points[key]
        assert a.total.count == b.total.count, key
        assert a.total.mean == b.total.mean, key
        assert a.total.std == b.total.std, key


def test_workers4_bit_identical_speedup(benchmark):
    config = _config()
    started = time.perf_counter()
    serial = run_per_locate(
        config, origin_at_start=False, algorithms=_ALGORITHMS,
        workers=1,
    )
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    parallel = run_once(
        benchmark, run_per_locate, config, False,
        algorithms=_ALGORITHMS, workers=4,
    )
    # Wall clock around the (single-round) benchmarked call, so the
    # speedup check also works under --benchmark-disable.
    parallel_seconds = time.perf_counter() - started
    _assert_identical(serial, parallel)

    speedup = serial_seconds / parallel_seconds
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 3)
    benchmark.extra_info["speedup_vs_serial"] = round(speedup, 2)
    cores = os.cpu_count() or 1
    benchmark.extra_info["cores"] = cores
    if cores >= 4:
        assert speedup >= 2.5, (
            f"workers=4 only {speedup:.2f}x faster than serial "
            f"({serial_seconds:.2f}s -> {parallel_seconds:.2f}s) "
            f"on {cores} cores"
        )


def test_workers2_bit_identical(benchmark):
    """The identity guarantee at a second worker count (the timing
    columns across the two benches show how the fan-out scales)."""
    config = _config()
    serial = run_per_locate(
        config, origin_at_start=False, algorithms=_ALGORITHMS,
        workers=1,
    )
    parallel = run_once(
        benchmark, run_per_locate, config, False,
        algorithms=_ALGORITHMS, workers=2,
    )
    _assert_identical(serial, parallel)
