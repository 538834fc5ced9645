"""Benchmark of the repro tape-library simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload lib-faults --seed 0 \\
        --seconds 42 --trace 0

The program is imported from ``src/`` of the current directory.  The
run generates its inputs from ``--seed``, sets them up once and primes
lazy state, then repeats the timed region at least twice and then while
the next repeat is expected to end within ``--seconds`` of the start.
The timed region is split into parts where the workload allows (one
per schedule length on the sweep), each timed on its own.  Every few
seconds a set-up pass and one ``import repro`` in a fresh interpreter
are interleaved, so all three timings sample the whole window.
``run_s`` is the sum over parts of each part's fastest time,
``import_s`` the fastest probe and ``setup_s`` the median set-up pass.
With ``--trace 1`` the run instead spends half the window on untraced
repeats and then runs once with span wrappers installed around every
layer boundary, and reports the per-layer metrics.

Every repeat's outputs are checked: no lost requests, per-batch phases
that partition execution time, a digest equal across repeats, and --
for the seeds in ``expected.json`` -- equal to the recorded digest.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it are a human-readable table of every metric.  The aggregated spans of
a traced run are written to ``.perfbench/`` in the current directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"

#: Seconds between the set-up passes and ``import repro`` probes
#: interleaved with the timed repeats of an untraced run.
PROBE_PERIOD_S = 4.0

#: Fewest set-up passes and ``import repro`` probes per untraced run;
#: any missing when the window ends are taken then.
MIN_PROBES = 5

#: Timings of the calibration loop per traced run (median reported).
CALIB_REPEATS = 5

#: Fewest timed repeats of an untraced run, however long each takes.
MIN_REPEATS = 2

_IMPORT_PROBE = (
    "import time\n"
    "started = time.perf_counter()\n"
    "import repro\n"
    "print(time.perf_counter() - started)\n"
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def time_import() -> float:
    """Seconds ``import repro`` takes in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout.strip().splitlines()[-1])


def calibration_loop() -> float:
    """Seconds of a fixed pure-Python loop: tells a slow host from a
    slow commit."""
    started = perf_counter()
    total = 0
    for value in range(1_000_000):
        total += value * value
    return perf_counter() - started


def expected_digest(workload: str, seed: int) -> str | None:
    table = json.loads(EXPECTED.read_text())["workloads"]
    entry = table.get(workload, {}).get(str(seed))
    return None if entry is None else entry["digest"]


def timed_repeats(
    workload, current_inputs, deadline, fewest, between=None, tracer=None,
):
    """Repeats of the timed region: ``fewest`` whole ones, then more
    while the next part, if it takes as long as it did last time, ends
    by ``deadline``.  A repeat cut short takes the previous repeat's
    results for the parts it did not run, so its outcome still checks
    every part it ran.  ``between()`` runs before every part but the
    first.  Returns (seconds of each part run, outcome) per repeat."""
    reps = []
    last_seconds: list[float] = []
    last_results: list = []

    def due(index: int) -> bool:
        return (
            len(reps) < fewest
            or perf_counter() + last_seconds[index] <= deadline
        )

    while due(0):
        if reps and between is not None:
            # Before building, so that a set-up pass never has two
            # shelves in memory at once.
            between()
        inputs = current_inputs()
        built, parts = workload.build(inputs, tracer)
        seconds, results = [], []
        for index, part in enumerate(parts):
            if index and not due(index):
                break
            if index and between is not None:
                between()
            gc.collect()  # every part starts from the same heap
            started = perf_counter()
            results.append(part())
            seconds.append(perf_counter() - started)
        last_seconds[:len(seconds)] = seconds
        if len(parts) > 1:  # one-part results are never reused
            last_results[:len(results)] = results
        reps.append(
            (seconds, workload.outcome(inputs, built, last_results or results))
        )
        inputs = built = None
        if len(seconds) < len(parts):
            break
    return reps


def run_once(workload, inputs, tracer=None):
    """Build and run the timed region once: (seconds per part, outcome)."""
    (rep,) = timed_repeats(
        workload, lambda: inputs, -math.inf, 1, tracer=tracer
    )
    return rep


def fastest(reps) -> float:
    """The sum over parts of each part's fastest time: a busy host only
    ever adds time, so the minimum moves least when host speed drifts,
    and a short part finds a quiet moment more often than a long one."""
    return sum(
        min(samples)
        for samples in zip_longest(
            *(seconds for seconds, _ in reps), fillvalue=math.inf
        )
    )


def fail_frac(outcome, checks_failed: bool) -> float:
    """(failed + shed + lost + output-check failures) / submitted; a run
    whose outputs fail a check fails every request it served."""
    if checks_failed:
        return 1.0
    return outcome.sim_failed / outcome.submitted


def check_outputs(workload: str, seed: int, reps) -> list[str]:
    """Failed output checks of a run's repeats (empty when all pass)."""
    problems = [problem for _, outcome in reps for problem in outcome.problems]
    digests = {outcome.digest for _, outcome in reps}
    if len(digests) > 1:
        problems.append(f"outputs differ between repeats: {sorted(digests)}")
    recorded = expected_digest(workload, seed)
    if recorded is None:
        print(
            f"perfbench: no recorded digest for {workload} seed {seed}; "
            "checked repeat-to-repeat agreement only",
            file=sys.stderr,
        )
    elif digests != {recorded}:
        problems.append(
            f"output digest {sorted(digests)} != recorded {recorded}"
        )
    return problems


def end_to_end(reps, setup_times, import_times, checks_failed) -> dict:
    run_s = fastest(reps)
    outcome = reps[0][1]
    return {
        "setup_s": statistics.median(setup_times),
        "import_s": min(import_times),
        "run_s": run_s,
        "host_req_per_s": outcome.work / run_s,
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ),
        "ok_frac": 1.0 - fail_frac(outcome, checks_failed),
        "sim_req_per_h": outcome.sim["sim_req_per_h"],
    }


def traced_run(workload, inputs, seed: int, untraced_s: float):
    """One set-up and run with every layer boundary wrapped; returns the
    repeat, the tracer, and the host per-layer metrics."""
    import layers
    from tracer import Tracer

    calib_s = statistics.median(
        calibration_loop() for _ in range(CALIB_REPEATS)
    )
    tracer = Tracer()
    layers.install(tracer)
    try:
        workload.setup(seed)
        traced = run_once(workload, inputs, tracer)
    finally:
        tracer.restore()
    host = layers.metrics(tracer)
    host["trace.overhead_s"] = sum(traced[0]) - untraced_s
    host["host.calib_s"] = calib_s
    return traced, tracer, host


def main(argv=None) -> int:
    began = perf_counter()  # the window includes warm-up
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no src/repro in {ROOT}; run from the root of a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import layers
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; pick from "
            f"{', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {
        metric["name"]: metric["unit"]
        for metric in declared["end_to_end"] + declared["per_layer"]
    }

    inputs = workload.setup(args.seed)  # warm-up pass, untimed
    if hasattr(workload, "prime"):
        workload.prime(inputs)
    setup_times: list[float] = []
    import_times: list[float] = []
    last_probe = perf_counter()

    def set_up() -> None:
        nonlocal inputs
        inputs = None  # one shelf in memory at a time
        started = perf_counter()
        inputs = workload.setup(args.seed)
        setup_times.append(perf_counter() - started)

    def probe() -> None:
        # A set-up pass and an import probe every few seconds, so both
        # sample the whole window of a host whose speed drifts.
        nonlocal last_probe
        if perf_counter() - last_probe >= PROBE_PERIOD_S:
            set_up()
            import_times.append(time_import())
            last_probe = perf_counter()

    if args.trace:
        reps = timed_repeats(
            workload, lambda: inputs, began + args.seconds / 2, 1
        )
        traced, tracer, host = traced_run(
            workload, inputs, args.seed, fastest(reps)
        )
        all_reps = reps + [traced]
    else:
        reps = all_reps = timed_repeats(
            workload, lambda: inputs, began + args.seconds, MIN_REPEATS,
            between=probe,
        )
        while len(setup_times) < MIN_PROBES:
            set_up()
        while len(import_times) < MIN_PROBES:
            import_times.append(time_import())

    problems = check_outputs(args.workload, args.seed, all_reps)
    outcome = reps[0][1]
    # The simulated metrics that are not end-to-end ones.
    sim = {
        name: value for name, value in outcome.sim.items()
        if name != "sim_req_per_h"
    }
    if args.trace:
        problems += layers.zero_violations(args.workload, host)
        values = dict.fromkeys(
            (metric["name"] for metric in declared["per_layer"]), 0
        )
        values.update(sim)
        values.update(host)
        values["fail_frac"] = fail_frac(outcome, bool(problems))
        metrics = table = values
    else:
        metrics = end_to_end(
            reps, setup_times, import_times, bool(problems)
        )
        table = {**metrics, **sim, "repeats": len(reps)}

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}")
    for name, value in table.items():
        print(f"  {name:36s} {value:>18.6g} {units.get(name, 'count')}")
    for problem in problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "problems": problems,
        "setup_seconds": setup_times,
        "import_seconds": import_times,
        "repeat_seconds": [seconds for seconds, _ in all_reps],
        "metrics": table,
    }
    if args.trace:
        record["spans"] = tracer.to_dict()
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True))

    attempted = sum(outcome.submitted for _, outcome in all_reps)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted if problems else 0,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
