"""Command-line interface: regenerate any figure or table of the paper.

Examples::

    python -m repro figure4 --scale quick
    python -m repro figure8
    python -m repro summary --scale full
    python -m repro all --max-length 256
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Sequence

from repro.experiments import (
    cache_sim,
    chaos,
    drive_generations,
    figure1,
    figure4,
    figure5,
    figure6,
    figure7,
    figure7_empirical,
    figure8,
    figure9,
    figure10,
    library_sim,
    optimality,
    section3_stats,
    seed_stability,
    serve_sim,
    summary_table,
    trace_run,
)
from repro.experiments.config import ExperimentConfig

#: Experiments that take an :class:`ExperimentConfig`.
_CONFIGURED = {
    "figure4": figure4.main,
    "figure5": figure5.main,
    "figure6": figure6.main,
    "figure7": figure7.main,
    "figure8": figure8.main,
    "figure9": figure9.main,
    "figure10": figure10.main,
    "figure7x": figure7_empirical.main,
    "summary": summary_table.main,
    "seeds": seed_stability.main,
    "generations": drive_generations.main,
    "gaps": optimality.main,
}

#: Experiments keyed only by the tape seed.
_SEED_ONLY = {
    "figure1": figure1.main,
    "section3": section3_stats.main,
}

#: Experiments whose ``main`` accepts a ``workers`` count (the sweeps
#: the parallel engine fans out).
_WORKERED = {
    "figure4", "figure5", "figure6", "figure7", "figure8", "figure9",
    "figure10",
}

#: Execution order for ``all``.
_ALL_ORDER = (
    "figure1", "section3", "figure4", "figure5", "figure6", "figure7",
    "figure7x", "figure8", "figure9", "figure10", "summary", "seeds",
    "generations", "gaps",
)


def positive_finite(text: str) -> float:
    """argparse ``type=``: a float in (0, inf).

    argparse turns the ``ValueError`` into a usage error (exit 2) that
    names the flag, so 0, negatives, NaN and inf never reach a
    simulation (a NaN or infinite horizon would never end).
    """
    value = float(text)
    if not 0 < value < math.inf:
        raise ValueError(f"{text!r} is not positive and finite")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-tape",
        description=(
            "Regenerate the evaluation of Hillyer & Silberschatz, "
            "'Random I/O Scheduling in Online Tertiary Storage "
            "Systems' (SIGMOD 1996)."
        ),
        epilog=(
            "Additionally, 'repro lint [PATH...]' runs the "
            "repo-aware static-analysis gate (RPR001-RPR010, "
            "including the cross-module flow analyses); see "
            "'repro lint --help' and docs/STATIC_ANALYSIS.md."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(
            {*_CONFIGURED, *_SEED_ONLY, "cache-sim", "chaos",
             "library-sim", "optimality", "serve-sim", "trace", "all"}
        ),
        help=(
            "which figure/table to regenerate, 'cache-sim' for the "
            "disk staging cache extension, 'chaos' for a fault-"
            "injection sweep of the hardened serving path, "
            "'library-sim' for the multi-drive robotic library sweep, "
            "'optimality' for the LTSP frontier chart (exact linear "
            "optimum vs every heuristic past the Held-Karp ceiling), "
            "'serve-sim' for the multi-tenant SLA gateway sweep, "
            "or 'trace' for an instrumented run with telemetry "
            "cross-checks"
        ),
    )
    parser.add_argument(
        "--scale",
        choices=("quick", "full", "paper"),
        default="quick",
        help="trial-count scale (default: quick)",
    )
    parser.add_argument(
        "--tape-seed", type=int, default=1,
        help="seed of the synthetic cartridge (default: 1)",
    )
    parser.add_argument(
        "--workload-seed", type=int, default=0,
        help="srand48 seed for the workload (default: 0)",
    )
    parser.add_argument(
        "--max-length", type=int, default=None,
        help="truncate the schedule-length grid",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help=(
            "fan trials out over N worker processes (0 = all CPUs); "
            "statistics are bit-identical for every N (default: 1)"
        ),
    )
    parser.add_argument(
        "--chart", action="store_true",
        help="also render figures 4/5 as ASCII log-log charts",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="also export the result to FILE (.csv or .json)",
    )
    cache = parser.add_argument_group(
        "cache-sim options (ignored by the paper experiments)"
    )
    cache.add_argument(
        "--cache-capacity", type=int, action="append", default=None,
        metavar="SEGMENTS",
        help=(
            "staging capacity in segments; repeat the flag for a sweep "
            "(default: 1/5/20/50%% of the hot set)"
        ),
    )
    cache.add_argument(
        "--cache-policy", choices=("fifo", "lru", "gdsf"),
        default="gdsf", help="eviction policy (default: gdsf)",
    )
    cache.add_argument(
        "--cache-admission", choices=("always", "frequency", "cost"),
        default="always", help="admission policy (default: always)",
    )
    cache.add_argument(
        "--no-prefetch", action="store_true",
        help="disable opportunistic read-through prefetch",
    )
    cache.add_argument(
        "--zipf-alpha", type=float, default=0.8,
        help="Zipf skew of the workload (default: 0.8)",
    )
    cache.add_argument(
        "--hot-set", type=int, default=4_000,
        help="distinct hot segments in the workload (default: 4000)",
    )
    cache.add_argument(
        "--rate-per-hour", type=positive_finite, default=120.0,
        help="Poisson arrival rate (default: 120)",
    )
    cache.add_argument(
        "--horizon-hours", type=positive_finite, default=None,
        help="simulated hours (default: set by --scale)",
    )
    chaos_group = parser.add_argument_group(
        "chaos options (ignored by the paper experiments)"
    )
    chaos_group.add_argument(
        "--retry-probability", type=float, action="append",
        default=None, metavar="P",
        help=(
            "per-locate probability of a retryable fault; repeat the "
            "flag for a sweep (default: 0 0.05 0.1 0.2)"
        ),
    )
    chaos_group.add_argument(
        "--read-error-probability", type=float, default=0.0,
        metavar="P",
        help="per-read probability of a read fault (default: 0)",
    )
    chaos_group.add_argument(
        "--reset-probability", type=float, default=0.0, metavar="P",
        help=(
            "per-locate probability of a full drive reset "
            "(default: 0)"
        ),
    )
    chaos_group.add_argument(
        "--max-attempts", type=int, default=5,
        help="in-place retry budget per request (default: 5)",
    )
    chaos_group.add_argument(
        "--max-requeues", type=int, default=2,
        help=(
            "times a failed request re-enters the batch queue before "
            "it is surfaced as failed (default: 2)"
        ),
    )
    chaos_group.add_argument(
        "--library", action="store_true",
        help=(
            "chaos: run the durability variant instead — logical "
            "reads on a replicated striped volume over the multi-arm "
            "library, with media aging, injected faults, degraded "
            "reads, and background repair traffic; exits non-zero on "
            "any silent loss or on data loss despite redundancy"
        ),
    )
    chaos_group.add_argument(
        "--replicas", type=int, action="append", default=None,
        metavar="R",
        help=(
            "chaos --library: redundancy level; repeat the flag for "
            "a sweep (default: 1 2 3, or 1 2 with --smoke)"
        ),
    )
    chaos_group.add_argument(
        "--stripe-unit", type=int, default=4, metavar="N",
        help=(
            "chaos --library: logical segments per stripe unit "
            "(default: 4)"
        ),
    )
    library = parser.add_argument_group(
        "library-sim options (ignored by the paper experiments)"
    )
    library.add_argument(
        "--drives", type=int, action="append", default=None,
        metavar="N",
        help=(
            "drive count; repeat the flag for a sweep "
            "(default: 1 2 4)"
        ),
    )
    library.add_argument(
        "--cartridges", type=int, default=None, metavar="N",
        help="cartridges on the shelf (default: 8)",
    )
    library.add_argument(
        "--assignment-policy", action="append", default=None,
        metavar="NAME",
        help=(
            "tape-to-drive assignment policy; repeat the flag for a "
            "sweep (default: affinity least-loaded)"
        ),
    )
    library.add_argument(
        "--exchange-policy", default="drain", metavar="NAME",
        help=(
            "when a mounted tape may be released back to the shelf "
            "(default: drain)"
        ),
    )
    library.add_argument(
        "--arms", type=int, action="append", default=None,
        metavar="K",
        help=(
            "robot arms in the pool; library-sim: repeat the flag "
            "for a sweep (default: 1 2); chaos --library: the last "
            "value given is used (default: 2)"
        ),
    )
    library.add_argument(
        "--arm-policy", default="least-busy", metavar="NAME",
        help=(
            "arm-assignment policy for multi-arm pools "
            "(default: least-busy)"
        ),
    )
    serve = parser.add_argument_group(
        "serve-sim options (ignored by the paper experiments)"
    )
    serve.add_argument(
        "--backend-depth", type=int, default=None, metavar="N",
        help=(
            "backpressure: released-but-unfinished requests allowed "
            "in the backend at once (default: "
            f"{serve_sim.DEFAULT_BACKEND_DEPTH}; 0 = unbounded)"
        ),
    )
    frontier = parser.add_argument_group(
        "optimality options (ignored by the paper experiments)"
    )
    frontier.add_argument(
        "--frontier-length", type=int, action="append", default=None,
        metavar="N",
        help=(
            "frontier batch size; repeat the flag for a sweep "
            f"(default: {' '.join(map(str, optimality.DEFAULT_FRONTIER_LENGTHS))})"
        ),
    )
    frontier.add_argument(
        "--frontier-algorithm", action="append", default=None,
        metavar="NAME",
        help=(
            "strategy charted against the exact linear optimum; "
            "repeat the flag for a sweep (default: "
            f"{' '.join(optimality.DEFAULT_FRONTIER_ALGORITHMS)})"
        ),
    )
    frontier.add_argument(
        "--frontier-trials", type=int, default=3, metavar="N",
        help="trials per frontier batch size (default: 3)",
    )
    frontier.add_argument(
        "--no-frontier", action="store_true",
        help="optimality: print only the lower-bound gap table",
    )
    trace = parser.add_argument_group(
        "trace options (ignored by the paper experiments)"
    )
    trace.add_argument(
        "--trace-jsonl", default=None, metavar="FILE",
        help="write the raw event stream as JSON Lines",
    )
    trace.add_argument(
        "--smoke", action="store_true",
        help=(
            "trace: exit non-zero unless the telemetry cross-checks "
            "hold; library-sim: shrink to the CI gate (2 drives, one "
            "policy, short horizon); serve-sim: shrink to the CI "
            "gate (2 drives, 10k users, short horizon)"
        ),
    )
    trace.add_argument(
        "--algorithm", default="LOSS",
        help="scheduling algorithm for the run (default: LOSS)",
    )
    trace.add_argument(
        "--max-batch", type=int, default=96,
        help="batch-queue flush size (default: 96)",
    )
    return parser


def run_experiment(
    name: str,
    config: ExperimentConfig,
    chart: bool = False,
    out: str | None = None,
    workers: int = 1,
) -> None:
    """Dispatch one experiment by name."""
    if name in _SEED_ONLY:
        _SEED_ONLY[name](tape_seed=config.tape_seed)
        return
    if name in _WORKERED:
        result = _CONFIGURED[name](config, workers=workers)
    else:
        result = _CONFIGURED[name](config)
    if chart and name in ("figure4", "figure5"):
        from repro.experiments.ascii_plot import render_per_locate_result

        print(render_per_locate_result(result))
        print()
    if out is not None:
        from repro.experiments.export import write_result

        written = write_result(result, out)
        print(f"exported to {written}")


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "lint":
        # The static-analysis gate has its own option surface; hand
        # off before the experiment parser rejects its flags.
        from repro.lint.cli import main as lint_main

        return lint_main(arguments[1:])
    parser = build_parser()
    args = parser.parse_args(arguments)
    if args.cache_capacity and any(c < 1 for c in args.cache_capacity):
        parser.error("--cache-capacity must be >= 1 segment")
    if args.workers < 0:
        parser.error("--workers must be >= 0 (0 = all CPUs)")
    config = ExperimentConfig(
        tape_seed=args.tape_seed,
        workload_seed=args.workload_seed,
        scale=args.scale,
        max_length=args.max_length,
    )
    if args.experiment == "cache-sim":
        result = cache_sim.main(
            config,
            capacities=(
                tuple(args.cache_capacity)
                if args.cache_capacity else None
            ),
            alpha=args.zipf_alpha,
            hot_set=args.hot_set,
            rate_per_hour=args.rate_per_hour,
            horizon_hours=args.horizon_hours,
            policy=args.cache_policy,
            admission=args.cache_admission,
            prefetch=not args.no_prefetch,
            workers=args.workers,
        )
        if args.out is not None:
            from repro.experiments.export import write_result

            written = write_result(result, args.out)
            print(f"exported to {written}")
        return 0
    if args.experiment == "chaos":
        probabilities = [
            *(args.retry_probability or ()),
            args.read_error_probability,
            args.reset_probability,
        ]
        if any(not 0.0 <= p <= 1.0 for p in probabilities):
            parser.error("fault probabilities must be in [0, 1]")
        if args.max_attempts < 1:
            parser.error("--max-attempts must be >= 1")
        if args.max_requeues < 0:
            parser.error("--max-requeues must be >= 0")
        if args.library:
            if args.replicas and any(r < 1 for r in args.replicas):
                parser.error("--replicas must be >= 1")
            if args.stripe_unit < 1:
                parser.error("--stripe-unit must be >= 1")
            if args.arms and any(k < 1 for k in args.arms):
                parser.error("--arms must be >= 1")
            lib_result = chaos.main_library(
                config,
                replicas=(
                    tuple(args.replicas) if args.replicas else None
                ),
                drives=(args.drives or [4])[-1],
                arms=(args.arms or [2])[-1],
                cartridges=(
                    args.cartridges if args.cartridges is not None
                    else 6
                ),
                stripe_unit=args.stripe_unit,
                rate_per_hour=args.rate_per_hour,
                horizon_hours=args.horizon_hours,
                smoke=args.smoke,
            )
            if args.out is not None:
                from repro.experiments.export import write_result

                written = write_result(lib_result, args.out)
                print(f"exported to {written}")
            # Both durability invariants are correctness gates: no
            # silent loss, and no data loss once replicated.
            return 0 if lib_result.ok else 1
        result = chaos.main(
            config,
            fault_rates=(
                tuple(args.retry_probability)
                if args.retry_probability else None
            ),
            read_fault_probability=args.read_error_probability,
            reset_probability=args.reset_probability,
            rate_per_hour=args.rate_per_hour,
            horizon_hours=args.horizon_hours,
            max_attempts=args.max_attempts,
            max_requeues=args.max_requeues,
            max_batch=args.max_batch,
            algorithm=args.algorithm,
        )
        if args.out is not None:
            from repro.experiments.export import write_result

            written = write_result(result, args.out)
            print(f"exported to {written}")
        # Losing a request is a resilience-layer bug, not a statistic.
        return 0 if result.all_complete else 1
    if args.experiment == "library-sim":
        if args.drives and any(d < 1 for d in args.drives):
            parser.error("--drives must be >= 1")
        if args.cartridges is not None and args.cartridges < 1:
            parser.error("--cartridges must be >= 1")
        if args.arms and any(k < 1 for k in args.arms):
            parser.error("--arms must be >= 1")
        result = library_sim.main(
            config,
            drives=tuple(args.drives) if args.drives else None,
            arms=tuple(args.arms) if args.arms else None,
            arm_policy=args.arm_policy,
            cartridges=(
                args.cartridges if args.cartridges is not None
                else library_sim.DEFAULT_CARTRIDGES
            ),
            assignments=(
                tuple(args.assignment_policy)
                if args.assignment_policy else None
            ),
            exchange=args.exchange_policy,
            rates=(args.rate_per_hour,),
            horizon_hours=args.horizon_hours,
            max_batch=args.max_batch,
            algorithm=args.algorithm,
            smoke=args.smoke,
        )
        if args.out is not None:
            from repro.experiments.export import write_result

            written = write_result(result, args.out)
            print(f"exported to {written}")
        # A request that neither completed nor failed is a kernel
        # bug, not a statistic.
        return 0 if result.all_complete else 1
    if args.experiment == "serve-sim":
        if args.drives and any(d < 1 for d in args.drives):
            parser.error("--drives must be >= 1")
        if args.cartridges is not None and args.cartridges < 1:
            parser.error("--cartridges must be >= 1")
        if args.backend_depth is not None and args.backend_depth < 0:
            parser.error("--backend-depth must be >= 0 (0 = unbounded)")
        if args.backend_depth is None:
            backend_depth = serve_sim.DEFAULT_BACKEND_DEPTH
        elif args.backend_depth == 0:
            backend_depth = None
        else:
            backend_depth = args.backend_depth
        result = serve_sim.main(
            config,
            drives=tuple(args.drives) if args.drives else None,
            cartridges=(
                args.cartridges if args.cartridges is not None
                else serve_sim.DEFAULT_CARTRIDGES
            ),
            horizon_hours=args.horizon_hours,
            max_batch=args.max_batch,
            algorithm=args.algorithm,
            backend_depth=backend_depth,
            smoke=args.smoke,
        )
        if args.out is not None:
            from repro.experiments.export import write_result

            written = write_result(result, args.out)
            print(f"exported to {written}")
        # A silently dropped request or a blown p999 SLO is a
        # serving-layer bug, not a statistic.
        return 0 if result.all_complete and result.slo_ok else 1
    if args.experiment == "optimality":
        if args.frontier_length and any(
            n < 2 for n in args.frontier_length
        ):
            parser.error("--frontier-length must be >= 2")
        if args.frontier_trials < 1:
            parser.error("--frontier-trials must be >= 1")
        frontier_lengths = (
            tuple(args.frontier_length) if args.frontier_length
            else optimality.DEFAULT_FRONTIER_LENGTHS
        )
        frontier_trials = args.frontier_trials
        if args.smoke:
            # The CI gate: a short grid that still crosses the
            # Held-Karp ceiling.
            frontier_lengths = (8, 48, 192)
            frontier_trials = 1
        result = optimality.run(
            config,
            frontier=not args.no_frontier,
            frontier_algorithms=(
                tuple(args.frontier_algorithm)
                if args.frontier_algorithm
                else optimality.DEFAULT_FRONTIER_ALGORITHMS
            ),
            frontier_lengths=frontier_lengths,
            frontier_trials=frontier_trials,
        )
        optimality.report(result)
        if args.out is not None:
            from repro.experiments.export import write_result

            written = write_result(
                result.frontier if result.frontier is not None
                else result,
                args.out,
            )
            print(f"exported to {written}")
        # A heuristic beating the exact linear optimum is a solver
        # bug, not a statistic.
        if result.frontier is not None:
            worst = min(
                (stats.mean for stats in result.frontier.gaps.values()),
                default=0.0,
            )
            return 0 if worst >= -1e-6 else 1
        return 0
    if args.experiment == "trace":
        result = trace_run.main(
            config,
            algorithm=args.algorithm,
            rate_per_hour=args.rate_per_hour,
            horizon_hours=args.horizon_hours,
            max_batch=args.max_batch,
            trace_jsonl=args.trace_jsonl,
            smoke=args.smoke,
        )
        if args.out is not None:
            from repro.experiments.export import write_result

            written = write_result(result, args.out)
            print(f"exported to {written}")
        return 0
    names = _ALL_ORDER if args.experiment == "all" else (args.experiment,)
    if args.out is not None and len(names) > 1:
        raise SystemExit("--out works with a single experiment")
    for name in names:
        run_experiment(
            name, config, chart=args.chart, out=args.out,
            workers=args.workers,
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
