"""Command-line interface: regenerate any figure or table of the paper.

Every experiment is a subcommand that declares only the flags it reads
(``repro <experiment> --help`` lists them); a bad value is a usage
error at parse time.  Exit status:

* 0 — the experiment ran (and its gate, if any, held);
* 1 — a gate failed: ``chaos`` lost a request, ``chaos --library``
  broke a durability invariant, ``library-sim`` lost a request,
  ``serve-sim`` lost a request or blew a p999 SLO, ``optimality``
  charted a heuristic below the exact optimum, or ``trace --smoke``
  found a broken telemetry cross-check;
* 2 — a usage error (unknown experiment, flag or value).

Examples::

    python -m repro figure4 --scale quick
    python -m repro figure8
    python -m repro summary --scale full
    python -m repro all --workers 0
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import NamedTuple

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
from repro.library.policies import (
    arm_policy_names,
    assignment_policy_names,
    exchange_policy_names,
)
from repro.scheduling import scheduler_names


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


def probability(text: str) -> float:
    """argparse ``type=``: a float in [0, 1] (NaN is rejected)."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{text!r} is not in [0, 1]")
    return value


def at_least(minimum: int) -> Callable[[str], int]:
    """argparse ``type=`` factory: an integer >= ``minimum``."""

    def convert(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise ValueError(f"{text!r} is below {minimum}")
        return value

    # argparse names the type in its usage error, e.g.
    # "argument --drives: invalid integer >= 1 value: '0'".
    convert.__name__ = f"integer >= {minimum}"
    return convert


def export_path(text: str) -> str:
    """argparse ``type=``: a .csv or .json name, checked before a run."""
    if Path(text).suffix not in (".csv", ".json"):
        raise ValueError(f"{text!r} is not a .csv or .json file")
    return text


#: Every flag, defined once; each experiment picks the ones it reads.
#: Repeatable (``append``) flags keep ``default=None``: argparse would
#: append to a non-None default list.
_FLAGS: dict[str, dict] = {
    # The ExperimentConfig fields.
    "--scale": dict(
        choices=("quick", "full", "paper"), default="quick",
        help="trial-count scale (default: quick)"),
    "--tape-seed": dict(
        type=at_least(0), default=1,
        help="seed of the synthetic cartridge (default: 1)"),
    "--workload-seed": dict(
        type=int, default=0,
        help="srand48 seed for the workload (default: 0)"),
    "--max-length": dict(
        type=at_least(1), help="truncate the schedule-length grid"),
    "--workers": dict(
        type=at_least(0), default=1, metavar="N",
        help="fan trials out over N worker processes (0 = all CPUs); "
        "statistics are bit-identical for every N (default: 1)"),
    "--chart": dict(
        action="store_true",
        help="also render figures 4/5 as ASCII log-log charts"),
    "--out": dict(
        type=export_path, metavar="FILE",
        help="also export the result to FILE (.csv or .json)"),
    # The online simulations.
    "--rate-per-hour": dict(
        type=positive_finite, default=120.0,
        help="Poisson arrival rate (default: 120)"),
    "--horizon-hours": dict(
        type=positive_finite,
        help="simulated hours (default: set by --scale)"),
    "--max-batch": dict(
        type=at_least(1), default=96,
        help="batch-queue flush size (default: 96)"),
    "--algorithm": dict(
        choices=scheduler_names(), default="LOSS", metavar="NAME",
        help="scheduling algorithm for the run (default: LOSS)"),
    "--smoke": dict(action="store_true", help="shrink to the CI gate"),
    "--drives": dict(
        type=at_least(1), action="append", metavar="N",
        help="drive count; repeat the flag for a sweep (default: 1 2 4)"),
    "--arms": dict(
        type=at_least(1), action="append", metavar="K",
        help="robot arms; repeat the flag for a sweep (default: 1 2)"),
    "--cartridges": dict(
        type=at_least(1), metavar="N",
        help="cartridges on the shelf (default: %(default)s)"),
    # cache-sim
    "--cache-capacity": dict(
        type=at_least(1), action="append", metavar="SEGMENTS",
        help="staging capacity in segments; repeat the flag for a sweep "
        "(default: 1/5/20/50%% of the hot set)"),
    "--cache-policy": dict(
        choices=("fifo", "lru", "gdsf"), default="gdsf",
        help="eviction policy (default: gdsf)"),
    "--cache-admission": dict(
        choices=("always", "frequency", "cost"), default="always",
        help="admission policy (default: always)"),
    "--no-prefetch": dict(
        action="store_true",
        help="disable opportunistic read-through prefetch"),
    "--zipf-alpha": dict(
        type=positive_finite, default=0.8,
        help="Zipf skew of the workload (default: 0.8)"),
    "--hot-set": dict(
        type=at_least(1), default=4_000,
        help="distinct hot segments in the workload (default: 4000)"),
    # chaos
    "--retry-probability": dict(
        type=probability, action="append", metavar="P",
        help="per-locate probability of a retryable fault; repeat the "
        "flag for a sweep (default: 0 0.05 0.1 0.2)"),
    "--read-error-probability": dict(
        type=probability, default=0.0, metavar="P",
        help="per-read probability of a read fault (default: 0)"),
    "--reset-probability": dict(
        type=probability, default=0.0, metavar="P",
        help="per-locate probability of a full drive reset (default: 0)"),
    "--max-attempts": dict(
        type=at_least(1), default=5,
        help="in-place retry budget per request (default: 5)"),
    "--max-requeues": dict(
        type=at_least(0), default=2,
        help="times a failed request re-enters the batch queue before "
        "it is surfaced as failed (default: 2)"),
    "--library": dict(
        action="store_true",
        help="run the durability variant instead: logical reads on a "
        "replicated striped volume over the multi-arm library, with "
        "media aging, injected faults, degraded reads, and background "
        "repair traffic; exits 1 on any silent loss or on data loss "
        "despite redundancy"),
    "--replicas": dict(
        type=at_least(1), action="append", metavar="R",
        help="--library: redundancy level; repeat the flag for a sweep "
        "(default: 1 2 3, or 1 2 with --smoke)"),
    "--stripe-unit": dict(
        type=at_least(1), default=4, metavar="N",
        help="--library: logical segments per stripe unit (default: 4)"),
    # library-sim
    "--assignment-policy": dict(
        choices=assignment_policy_names(), action="append",
        metavar="NAME",
        help="tape-to-drive assignment policy; repeat the flag for a "
        "sweep (default: affinity least-loaded)"),
    "--exchange-policy": dict(
        choices=exchange_policy_names(), default="drain", metavar="NAME",
        help="when a mounted tape may be released back to the shelf "
        "(default: drain)"),
    "--arm-policy": dict(
        choices=arm_policy_names(), default="least-busy", metavar="NAME",
        help="arm-assignment policy for multi-arm pools "
        "(default: least-busy)"),
    # serve-sim
    "--backend-depth": dict(
        type=at_least(0), default=serve_sim.DEFAULT_BACKEND_DEPTH,
        metavar="N",
        help="backpressure: released-but-unfinished requests allowed in "
        "the backend at once (default: %(default)s; 0 = unbounded)"),
    # optimality
    "--frontier-length": dict(
        type=at_least(2), action="append", metavar="N",
        help="frontier batch size; repeat the flag for a sweep "
        f"(default: {' '.join(map(str, optimality.DEFAULT_FRONTIER_LENGTHS))})"),
    "--frontier-algorithm": dict(
        choices=scheduler_names(), action="append", metavar="NAME",
        help="strategy charted against the exact linear optimum; repeat "
        "the flag for a sweep (default: "
        f"{' '.join(optimality.DEFAULT_FRONTIER_ALGORITHMS)})"),
    "--frontier-trials": dict(
        type=at_least(1), default=3, metavar="N",
        help="trials per frontier batch size (default: 3)"),
    # trace
    "--trace-jsonl": dict(
        metavar="FILE", help="write the raw event stream as JSON Lines"),
}

#: Flag groups.  ``_PAPER`` sets every ExperimentConfig field; the
#: online simulations take their horizon default from ``--scale`` and
#: have no length grid.
_SEEDS = ("--tape-seed", "--workload-seed")
_PAPER = ("--scale", *_SEEDS, "--max-length")
_ONLINE = ("--scale", *_SEEDS, "--horizon-hours")
_STREAM = (*_ONLINE, "--rate-per-hour", "--max-batch", "--algorithm")

_Handler = Callable[[argparse.Namespace], tuple[object, int]]


def _config(args: argparse.Namespace) -> ExperimentConfig:
    """The ExperimentConfig of the config flags the command declared."""
    return ExperimentConfig(**{
        key: value for key, value in vars(args).items()
        if key in ("scale", "tape_seed", "workload_seed", "max_length")
    })


def _swept(values: list | None) -> tuple | None:
    """A repeated flag as a sweep tuple; None keeps the default grid."""
    return tuple(values) if values else None


def _paper(main: Callable) -> _Handler:
    """Handler of a paper experiment that takes only its config."""
    return lambda args: (main(_config(args)), 0)


def _sweep(main: Callable) -> _Handler:
    """Handler of a figure the parallel engine fans out."""
    return lambda args: (main(_config(args), workers=args.workers), 0)


def _charted(main: Callable) -> _Handler:
    """Handler of Figure 4/5: a sweep with an optional ASCII chart."""

    def run(args: argparse.Namespace) -> tuple[object, int]:
        result = main(_config(args), workers=args.workers)
        if args.chart:
            from repro.experiments.ascii_plot import (
                render_per_locate_result,
            )

            print(render_per_locate_result(result))
            print()
        return result, 0

    return run


def _cache_sim(args: argparse.Namespace) -> tuple[object, int]:
    return cache_sim.main(
        _config(args), capacities=_swept(args.cache_capacity),
        alpha=args.zipf_alpha, hot_set=args.hot_set,
        rate_per_hour=args.rate_per_hour,
        horizon_hours=args.horizon_hours, policy=args.cache_policy,
        admission=args.cache_admission, prefetch=not args.no_prefetch,
        workers=args.workers,
    ), 0


def _chaos(args: argparse.Namespace) -> tuple[object, int]:
    if args.library:
        result = chaos.main_library(
            _config(args), replicas=_swept(args.replicas),
            drives=args.drives, arms=args.arms,
            cartridges=args.cartridges, stripe_unit=args.stripe_unit,
            rate_per_hour=args.rate_per_hour,
            horizon_hours=args.horizon_hours, smoke=args.smoke,
        )
        # Both durability invariants are correctness gates: no
        # silent loss, and no data loss once replicated.
        return result, 0 if result.ok else 1
    result = chaos.main(
        _config(args), fault_rates=_swept(args.retry_probability),
        read_fault_probability=args.read_error_probability,
        reset_probability=args.reset_probability,
        rate_per_hour=args.rate_per_hour,
        horizon_hours=args.horizon_hours,
        max_attempts=args.max_attempts, max_requeues=args.max_requeues,
        max_batch=args.max_batch, algorithm=args.algorithm,
    )
    # Losing a request is a resilience-layer bug, not a statistic.
    return result, 0 if result.all_complete else 1


def _library_sim(args: argparse.Namespace) -> tuple[object, int]:
    result = library_sim.main(
        _config(args), drives=_swept(args.drives),
        arms=_swept(args.arms), arm_policy=args.arm_policy,
        cartridges=args.cartridges,
        assignments=_swept(args.assignment_policy),
        exchange=args.exchange_policy, rates=(args.rate_per_hour,),
        horizon_hours=args.horizon_hours, max_batch=args.max_batch,
        algorithm=args.algorithm, smoke=args.smoke,
    )
    # A request that neither completed nor failed is a kernel bug,
    # not a statistic.
    return result, 0 if result.all_complete else 1


def _serve_sim(args: argparse.Namespace) -> tuple[object, int]:
    result = serve_sim.main(
        _config(args), drives=_swept(args.drives),
        cartridges=args.cartridges, horizon_hours=args.horizon_hours,
        max_batch=args.max_batch, algorithm=args.algorithm,
        backend_depth=args.backend_depth or None, smoke=args.smoke,
    )
    # A silently dropped request or a blown p999 SLO is a
    # serving-layer bug, not a statistic.
    return result, 0 if result.all_complete and result.slo_ok else 1


def _optimality(args: argparse.Namespace) -> tuple[object, int]:
    lengths = (
        _swept(args.frontier_length) or optimality.DEFAULT_FRONTIER_LENGTHS
    )
    trials = args.frontier_trials
    if args.smoke:
        # The CI gate: a short grid that still crosses the Held-Karp
        # ceiling.
        lengths, trials = (8, 48, 192), 1
    result = optimality.run(
        _config(args), frontier=True,
        frontier_algorithms=(
            _swept(args.frontier_algorithm)
            or optimality.DEFAULT_FRONTIER_ALGORITHMS
        ),
        frontier_lengths=lengths, frontier_trials=trials,
    )
    optimality.report(result)
    # A heuristic beating the exact linear optimum is a solver bug,
    # not a statistic.
    worst = min(
        (stats.mean for stats in result.frontier.gaps.values()),
        default=0.0,
    )
    return result.frontier, 0 if worst >= -1e-6 else 1


def _trace(args: argparse.Namespace) -> tuple[object, int]:
    # A failed --smoke check raises SystemExit (exit 1) in trace_run.
    return trace_run.main(
        _config(args), algorithm=args.algorithm,
        rate_per_hour=args.rate_per_hour,
        horizon_hours=args.horizon_hours, max_batch=args.max_batch,
        trace_jsonl=args.trace_jsonl, smoke=args.smoke,
    ), 0


def _all(args: argparse.Namespace) -> tuple[object, int]:
    return None, max(_EXPERIMENTS[name].run(args)[1] for name in _ALL_ORDER)


class _Experiment(NamedTuple):
    help: str
    flags: tuple[str, ...]
    run: _Handler
    #: This experiment's changes to a flag's ``_FLAGS`` entry.
    overrides: dict[str, dict] = {}


#: Every subcommand: its help line, the flags it reads, its handler.
_EXPERIMENTS: dict[str, _Experiment] = {
    "figure1": _Experiment(
        "Figure 1: locate/rewind time from segment 0",
        ("--tape-seed", "--out"),
        lambda args: (figure1.main(tape_seed=args.tape_seed), 0)),
    "section3": _Experiment(
        "Section 3: locate-time aggregates, model vs published",
        ("--tape-seed", "--out"),
        lambda args: (section3_stats.main(tape_seed=args.tape_seed), 0)),
    "figure4": _Experiment(
        "Figure 4: seconds per locate, random starting point",
        (*_PAPER, "--workers", "--chart", "--out"),
        _charted(figure4.main)),
    "figure5": _Experiment(
        "Figure 5: seconds per locate, start at beginning of tape",
        (*_PAPER, "--workers", "--chart", "--out"),
        _charted(figure5.main)),
    "figure6": _Experiment(
        "Figure 6: CPU seconds to generate a schedule",
        (*_PAPER, "--workers", "--out"), _sweep(figure6.main)),
    "figure7": _Experiment(
        "Figure 7: transfer size needed for a target utilization",
        (*_PAPER, "--workers", "--out"), _sweep(figure7.main)),
    "figure7x": _Experiment(
        "Figure 7 cross-check: simulated multi-segment batches",
        (*_SEEDS, "--out"), _paper(figure7_empirical.main)),
    "figure8": _Experiment(
        "Figure 8: estimated vs measured schedule execution time",
        (*_SEEDS, "--max-length", "--workers", "--out"),
        _sweep(figure8.main)),
    "figure9": _Experiment(
        "Figure 9: estimate error with the wrong key points",
        (*_SEEDS, "--max-length", "--workers", "--out"),
        _sweep(figure9.main)),
    "figure10": _Experiment(
        "Figure 10: LOSS under a perturbed locate model",
        (*_PAPER, "--workers", "--out"), _sweep(figure10.main)),
    "summary": _Experiment(
        "Section 8 summary: retrieval rates, measured vs published",
        ("--scale", *_SEEDS, "--out"), _paper(summary_table.main)),
    "seeds": _Experiment(
        "Section 5: spread of the per-locate means across seeds",
        ("--scale", "--tape-seed", "--max-length", "--out"),
        _paper(seed_stability.main)),
    "generations": _Experiment(
        "scheduling across drive generations (DLT4000/DLT7000/3590)",
        (*_SEEDS, "--out"), _paper(drive_generations.main)),
    "gaps": _Experiment(
        "optimality gaps above the assignment-relaxation lower bound",
        (*_SEEDS, "--out"), _paper(optimality.main)),
    "optimality": _Experiment(
        "LTSP frontier: every heuristic vs the exact linear optimum",
        (*_SEEDS, "--frontier-length", "--frontier-algorithm",
         "--frontier-trials", "--smoke", "--out"),
        _optimality,
        {"--smoke": dict(help="the CI gate: N = 8, 48, 192, one trial")}),
    "cache-sim": _Experiment(
        "the disk staging cache tier vs cache-off",
        (*_ONLINE, "--rate-per-hour", "--workers", "--cache-capacity",
         "--cache-policy", "--cache-admission", "--no-prefetch",
         "--zipf-alpha", "--hot-set", "--out"),
        _cache_sim),
    "chaos": _Experiment(
        "fault-injection sweep of the hardened serving path",
        (*_STREAM, "--retry-probability", "--read-error-probability",
         "--reset-probability", "--max-attempts", "--max-requeues",
         "--library", "--replicas", "--drives", "--arms",
         "--cartridges", "--stripe-unit", "--smoke", "--out"),
        _chaos,
        {
            "--drives": dict(
                action="store", default=4,
                help="--library: drive count (default: 4)"),
            "--arms": dict(
                action="store", default=2,
                help="--library: robot arms (default: 2)"),
            "--cartridges": dict(default=6),
            "--smoke": dict(help="--library: shrink to the CI gate"),
        }),
    "library-sim": _Experiment(
        "multi-drive robotic library sweep",
        (*_STREAM, "--drives", "--arms", "--arm-policy", "--cartridges",
         "--assignment-policy", "--exchange-policy", "--smoke", "--out"),
        _library_sim,
        {
            "--cartridges": dict(default=library_sim.DEFAULT_CARTRIDGES),
            "--smoke": dict(
                help="the CI gate: 2 drives, one policy, short horizon"),
        }),
    "serve-sim": _Experiment(
        "multi-tenant SLA gateway sweep",
        (*_ONLINE, "--max-batch", "--algorithm", "--drives",
         "--cartridges", "--backend-depth", "--smoke", "--out"),
        _serve_sim,
        {
            "--cartridges": dict(default=serve_sim.DEFAULT_CARTRIDGES),
            "--smoke": dict(
                help="the CI gate: 2 drives, 10k users, short horizon"),
        }),
    "trace": _Experiment(
        "instrumented run with telemetry cross-checks",
        (*_STREAM, "--trace-jsonl", "--smoke", "--out"),
        _trace,
        {"--smoke": dict(help="exit 1 unless the cross-checks hold")}),
    "all": _Experiment(
        "every figure and table of the paper, in order",
        (*_PAPER, "--workers", "--chart"), _all),
}

#: Execution order for ``all``.
_ALL_ORDER = (
    "figure1", "section3", "figure4", "figure5", "figure6", "figure7",
    "figure7x", "figure8", "figure9", "figure10", "summary", "seeds",
    "generations", "gaps",
)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser: one subparser per experiment."""
    parser = argparse.ArgumentParser(
        prog="repro-tape",
        description=(
            "Regenerate the evaluation of Hillyer & Silberschatz, "
            "'Random I/O Scheduling in Online Tertiary Storage "
            "Systems' (SIGMOD 1996)."
        ),
        epilog=(
            "'repro <experiment> --help' lists the flags an experiment "
            "reads.  Additionally, 'repro lint [PATH...]' runs the "
            "repo-aware static-analysis gate (RPR001-RPR010, "
            "including the cross-module flow analyses); see "
            "'repro lint --help' and docs/STATIC_ANALYSIS.md."
        ),
    )
    commands = parser.add_subparsers(
        dest="experiment", required=True, metavar="experiment"
    )
    for name, experiment in _EXPERIMENTS.items():
        command = commands.add_parser(
            name, help=experiment.help, description=experiment.help
        )
        for flag in experiment.flags:
            spec = {**_FLAGS[flag], **experiment.overrides.get(flag, {})}
            command.add_argument(flag, **spec)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "lint":
        # The static-analysis gate has its own option surface; hand
        # off before the experiment parser rejects its flags.
        from repro.lint.cli import main as lint_main

        return lint_main(arguments[1:])
    args = build_parser().parse_args(arguments)
    result, status = _EXPERIMENTS[args.experiment].run(args)
    if getattr(args, "out", None) is not None:
        from repro.experiments.export import write_result

        print(f"exported to {write_result(result, args.out)}")
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
