"""Cache-sim — the disk staging tier under a skewed online workload.

An extension beyond the paper's figures: the paper's *online tertiary
storage* setting implies a hierarchical store in which random reads
only hit tape after missing a disk staging tier.  This experiment runs
the Zipf arrival stream through the online batching system twice —
cache-off (the seed repo's behaviour) and cache-on at a sweep of
staging capacities — and reports hit rate and mean/p99 response time.
The headline: once the cache holds a few percent of the hot set, mean
response time drops strictly below the cache-off baseline, because
every hit skips a 10–100 s locate *and* thins the batch queue the
misses wait in.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.admission import get_admission
from repro.cache.policies import get_policy
from repro.cache.store import SegmentCache
from repro.cache.system import CachedTertiaryStorageSystem
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import execute_plan
from repro.experiments.report import print_table
from repro.experiments.result import TabularResult
from repro.geometry.generator import generate_tape
from repro.online.batch_queue import BatchPolicy
from repro.online.system import TertiaryStorageSystem
from repro.workload.arrivals import TimedRequest, ZipfArrivals
from repro.workload.zipf import ZipfWorkload

#: Capacity sweep, as fractions of the workload's hot set.
DEFAULT_CAPACITY_FRACTIONS = (0.01, 0.05, 0.20, 0.50)

#: Simulated horizon (hours) per trial scale.
_HORIZON_HOURS = {"quick": 4.0, "full": 12.0, "paper": 48.0}


@dataclass(frozen=True)
class CacheSimPoint:
    """One cache-on run at a fixed staging capacity."""

    capacity_segments: int
    hit_rate: float
    mean_seconds: float
    p99_seconds: float
    evictions: int
    prefetch_insertions: int


@dataclass(frozen=True)
class CacheSimResult(TabularResult):
    """The sweep plus its cache-off baseline."""

    label: str
    alpha: float
    hot_set: int
    placement: str
    rate_per_hour: float
    horizon_seconds: float
    request_count: int
    policy: str
    admission: str
    prefetch: bool
    baseline_mean_seconds: float
    baseline_p99_seconds: float
    points: tuple[CacheSimPoint, ...]

    def headers(self) -> list[str]:
        """Column names matching :meth:`rows` (used by exporters)."""
        return [
            "capacity_segments",
            "percent_of_hot_set",
            "hit_percent",
            "mean_minutes",
            "p99_minutes",
            "mean_vs_off_percent",
        ]

    def rows(self) -> list[list]:
        """Report rows: the baseline first, then the capacity sweep."""
        out: list[list] = [
            [
                0,
                0.0,
                None,
                self.baseline_mean_seconds / 60.0,
                self.baseline_p99_seconds / 60.0,
                None,
            ]
        ]
        for point in self.points:
            out.append(
                [
                    point.capacity_segments,
                    100.0 * point.capacity_segments / self.hot_set,
                    100.0 * point.hit_rate,
                    point.mean_seconds / 60.0,
                    point.p99_seconds / 60.0,
                    100.0
                    * (1.0 - point.mean_seconds
                       / self.baseline_mean_seconds),
                ]
            )
        return out


def _simulate(
    tape,
    requests: list[TimedRequest],
    cache: SegmentCache | None,
    max_batch: int,
    prefetch: bool,
) -> TertiaryStorageSystem:
    policy = BatchPolicy(max_batch=max_batch)
    if cache is None:
        system = TertiaryStorageSystem(geometry=tape, policy=policy)
    else:
        system = CachedTertiaryStorageSystem(
            geometry=tape, policy=policy, cache=cache, prefetch=prefetch
        )
    system.run(requests)
    return system


def _capacity_chunk(spec: tuple, capacity: int) -> CacheSimPoint:
    """One cache-on run — an independent, picklable work unit.

    ``spec`` is ``(tape, requests, max_batch, prefetch, policy,
    admission)``.  The capacity sweep replays the same request stream
    per capacity, so each point is deterministic in isolation and the
    sweep parallelizes trivially (identical results for any worker
    count).
    """
    tape, requests, max_batch, prefetch, policy, admission = spec
    cache = SegmentCache(
        capacity,
        policy=get_policy(policy),
        admission=get_admission(admission),
    )
    system = _simulate(tape, requests, cache, max_batch, prefetch)
    return CacheSimPoint(
        capacity_segments=capacity,
        hit_rate=cache.stats.hit_rate,
        mean_seconds=system.stats.mean_seconds,
        p99_seconds=system.stats.percentile(99),
        evictions=cache.stats.evictions,
        prefetch_insertions=cache.stats.prefetch_insertions,
    )


def run(
    config: ExperimentConfig | None = None,
    capacities: tuple[int, ...] | None = None,
    alpha: float = 0.8,
    hot_set: int = 4_000,
    placement: str = "clustered",
    rate_per_hour: float = 120.0,
    horizon_hours: float | None = None,
    max_batch: int = 96,
    policy: str = "gdsf",
    admission: str = "always",
    prefetch: bool = True,
    workers: int | None = 1,
) -> CacheSimResult:
    """Sweep staging capacity against the cache-off baseline.

    The workload is Zipf(``alpha``) over a ``hot_set``-segment hot set
    (``clustered`` placement by default — a hot relation laid out
    sequentially, which is also what makes read-through prefetch
    meaningful), arriving Poisson at ``rate_per_hour``.  The same
    request stream is replayed for every configuration, so each
    capacity point is an independent work unit of
    :func:`~repro.experiments.parallel.execute_plan` and ``workers > 1``
    fans the sweep over a process pool with identical results.
    """
    config = config or ExperimentConfig()
    if horizon_hours is None:
        horizon_hours = _HORIZON_HOURS[config.scale]
    if capacities is None:
        capacities = tuple(
            max(1, int(round(fraction * hot_set)))
            for fraction in DEFAULT_CAPACITY_FRACTIONS
        )
    tape = generate_tape(seed=config.tape_seed)
    workload = ZipfWorkload(
        total_segments=tape.total_segments,
        alpha=alpha,
        universe=hot_set,
        seed=config.workload_seed,
        placement=placement,
    )
    requests = ZipfArrivals(
        rate_per_hour=rate_per_hour,
        workload=workload,
        seed=config.workload_seed + 1,
    ).batch(horizon_hours * 3600.0)

    baseline = _simulate(tape, requests, None, max_batch, prefetch)
    points = execute_plan(
        (tape, requests, max_batch, prefetch, policy, admission),
        list(capacities),
        chunk_fn=_capacity_chunk,
        workers=workers,
    )
    return CacheSimResult(
        label="cache-sim",
        alpha=alpha,
        hot_set=hot_set,
        placement=placement,
        rate_per_hour=rate_per_hour,
        horizon_seconds=horizon_hours * 3600.0,
        request_count=len(requests),
        policy=policy,
        admission=admission,
        prefetch=prefetch,
        baseline_mean_seconds=baseline.stats.mean_seconds,
        baseline_p99_seconds=baseline.stats.percentile(99),
        points=tuple(points),
    )


def report(result: CacheSimResult) -> None:
    """Print the capacity sweep (row 0 = cache-off baseline)."""
    print_table(
        [
            "capacity",
            "% hot set",
            "hit %",
            "mean (min)",
            "p99 (min)",
            "mean vs off %",
        ],
        result.rows(),
        title=(
            f"Cache-sim: Zipf(a={result.alpha}) x {result.request_count}"
            f" requests, {result.policy}/{result.admission}"
            f"{'+prefetch' if result.prefetch else ''}"
            f" (hot set {result.hot_set}, {result.placement})"
        ),
    )


def main(
    config: ExperimentConfig | None = None, **kwargs
) -> CacheSimResult:
    """Run and report."""
    result = run(config, **kwargs)
    report(result)
    return result
