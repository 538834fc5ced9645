"""Workload generators: the paper's lrand48 uniform batches plus
arrival processes and a skew extension."""

from repro.workload.arrivals import (
    PoissonArrivals,
    TimedRequest,
    ZipfArrivals,
)
from repro.workload.lrand48 import LRand48
from repro.workload.random_uniform import UniformWorkload
from repro.workload.seed_stream import (
    splitmix64,
    trial_state,
    trial_workload,
)
from repro.workload.zipf import ZipfWorkload

__all__ = [
    "LRand48",
    "PoissonArrivals",
    "TimedRequest",
    "UniformWorkload",
    "ZipfArrivals",
    "ZipfWorkload",
    "splitmix64",
    "trial_state",
    "trial_workload",
]
