"""Deterministic multi-tenant load generation for the gateway.

Each :class:`TenantLoadSpec` describes one tenant's population: how
many simulated users it has, their aggregate Poisson request rate, and
how skewed their popularity is.  :func:`zipf_serve_stream` turns a set
of specs into one merged, tenant-tagged request stream:

* every user owns one object — a ``(cartridge, segment)`` pair placed
  uniformly at random over the shelf — so the number of *simulated
  users* is real state, not a label (a million-user tenant draws from
  a million distinct placements);
* per request, the issuing user is drawn Zipf(``zipf_alpha``) over the
  tenant's user ranks (rank 1 hottest), the natural skew of real
  serving populations;
* arrivals are Poisson at ``rate_per_hour``, truncated to the horizon.

Determinism: each tenant's generator is seeded through
:func:`repro.workload.seed_stream.trial_state` under a
``serve.<tenant>`` namespace, so streams are independent per tenant,
reproducible per seed, and insensitive to the order other tenants are
generated in.  The merged stream is sorted by
``(arrival, tenant name)`` — a total order, so equal-time arrivals tie
-break identically everywhere.

The stream round-trips through JSONL (:func:`save_serve_trace` /
:func:`load_serve_trace`) so captured or hand-written traces can drive
the gateway in place of the synthetic load.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from repro.constants import DEFAULT_TOTAL_SEGMENTS
from repro.exceptions import ServeError, TraceError
from repro.serve.requests import ServeRequest
from repro.workload.seed_stream import trial_state

#: Exponential-gap draw chunk (vectorized arrival generation).
_GAP_CHUNK = 4096


@dataclass(frozen=True)
class TenantLoadSpec:
    """One tenant's offered load.

    Attributes
    ----------
    name:
        Tenant name (matches a
        :class:`~repro.serve.config.TenantConfig`).
    users:
        Simulated user population; each user owns one placed object.
    rate_per_hour:
        Aggregate Poisson arrival rate of the tenant.
    zipf_alpha:
        Skew of user activity (rank ``r`` issues requests with
        probability proportional to ``r**-alpha``).
    weight:
        Fair-share weight carried alongside for convenience, so a
        sweep can derive its
        :class:`~repro.serve.config.TenantConfig` from the same table.
    """

    name: str
    users: int
    rate_per_hour: float
    zipf_alpha: float = 1.1
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ServeError("tenant name must be non-empty")
        if self.users < 1:
            raise ServeError(
                f"tenant {self.name!r}: users must be >= 1"
            )
        if not 0 < self.rate_per_hour < math.inf:
            raise ServeError(
                f"tenant {self.name!r}: rate_per_hour must be positive "
                "and finite"
            )
        if not self.zipf_alpha > 0:
            raise ServeError(
                f"tenant {self.name!r}: zipf_alpha must be positive"
            )
        if not self.weight > 0:
            raise ServeError(
                f"tenant {self.name!r}: weight must be positive"
            )


def _arrival_times(
    rng: np.random.Generator, rate_per_hour: float, horizon_seconds: float
) -> np.ndarray:
    """Poisson arrival instants on [0, horizon), chunk-vectorized."""
    scale = 3600.0 / rate_per_hour
    times: list[np.ndarray] = []
    last = 0.0
    while last < horizon_seconds:
        gaps = rng.exponential(scale, size=_GAP_CHUNK)
        chunk = last + np.cumsum(gaps)
        times.append(chunk)
        last = float(chunk[-1])
    merged = np.concatenate(times)
    return merged[merged < horizon_seconds]


def zipf_serve_stream(
    specs: Sequence[TenantLoadSpec],
    labels: Sequence[str],
    *,
    total_segments: int = DEFAULT_TOTAL_SEGMENTS,
    horizon_seconds: float = 3600.0,
    seed: int = 0,
) -> list[ServeRequest]:
    """One merged tenant-tagged request stream (see module docstring)."""
    if not specs:
        raise ServeError("at least one tenant spec is required")
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ServeError("tenant spec names must be unique")
    if not labels:
        raise ServeError("labels must be non-empty")
    if total_segments < 1:
        raise ServeError("total_segments must be >= 1")
    if not 0 < horizon_seconds < math.inf:
        raise ServeError("horizon_seconds must be positive and finite")
    requests: list[ServeRequest] = []
    for spec in specs:
        # Keyed by the tenant's name (via the namespace) and size
        # only, never its position, so streams are per-tenant
        # independent and insensitive to spec order.
        state = trial_state(
            seed, spec.users, 0, namespace=f"serve.{spec.name}"
        )
        rng = np.random.default_rng(state)
        # Each user's one object, placed uniformly over the shelf.
        user_labels = rng.integers(0, len(labels), size=spec.users)
        user_segments = rng.integers(0, total_segments, size=spec.users)
        # Zipf-over-ranks activity: rank 1 is the hottest user.
        weights = np.arange(1, spec.users + 1, dtype=np.float64) ** (
            -spec.zipf_alpha
        )
        cdf = np.cumsum(weights / weights.sum())
        arrivals = _arrival_times(
            rng, spec.rate_per_hour, horizon_seconds
        )
        users = np.searchsorted(
            cdf, rng.random(arrivals.size), side="right"
        )
        for arrival, user in zip(arrivals, users):
            requests.append(
                ServeRequest(
                    arrival_seconds=float(arrival),
                    label=labels[int(user_labels[user])],
                    segment=int(user_segments[user]),
                    length=1,
                    tenant=spec.name,
                )
            )
    requests.sort(key=lambda r: (r.arrival_seconds, r.tenant))
    return requests


def save_serve_trace(
    path: str | Path, requests: Sequence[ServeRequest]
) -> None:
    """Write a tenant-tagged stream as JSONL (one request per line)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for request in requests:
            handle.write(
                json.dumps(
                    {
                        "t": request.arrival_seconds,
                        "tenant": request.tenant,
                        "label": request.label,
                        "segment": request.segment,
                        "length": request.length,
                    }
                )
                + "\n"
            )


def load_serve_trace(path: str | Path) -> list[ServeRequest]:
    """Read a JSONL tenant-tagged stream back (validated)."""
    path = Path(path)
    requests: list[ServeRequest] = []
    with path.open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise TraceError(
                    f"{path}:{number}: not valid JSON: {error}"
                ) from error
            try:
                request = ServeRequest(
                    arrival_seconds=float(record["t"]),
                    label=str(record["label"]),
                    segment=int(record["segment"]),
                    length=int(record.get("length", 1)),
                    tenant=str(record["tenant"]),
                )
            except (KeyError, TypeError, ValueError) as error:
                raise TraceError(
                    f"{path}:{number}: bad serve-trace record: {error}"
                ) from error
            if (
                math.isnan(request.arrival_seconds)
                or request.arrival_seconds < 0
            ):
                raise TraceError(
                    f"{path}:{number}: arrival time must be >= 0"
                )
            requests.append(request)
    return requests
