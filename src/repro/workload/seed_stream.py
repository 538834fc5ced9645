"""Derived per-trial seed streams for parallel experiments.

The seed repo drew every trial of a sweep from *one* sequential
``lrand48`` stream: trial ``t`` of length ``N`` saw whatever state the
stream reached after all earlier trials, so trials could only be
reproduced by replaying the whole sweep in order — which forces serial
execution.  This module replaces that coupling with *derived* streams:
each ``(workload_seed, length, trial)`` triple is hashed to its own
48-bit ``lrand48`` state, so any trial can be generated in isolation,
on any worker, in any order, and still produce exactly the batch it
would produce in a serial run.

The derivation is a SplitMix64 finalization over the triple (plus a
namespace tag separating experiments that share a workload seed),
truncated to the generator's 48-bit state space.  SplitMix64 is the
standard seed-sequence mixer (Steele, Lea & Flood, OOPSLA 2014): its
output function is a bijection of the 64-bit input, so distinct trial
triples map to well-spread states with no cheap collisions.

Every experiment sweep draws its trials from these streams; there is no
sequential-stream mode.
"""

from __future__ import annotations

from repro.workload.random_uniform import UniformWorkload

_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
_MASK48 = (1 << 48) - 1


def splitmix64(value: int) -> int:
    """One SplitMix64 finalization step (a 64-bit bijection)."""
    value = (value + _GOLDEN_GAMMA) & _MASK64
    value ^= value >> 30
    value = (value * 0xBF58476D1CE4E5B9) & _MASK64
    value ^= value >> 27
    value = (value * 0x94D049BB133111EB) & _MASK64
    value ^= value >> 31
    return value


def _mix(*components: int) -> int:
    """Fold integer components through chained SplitMix64 steps."""
    state = 0
    for component in components:
        state = splitmix64(state ^ (component & _MASK64))
    return state


def _namespace_tag(namespace: str) -> int:
    """A stable 64-bit tag for a namespace string (FNV-1a)."""
    tag = 0xCBF29CE484222325
    for byte in namespace.encode("utf-8"):
        tag = ((tag ^ byte) * 0x100000001B3) & _MASK64
    return tag


def trial_state(
    workload_seed: int,
    length: int,
    trial: int,
    namespace: str = "per-locate",
) -> int:
    """The 48-bit ``lrand48`` state for one experiment trial.

    Distinct ``(workload_seed, length, trial, namespace)`` tuples give
    independent-looking states; equal tuples always give the same
    state, which is what makes parallel execution bit-identical to
    serial execution under the per-trial seed mode.
    """
    return _mix(
        _namespace_tag(namespace), workload_seed, length, trial
    ) & _MASK48


def trial_workload(
    total_segments: int,
    workload_seed: int,
    length: int,
    trial: int,
    namespace: str = "per-locate",
) -> UniformWorkload:
    """A :class:`UniformWorkload` positioned at one trial's stream."""
    return UniformWorkload(
        total_segments=total_segments,
        seed=workload_seed,
        raw_state=trial_state(workload_seed, length, trial, namespace),
    )
