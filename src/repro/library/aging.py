"""Media aging: cartridges degrade with mount cycles.

Tape media wears mechanically: every mount/dismount cycle stretches the
tape and loosens the pack, so an old cartridge's *actual* locate
behaviour drifts away from the pristine key-point model the scheduler
plans with, and latent defects ("bad spots") accumulate until reads
start failing.  :class:`MediaAgingModel` turns a per-label mount-cycle
count into both effects:

* **Key-point drift** — the drive built for an aged cartridge gets a
  :class:`~repro.model.perturb.ShortLocateDeviation` wrapper whose bias
  and noise grow linearly with mount cycles, while the scheduler keeps
  planning with the pristine :attr:`Cartridge.model`.  This is exactly
  the estimated-vs-actual gap of the paper's Section 6 (Fig. 8/9
  sensitivity machinery), now driven by simulated wear instead of a
  fixed perturbation.
* **Bad spots** — the read-fault probability of the drive's
  :class:`~repro.resilience.FaultPlan` grows with mount cycles up to a
  cap, so old media triggers the resilience layer's retries, requeues
  and (for replicated volumes) degraded reads.

A cartridge on its first mount (zero completed cycles) is pristine:
``aged_model`` returns the base model unwrapped and the extra fault
rate is zero, so a system with ``aging=`` configured but no remounts
yet is bit-identical to one without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.model.perturb import ShortLocateDeviation


@dataclass(frozen=True)
class MediaAgingModel:
    """Linear wear per mount cycle, capped.

    Attributes
    ----------
    drift_bias_seconds:
        Extra systematic short-locate settle time per completed mount
        cycle (the aged pack is slower to position near track ends).
    drift_noise_seconds:
        Amplitude growth of the deterministic per-pair locate noise per
        completed mount cycle.
    short_seconds:
        Locate-time threshold below which the drift bias applies (see
        :class:`~repro.model.perturb.ShortLocateDeviation`).
    bad_spot_probability:
        Added read-fault probability per completed mount cycle.
    max_bad_spot_probability:
        Cap on the accumulated read-fault probability — media wears
        out, it does not become unreadable overnight.
    max_drift_cycles:
        Cap on the cycle count used for drift (locate behaviour
        plateaus once the pack has fully loosened).
    seed:
        Base seed of the deterministic drift noise; mixed with the
        cartridge label so two equally-old cartridges drift
        differently.
    """

    drift_bias_seconds: float = 0.05
    drift_noise_seconds: float = 0.04
    short_seconds: float = 30.0
    bad_spot_probability: float = 0.002
    max_bad_spot_probability: float = 0.25
    max_drift_cycles: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        for name in (
            "drift_bias_seconds", "drift_noise_seconds", "short_seconds",
        ):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and >= 0")
        if not 0.0 <= self.bad_spot_probability <= 1.0:
            raise ValueError("bad_spot_probability must be in [0, 1]")
        if not 0.0 <= self.max_bad_spot_probability <= 1.0:
            raise ValueError(
                "max_bad_spot_probability must be in [0, 1]"
            )
        if self.max_drift_cycles < 0:
            raise ValueError("max_drift_cycles must be >= 0")

    def _label_seed(self, label: str) -> int:
        # Stable across processes (unlike hash()): FNV-1a over the
        # label bytes, mixed with the configured seed.
        mix = 0xCBF29CE484222325
        for byte in label.encode():
            mix = ((mix ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        return (mix ^ (self.seed * 0x9E3779B97F4A7C15)) & 0x7FFFFFFF

    def read_fault_probability(self, cycles: int) -> float:
        """Accumulated bad-spot read-fault probability after
        ``cycles`` completed mount cycles."""
        if cycles < 0:
            raise ValueError("cycles must be >= 0")
        return min(
            self.max_bad_spot_probability,
            cycles * self.bad_spot_probability,
        )

    def aged_model(self, base, label: str, cycles: int):
        """The *actual* locate model of a cartridge after ``cycles``
        completed mount cycles (the base model itself at zero)."""
        if cycles < 0:
            raise ValueError("cycles must be >= 0")
        effective = min(cycles, self.max_drift_cycles)
        if effective == 0:
            return base
        if (
            self.drift_bias_seconds == 0.0
            and self.drift_noise_seconds == 0.0
        ):
            return base
        return ShortLocateDeviation(
            base,
            short_seconds=self.short_seconds,
            bias_seconds=self.drift_bias_seconds * effective,
            noise_seconds=self.drift_noise_seconds * effective,
            seed=self._label_seed(label),
        )

    @property
    def any_faults(self) -> bool:
        """Can this aging model ever inject read faults?"""
        return (
            self.bad_spot_probability > 0.0
            and self.max_bad_spot_probability > 0.0
        )
