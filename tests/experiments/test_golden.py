"""Golden-regression harness for the figure experiments.

Small-config Figure 4, 5, 7 and 10 outputs are frozen as
JSON fixtures under ``tests/experiments/golden/``.  The comparison is
**exact**: the simulation is deterministic given the seeds, JSON
round-trips IEEE-754 doubles losslessly, so any bit change in the
pipeline — workload draws, scheduling, the locate model, the
statistics — shows up as a diff, not as a tolerance judgement call.

To update the fixtures after an *intentional* output change::

    PYTHONPATH=src python -m pytest tests/experiments/test_golden.py \
        --regen-golden

The regenerating run rewrites the files and then performs the same
comparison against what it wrote, so it cannot silently freeze a
non-reproducible result.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import (
    ExperimentConfig,
    figure4,
    figure5,
    figure7,
    figure10,
    optimality,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Reduced grids that still cross several trial-count bands.
_CONFIG = ExperimentConfig(lengths=(1, 2, 4, 8, 16), scale="quick")


class _Figure10Tables:
    """Figure 10's LOSS table plus the OPT table its export leaves out."""

    def __init__(self, result: figure10.Figure10Result) -> None:
        self.result = result

    def to_dict(self) -> dict:
        return {"loss": self.result.to_dict(), "opt": self.result.opt_rows()}


#: The frozen experiments: name -> zero-argument runner.
GOLDEN_RUNS = {
    "figure4": lambda: figure4.run(
        _CONFIG, algorithms=("FIFO", "SORT", "LOSS", "OPT")
    ),
    "figure5": lambda: figure5.run(
        _CONFIG, algorithms=("FIFO", "SORT", "LOSS", "OPT")
    ),
    "figure7": lambda: figure7.run(_CONFIG),
    # Reaches OPT's largest batch (12), where Held-Karp does most work.
    "figure10": lambda: _Figure10Tables(
        figure10.run(
            ExperimentConfig(lengths=(1, 4, 8, 12, 16), scale="quick")
        )
    ),
    "optimality": lambda: optimality.run(
        _CONFIG,
        algorithms=("OPT", "LOSS", "SLTF", "SCAN"),
        lengths=(8, 12, 48),
        trials=2,
    ),
    "optimality_frontier": lambda: optimality.run_frontier(
        _CONFIG,
        lengths=(8, 16, 48, 96),
        trials=2,
    ),
}


def _records(result) -> list[dict]:
    """Canonical JSON-safe records: a json round-trip of to_dict()."""
    return json.loads(json.dumps(result.to_dict()))


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden(name, regen_golden):
    """The experiment's records match the frozen fixture exactly."""
    path = GOLDEN_DIR / f"{name}.json"
    records = _records(GOLDEN_RUNS[name]())
    if regen_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(records, indent=1) + "\n")
    if not path.exists():
        pytest.fail(
            f"golden fixture {path} is missing; generate it with "
            "pytest tests/experiments/test_golden.py --regen-golden"
        )
    frozen = json.loads(path.read_text())
    assert records == frozen, (
        f"{name} output drifted from its golden fixture; if the "
        "change is intentional, rerun with --regen-golden"
    )


def test_golden_is_workers_invariant(regen_golden):
    """The frozen figure4 fixture is reproduced by the parallel path.

    This pins the engine's bit-identity guarantee to the *frozen*
    statistics, not merely to a same-process serial/parallel pair.
    """
    if regen_golden:
        pytest.skip("fixture being regenerated")
    path = GOLDEN_DIR / "figure4.json"
    frozen = json.loads(path.read_text())
    records = _records(
        figure4.run(
            _CONFIG,
            algorithms=("FIFO", "SORT", "LOSS", "OPT"),
            workers=2,
        )
    )
    assert records == frozen
