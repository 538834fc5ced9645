"""Smoke tests: the example scripts run end to end.

Only the quick examples run here (the longer simulations are exercised
through their underlying modules' own tests); each must exit cleanly
and print its headline content.
"""

import re
import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    path = EXAMPLES / name
    assert path.exists(), path
    saved_argv = sys.argv
    sys.argv = [str(path)]
    try:
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = saved_argv
    return capsys.readouterr().out


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "LOSS" in out
        assert "executed" in out
        assert "96 drive events" in out

    def test_skewed_workload(self, capsys):
        out = run_example("skewed_workload.py", capsys)
        assert "zipf" in out
        assert "uniform" in out

    def test_data_mining(self, capsys):
        out = run_example("data_mining_batch.py", capsys)
        assert "point queries" in out
        assert "AUTO" in out

    def test_striped_array(self, capsys):
        out = run_example("striped_array.py", capsys)
        assert "drives   makespan  speedup  parallel eff." in out
        # The 8-drive row: makespan, speedup, efficiency, 32 per drive.
        assert re.search(
            r"^\s+8\s+\d+ s\s+[\d.]+x\s+\d+%\s+32$", out, re.M
        )

    def test_batch_size_planning(self, capsys):
        out = run_example("batch_size_planning.py", capsys)
        assert "measuring the LOSS per-request curve" in out
        assert re.search(r"^\s+250\s+-\s+overloaded$", out, re.M)
        responses = {
            label: float(mean)
            for label, mean in re.findall(
                r"\((naive|recommended)\s*\) mean response\s+([\d.]+) m",
                out,
            )
        }
        # The planner's batch size beats the naive cap it is checked
        # against.
        assert responses["recommended"] < responses["naive"]

    def test_online_batching(self, capsys):
        out = run_example("online_batching.py", capsys)
        assert re.search(r"^\d+ requests over 24 h \(110/hour\)", out, re.M)
        means = [
            float(mean)
            for mean in re.findall(
                r"^max_batch=\d+\s+([\d.]+) m", out, re.M
            )
        ]
        assert len(means) == 4
        # Capping batches at 16 overloads the drive; larger caps do not.
        assert means[0] > 2 * max(means[1:])

    def test_tape_characterization(self, capsys):
        out = run_example("tape_characterization.py", capsys)
        assert re.search(r"^calibrated \d+ key points", out, re.M)
        errors = [
            abs(float(error))
            for error in re.findall(
                r"^(?:calibrated model|wrong key points):.*\(([-+\d.]+)%\)",
                out,
                re.M,
            )
        ]
        assert len(errors) == 2
        # The cartridge's own key points estimate far better.
        assert errors[0] < 5.0 < errors[1]
        assert "needs its own characterization" in out
