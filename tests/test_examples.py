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
