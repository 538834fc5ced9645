"""Experiment configuration."""

import pytest

from repro.exceptions import ExperimentError
from repro.experiments import (
    ExperimentConfig,
    PAPER_SCHEDULE_LENGTHS,
    paper_trials,
    quick_trials,
)


class TestGrid:
    def test_paper_grid(self):
        assert PAPER_SCHEDULE_LENGTHS[0] == 1
        assert PAPER_SCHEDULE_LENGTHS[-1] == 2048
        assert 1536 in PAPER_SCHEDULE_LENGTHS

    def test_truncation(self):
        config = ExperimentConfig(max_length=64)
        assert config.effective_lengths[-1] == 64
        assert all(n <= 64 for n in config.effective_lengths)

    def test_no_truncation_by_default(self):
        assert ExperimentConfig().effective_lengths == (
            PAPER_SCHEDULE_LENGTHS
        )

    @pytest.mark.parametrize("max_length", [0, -3])
    def test_empty_grid_rejected(self, max_length):
        # An empty grid would print a headers-only table and succeed.
        with pytest.raises(ExperimentError, match="max_length"):
            ExperimentConfig(max_length=max_length)

    def test_negative_tape_seed_rejected(self):
        with pytest.raises(ExperimentError, match="tape_seed"):
            ExperimentConfig(tape_seed=-5)

    def test_negative_workload_seed_allowed(self):
        assert ExperimentConfig(workload_seed=-5).workload_seed == -5


class TestTrialTables:
    def test_paper_counts(self):
        assert paper_trials(1) == 100_000
        assert paper_trials(192) == 100_000
        assert paper_trials(256) == 25_000
        assert paper_trials(2048) == 400

    def test_quick_counts_decrease(self):
        assert quick_trials(1) >= quick_trials(64) >= quick_trials(2048)
        assert quick_trials(2048) >= 3

    def test_scales(self):
        quick = ExperimentConfig(scale="quick")
        paper = ExperimentConfig(scale="paper")
        full = ExperimentConfig(scale="full")
        for length in (1, 64, 2048):
            assert quick.trials(length) <= full.trials(length)
            assert full.trials(length) <= paper.trials(length)

    def test_opt_budget_paper(self):
        paper = ExperimentConfig(scale="paper")
        assert paper.opt_trials(10) == 10_000
        assert paper.opt_trials(12) == 100

    def test_opt_budget_quick_is_capped(self):
        quick = ExperimentConfig(scale="quick")
        assert quick.opt_trials(12) <= 10
        assert quick.opt_trials(1) == quick.trials(1)

    def test_unknown_scale_rejected(self):
        with pytest.raises(ExperimentError):
            ExperimentConfig(scale="enormous")
