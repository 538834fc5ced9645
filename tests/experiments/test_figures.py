"""Per-figure drivers: structure and headline findings at small scale.

Each test runs the real experiment pipeline with a reduced grid and
asserts the *published finding* the figure exists to demonstrate — not
exact numbers, but the orderings and magnitudes that constitute the
reproduction.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.experiments import (
    ExperimentConfig,
    figure1,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    section3_stats,
    summary_table,
)


@pytest.fixture(scope="module")
def small_config():
    return ExperimentConfig(
        lengths=(2, 8, 16, 48), scale="quick"
    )


class TestFigure1:
    @pytest.fixture(scope="class")
    def result(self):
        return figure1.run(tape_seed=1)

    def test_curves_cover_the_tape(self, result):
        assert result.locate_seconds.shape == result.rewind_seconds.shape
        assert result.destinations.size == result.locate_seconds.size

    def test_dip_magnitudes(self, result):
        assert 4.0 < result.forward_dip_drop < 8.0
        assert 20.0 < result.reverse_dip_drop < 30.0

    def test_dip_count(self, result):
        # ~13 dips per track, 64 tracks, minus blind spots near the
        # source.
        assert 700 < result.dip_segments.size < 1000

    def test_report_prints(self, result, capsys):
        figure1.report(result)
        out = capsys.readouterr().out
        assert "Figure 1" in out


class TestFigures4And5:
    @pytest.fixture(scope="class")
    def results(self, ):
        config = ExperimentConfig(lengths=(2, 8, 16, 48), scale="quick")
        return (
            figure4.run(config, algorithms=("FIFO", "SORT", "LOSS")),
            figure5.run(config, algorithms=("FIFO", "SORT", "LOSS")),
        )

    def test_loss_beats_fifo_everywhere(self, results):
        fig4, _ = results
        for length in (8, 16, 48):
            loss = fig4.point("LOSS", length).per_locate_mean
            fifo = fig4.point("FIFO", length).per_locate_mean
            assert loss < fifo

    def test_fifo_flat_near_random_mean(self, results):
        fig4, _ = results
        for length in (8, 16, 48):
            assert 65 < fig4.point("FIFO", length).per_locate_mean < 80

    def test_bot_start_dearer_for_small_batches(self, results):
        fig4, fig5 = results
        # The expected locate from BOT (~96.5 s) exceeds the
        # random-to-random mean (~72.4 s), so the beginning-of-tape
        # scenario is *more* expensive per locate at tiny batch sizes;
        # the gap washes out as batches grow.
        assert (
            fig5.point("FIFO", 2).per_locate_mean
            > fig4.point("FIFO", 2).per_locate_mean
        )
        gap_small = fig5.point("LOSS", 2).per_locate_mean - fig4.point(
            "LOSS", 2
        ).per_locate_mean
        gap_large = fig5.point("LOSS", 48).per_locate_mean - fig4.point(
            "LOSS", 48
        ).per_locate_mean
        assert abs(gap_large) < abs(gap_small) + 2.0

    def test_per_locate_decreases_with_length(self, results):
        fig4, _ = results
        means = [
            fig4.point("LOSS", n).per_locate_mean for n in (2, 8, 16, 48)
        ]
        assert means == sorted(means, reverse=True)


class TestFigure6:
    def test_cpu_growth_shapes(self):
        config = ExperimentConfig(lengths=(8, 64), scale="quick")
        result = figure6.run(config, algorithms=("SORT", "LOSS"))
        rows = figure6.cpu_rows(result)
        assert len(rows) == 2
        # LOSS costs more CPU than SORT at the same size.
        sort_cpu = result.point("SORT", 64).cpu.mean
        loss_cpu = result.point("LOSS", 64).cpu.mean
        assert loss_cpu > sort_cpu

    def test_report_prints(self, capsys):
        config = ExperimentConfig(lengths=(4,), scale="quick")
        figure6.report(figure6.run(config, algorithms=("SORT",)))
        assert "Figure 6" in capsys.readouterr().out


class TestFigure7:
    @pytest.fixture(scope="class")
    def result(self):
        return figure7.run(ExperimentConfig(lengths=(1, 10, 96),
                                            scale="quick"))

    def test_higher_utilization_needs_bigger_transfers(self, result):
        for length in (1, 10, 96):
            sizes = [
                result.megabytes[(u, length)]
                for u in result.utilizations
            ]
            assert sizes == sorted(sizes)

    def test_scheduling_shrinks_required_transfers(self, result):
        # The Section 8 reading: solitary I/Os need 50-100 MB, 10-request
        # schedules ~30 MB, longer schedules 10-25 MB (at moderate
        # utilization).
        solitary = result.megabytes[(0.5, 1)]
        batch10 = result.megabytes[(0.5, 10)]
        batch96 = result.megabytes[(0.5, 96)]
        assert 50 < solitary < 150
        assert batch96 < batch10 < solitary

    def test_report_prints(self, result, capsys):
        figure7.report(result)
        assert "Figure 7" in capsys.readouterr().out


class TestFigure8:
    @pytest.fixture(scope="class")
    def result(self):
        return figure8.run(ExperimentConfig(scale="quick", max_length=256))

    def test_small_schedules_accurate(self, result):
        by_length = {p.length: p.mean for p in result.points}
        assert abs(by_length[8]) < 2.0
        assert abs(by_length[64]) < 2.5

    def test_error_grows_with_density(self, result):
        by_length = {p.length: abs(p.mean) for p in result.points}
        assert by_length[256] > by_length[8]

    def test_report_prints(self, result, capsys):
        figure8.report(result)
        assert "Figure 8" in capsys.readouterr().out


class TestFigure9:
    def test_wrong_key_points_are_disastrous(self):
        result = figure9.run(
            ExperimentConfig(scale="quick", max_length=256)
        )
        worst = max(abs(p.mean) for p in result.points)
        typical = np.mean(
            [abs(p.mean) for p in result.points if p.length >= 64]
        )
        assert worst > 10.0
        assert typical > 8.0


class TestFigure10:
    @pytest.fixture(scope="class")
    def result(self):
        return figure10.run(
            ExperimentConfig(lengths=(4, 12, 48), scale="quick")
        )

    def test_small_errors_negligible(self, result):
        for length in (4, 12, 48):
            assert abs(result.increase[(1.0, length)].mean) < 2.5

    def test_opt_is_immune(self, result):
        for (error, length), stats in result.opt_increase.items():
            assert stats.mean == pytest.approx(0.0, abs=1e-6), (
                error, length,
            )

    def test_rows_layout(self, result):
        rows = result.rows()
        assert len(rows) == 3
        assert len(rows[0]) == 1 + len(result.errors)
        opt_rows = result.opt_rows()
        assert [row[0] for row in opt_rows] == [4, 12]

    def test_report_prints(self, result, capsys):
        figure10.report(result)
        out = capsys.readouterr().out
        assert "Figure 10" in out and "OPT" in out


class TestSection3:
    def test_aggregates_near_paper(self):
        result = section3_stats.run(tape_seed=1, samples=30_000)
        assert abs(result.mean_from_bot - 96.5) < 6.0
        assert abs(result.mean_random - 72.4) < 5.0
        assert 150 < result.max_locate < 195
        rows = result.rows()
        assert len(rows) == 4


class TestSummaryTable:
    def test_measured_rates_in_band(self):
        result = summary_table.run(ExperimentConfig(scale="quick"))
        # Within a modest band of every published operating point.
        assert abs(result.fifo_rate - 50) < 8
        assert abs(result.opt_rate_at_10 - 93) < 12
        assert abs(result.loss_rate_at_96 - 124) < 18
        assert abs(result.loss_rate_at_1024 - 285) < 40
        assert abs(result.read_rate_at_1536 - 391) < 25
        assert result.loss_hours_192 < result.fifo_hours_192 / 2

    def test_report_prints(self, capsys):
        config = ExperimentConfig(scale="quick")
        summary_table.report(summary_table.run(config))
        assert "Section 8" in capsys.readouterr().out

    def test_run_ignores_max_length(self, monkeypatch):
        # The table's fixed lengths are read unconditionally; a
        # truncated sweep would leave them missing.
        seen = []

        def fake_sweep(config, **kwargs):
            seen.append(config)
            point = SimpleNamespace(total=SimpleNamespace(mean=3600.0))
            return SimpleNamespace(point=lambda algorithm, length: point)

        monkeypatch.setattr(summary_table, "run_per_locate", fake_sweep)
        result = summary_table.run(ExperimentConfig(max_length=16))
        assert seen[0].effective_lengths == (10, 96, 192, 1024, 1536)
        assert result.fifo_hours_192 == 1.0
