"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["figure4"])
        assert args.experiment == "figure4"
        assert args.scale == "quick"
        assert args.tape_seed == 1
        assert args.max_length is None

    def test_all_flags(self):
        args = build_parser().parse_args(
            [
                "figure8",
                "--scale", "full",
                "--tape-seed", "9",
                "--workload-seed", "4",
                "--max-length", "128",
            ]
        )
        assert args.scale == "full"
        assert args.tape_seed == 9
        assert args.workload_seed == 4
        assert args.max_length == 128

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure99"])

    def test_cache_sim_defaults(self):
        args = build_parser().parse_args(["cache-sim"])
        assert args.experiment == "cache-sim"
        assert args.cache_capacity is None
        assert args.cache_policy == "gdsf"
        assert args.cache_admission == "always"
        assert args.no_prefetch is False
        assert args.zipf_alpha == pytest.approx(0.8)

    def test_cache_sim_capacity_sweep_flag_repeats(self):
        args = build_parser().parse_args(
            ["cache-sim", "--cache-capacity", "100",
             "--cache-capacity", "400"]
        )
        assert args.cache_capacity == [100, 400]

    def test_cache_sim_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["cache-sim", "--cache-policy", "arc"]
            )

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure4", "--scale", "huge"])

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.experiment == "trace"
        assert args.trace_jsonl is None
        assert args.smoke is False
        assert args.algorithm == "LOSS"
        assert args.max_batch == 96

    def test_library_sim_defaults(self):
        args = build_parser().parse_args(["library-sim"])
        assert args.experiment == "library-sim"
        assert args.drives is None
        assert args.cartridges is None
        assert args.assignment_policy is None
        assert args.exchange_policy == "drain"

    def test_library_sim_sweep_flags_repeat(self):
        args = build_parser().parse_args(
            [
                "library-sim",
                "--drives", "1", "--drives", "4",
                "--assignment-policy", "affinity",
                "--assignment-policy", "least-loaded",
            ]
        )
        assert args.drives == [1, 4]
        assert args.assignment_policy == ["affinity", "least-loaded"]


class TestMain:
    def test_runs_section3(self, capsys):
        assert main(["section3"]) == 0
        out = capsys.readouterr().out
        assert "Section 3" in out
        assert "96.50" in out  # the paper column

    def test_runs_truncated_figure4(self, capsys):
        assert main(["figure4", "--max-length", "4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "LOSS" in out

    def test_runs_truncated_figure10(self, capsys):
        assert main(["figure10", "--max-length", "3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 10" in out
        assert "OPT" in out

    def test_chart_flag_renders_ascii(self, capsys):
        assert main(["figure4", "--max-length", "2", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "seconds per locate vs schedule length" in out
        assert "|" in out  # the chart frame

    def test_runs_cache_sim(self, capsys):
        assert main(
            [
                "cache-sim",
                "--horizon-hours", "0.5",
                "--rate-per-hour", "240",
                "--cache-capacity", "200",
                "--hot-set", "1000",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Cache-sim" in out
        assert "hit %" in out
        assert "p99 (min)" in out

    def test_cache_sim_export(self, capsys, tmp_path):
        out_file = tmp_path / "cache.csv"
        assert main(
            [
                "cache-sim",
                "--horizon-hours", "0.25",
                "--rate-per-hour", "240",
                "--cache-capacity", "100",
                "--hot-set", "500",
                "--out", str(out_file),
            ]
        ) == 0
        assert out_file.exists()
        assert "exported to" in capsys.readouterr().out

    def test_runs_trace_smoke(self, capsys, tmp_path):
        jsonl = tmp_path / "trace.jsonl"
        assert main(
            [
                "trace",
                "--smoke",
                "--horizon-hours", "0.1",
                "--rate-per-hour", "120",
                "--max-batch", "8",
                "--trace-jsonl", str(jsonl),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "phases reconcile" in out
        assert "trace mean == stats mean" in out
        assert jsonl.exists()

    def test_trace_export(self, capsys, tmp_path):
        out_file = tmp_path / "trace_summary.csv"
        assert main(
            [
                "trace",
                "--horizon-hours", "0.1",
                "--rate-per-hour", "120",
                "--max-batch", "8",
                "--out", str(out_file),
            ]
        ) == 0
        assert out_file.exists()
        assert "exported to" in capsys.readouterr().out

    def test_runs_library_sim_smoke(self, capsys):
        assert main(
            ["library-sim", "--smoke", "--horizon-hours", "0.1"]
        ) == 0
        out = capsys.readouterr().out
        assert "Multi-drive library sweep" in out
        assert "zero lost requests" in out

    def test_library_sim_rejects_bad_drives(self):
        with pytest.raises(SystemExit):
            main(["library-sim", "--drives", "0"])

    @pytest.mark.parametrize(
        "flag", ["--rate-per-hour", "--horizon-hours"]
    )
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "x"])
    def test_rate_and_horizon_are_positive_finite(self, flag, value, capsys):
        # A usage error (exit 2) at parse time, before any simulation:
        # a NaN or infinite horizon would otherwise never end.
        with pytest.raises(SystemExit) as exit_info:
            main(["library-sim", flag, value])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err

    def test_runs_optimality_smoke(self, capsys):
        assert main(["optimality", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "LTSP frontier" in out
        assert "lower bound" in out

    def test_optimality_no_frontier(self, capsys):
        assert main(
            ["optimality", "--smoke", "--no-frontier"]
        ) == 0
        out = capsys.readouterr().out
        assert "LTSP frontier" not in out

    def test_optimality_rejects_bad_frontier_grid(self):
        with pytest.raises(SystemExit):
            main(["optimality", "--frontier-length", "1"])
        with pytest.raises(SystemExit):
            main(["optimality", "--frontier-trials", "0"])

    def test_optimality_export(self, capsys, tmp_path):
        out_file = tmp_path / "frontier.json"
        assert main(
            [
                "optimality", "--smoke",
                "--frontier-algorithm", "LTSP-exact",
                "--frontier-algorithm", "LTSP-sweep",
                "--out", str(out_file),
            ]
        ) == 0
        assert out_file.exists()
        assert "exported to" in capsys.readouterr().out

    def test_library_sim_export(self, capsys, tmp_path):
        out_file = tmp_path / "library.json"
        assert main(
            [
                "library-sim", "--smoke",
                "--horizon-hours", "0.05",
                "--cartridges", "4",
                "--out", str(out_file),
            ]
        ) == 0
        assert out_file.exists()
        assert "exported to" in capsys.readouterr().out

    def test_seed_flags_change_results(self, capsys):
        assert main(["figure4", "--max-length", "1"]) == 0
        first = capsys.readouterr().out
        assert main(
            ["figure4", "--max-length", "1", "--workload-seed", "9"]
        ) == 0
        second = capsys.readouterr().out
        assert first != second
