"""Command-line interface."""

import csv
import re
import shlex
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.experiments import (
    chaos,
    figure1,
    library_sim,
    optimality,
    section3_stats,
    serve_sim,
)


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
                "figure4",
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
        assert args.cartridges == library_sim.DEFAULT_CARTRIDGES
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

    def test_per_experiment_defaults(self):
        chaos_args = build_parser().parse_args(["chaos", "--library"])
        assert (chaos_args.drives, chaos_args.arms) == (4, 2)
        assert chaos_args.cartridges == 6
        serve_args = build_parser().parse_args(["serve-sim"])
        assert serve_args.cartridges == serve_sim.DEFAULT_CARTRIDGES
        assert serve_args.backend_depth == serve_sim.DEFAULT_BACKEND_DEPTH

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure8", "--scale", "full"],  # validation trials are fixed
            ["figure1", "--workload-seed", "3"],
            ["serve-sim", "--rate-per-hour", "60"],
            ["gaps", "--max-length", "8"],
            # The summary reads fixed lengths; a cap would drop them.
            ["summary", "--max-length", "16"],
            ["all", "--out", "all.csv"],
        ],
    )
    def test_flags_an_experiment_does_not_read_are_rejected(self, argv):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2


class TestMain:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["figure4", "--max-length", "0"], "--max-length"),
            (["figure4", "--tape-seed", "-5"], "--tape-seed"),
            (["figure4", "--workers", "-1"], "--workers"),
            (["figure4", "--out", "fig4.xlsx"], "--out"),
            (["trace", "--max-batch", "0"], "--max-batch"),
            (["cache-sim", "--hot-set", "0"], "--hot-set"),
            (["cache-sim", "--zipf-alpha", "nan"], "--zipf-alpha"),
            (["cache-sim", "--cache-capacity", "0"], "--cache-capacity"),
            (["serve-sim", "--algorithm", "NOPE"], "--algorithm"),
            (["serve-sim", "--backend-depth", "-1"], "--backend-depth"),
            (["library-sim", "--exchange-policy", "nope"],
             "--exchange-policy"),
            (["library-sim", "--assignment-policy", "nope"],
             "--assignment-policy"),
            (["library-sim", "--arm-policy", "nope"], "--arm-policy"),
            (["chaos", "--library", "--drives", "0"], "--drives"),
            (["chaos", "--retry-probability", "1.5"], "--retry-probability"),
            (["chaos", "--reset-probability", "nan"], "--reset-probability"),
            (["chaos", "--max-requeues", "-1"], "--max-requeues"),
            (["optimality", "--frontier-algorithm", "NOPE"],
             "--frontier-algorithm"),
        ],
    )
    def test_bad_values_are_usage_errors(self, argv, flag, capsys):
        # Rejected at parse time (exit 2, naming the flag), before any
        # simulation starts.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, module, name, result",
        [
            (["chaos"], chaos, "main",
             SimpleNamespace(all_complete=False)),
            (["chaos", "--library"], chaos, "main_library",
             SimpleNamespace(ok=False)),
            (["library-sim"], library_sim, "main",
             SimpleNamespace(all_complete=False)),
            (["serve-sim"], serve_sim, "main",
             SimpleNamespace(all_complete=True, slo_ok=False)),
            (["serve-sim"], serve_sim, "main",
             SimpleNamespace(all_complete=False, slo_ok=True)),
        ],
    )
    def test_failed_gate_exits_one(
        self, argv, module, name, result, monkeypatch
    ):
        monkeypatch.setattr(module, name, lambda *a, **k: result)
        assert main(argv) == 1

    @pytest.mark.parametrize("gap, status", [(-1.0, 1), (0.0, 0)])
    def test_optimality_gate(self, gap, status, monkeypatch):
        frontier = SimpleNamespace(
            gaps={("LOSS", 8): SimpleNamespace(mean=gap)}
        )
        monkeypatch.setattr(
            optimality, "run",
            lambda *a, **k: SimpleNamespace(frontier=frontier),
        )
        monkeypatch.setattr(optimality, "report", lambda result: None)
        assert main(["optimality"]) == status

    @pytest.mark.parametrize(
        "experiment, module",
        [("figure1", figure1), ("section3", section3_stats)],
    )
    def test_seed_only_experiments_export(
        self, experiment, module, tmp_path, capsys
    ):
        out_file = tmp_path / f"{experiment}.csv"
        assert main([experiment, "--out", str(out_file)]) == 0
        with out_file.open() as handle:
            header = next(csv.reader(handle))
        assert header == module.run().headers()
        assert "exported to" in capsys.readouterr().out

    def test_summary_rejects_max_length_by_name(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["summary", "--max-length", "16"])
        assert exit_info.value.code == 2
        assert "--max-length" in capsys.readouterr().err

    def test_all_runs_the_paper_experiments_in_order(self, monkeypatch):
        ran = []
        for name in cli._ALL_ORDER:
            monkeypatch.setitem(
                cli._EXPERIMENTS, name,
                cli._EXPERIMENTS[name]._replace(
                    run=lambda args, name=name: (ran.append(name), 0)
                ),
            )
        assert main(["all", "--workers", "2", "--chart"]) == 0
        assert ran == list(cli._ALL_ORDER)

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

    def test_gaps_prints_only_the_gap_table(self, capsys):
        assert main(["gaps"]) == 0
        out = capsys.readouterr().out
        assert "lower bound" in out
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


# --- every documented invocation parses ----------------------------------

_REPO = Path(__file__).resolve().parents[1]
_DOCUMENTS = (
    _REPO / "README.md",
    _REPO / "DESIGN.md",
    *sorted((_REPO / "docs").glob("*.md")),
    _REPO / ".github" / "workflows" / "ci.yml",
)
_COMMAND = re.compile(r"(?:python3? -m |^)repro (.*)")
_SHELL_OPERATORS = {"|", "||", "&&", ";", "&", ">", ">>", "<", "2>&1"}


def _candidates(path: Path) -> list[str]:
    """Command-line candidates, continuation lines joined."""
    text = path.read_text().replace("\\\n", " ")
    if path.suffix == ".yml":
        # A folded ``run: >`` block is one command over several lines.
        lines, candidates = text.splitlines(), []
        index = 0
        while index < len(lines):
            line = lines[index]
            index += 1
            if not line.rstrip().endswith("run: >"):
                candidates.append(line)
                continue
            indent = len(line) - len(line.lstrip())
            block = []
            while index < len(lines) and (
                len(lines[index]) - len(lines[index].lstrip()) > indent
            ):
                block.append(lines[index].strip())
                index += 1
            candidates.append(" ".join(block))
        return candidates
    # Markdown: every line of a fenced block, and every inline code
    # span of the prose (which may wrap across lines).
    candidates = []
    for number, part in enumerate(text.split("```")):
        if number % 2:
            candidates.extend(part.splitlines())
        else:
            candidates.extend(re.findall(r"`([^`]+)`", part))
    return candidates


def _documented_invocations() -> list[tuple[str, list[str]]]:
    found = []
    for path in _DOCUMENTS:
        for candidate in _candidates(path):
            candidate = re.sub(r"\s+", " ", candidate).strip()
            match = _COMMAND.search(candidate.removeprefix("$ "))
            if match is None:
                continue
            argv = []
            for token in shlex.split(match.group(1), comments=True):
                if token in _SHELL_OPERATORS:
                    break
                argv.append(token)
            if argv and argv[0] != "lint":
                found.append((f"{path.name}: {' '.join(argv)}", argv))
    return found


_INVOCATIONS = _documented_invocations()


def test_documented_invocations_were_found():
    # Guards the extraction itself: README, docs/ and CI hold dozens.
    assert len(_INVOCATIONS) >= 40


@pytest.mark.parametrize(
    "argv", [argv for _, argv in _INVOCATIONS],
    ids=[label for label, _ in _INVOCATIONS],
)
def test_documented_invocation_parses(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit as exit_info:  # --help exits 0 once printed
        assert exit_info.code == 0
