"""Result export."""

import csv
import json

import pytest

from repro.experiments import ExperimentConfig, run_per_locate
from repro.experiments.export import (
    result_to_rows,
    write_csv,
    write_json,
    write_result,
)


@pytest.fixture(scope="module")
def per_locate():
    return run_per_locate(
        ExperimentConfig(lengths=(4, 16), scale="quick"),
        origin_at_start=False,
        algorithms=("FIFO", "OPT"),
    )


class TestFlattening:
    def test_per_locate_records(self, per_locate):
        records = result_to_rows(per_locate)
        # FIFO at both lengths, OPT at both (4 and 16 <= 12? 16 > 12 so
        # OPT skipped there): 3 records.
        algorithms = {(r["algorithm"], r["length"]) for r in records}
        assert ("FIFO", 4) in algorithms
        assert ("FIFO", 16) in algorithms
        assert ("OPT", 4) in algorithms
        assert ("OPT", 16) not in algorithms
        for record in records:
            assert record["seconds_per_locate"] > 0
            assert record["trials"] > 0

    def test_validation_records(self):
        from repro.experiments import figure8

        result = figure8.run(
            ExperimentConfig(scale="quick", max_length=16)
        )
        records = result_to_rows(result)
        assert all(r["label"] == "figure8" for r in records)
        assert {r["length"] for r in records} == {8, 16}

    def test_generic_rows_fallback(self):
        class FakeResult:
            def rows(self):
                return [[1, 2.5], [2, 3.5]]

        records = result_to_rows(FakeResult())
        assert records == [
            {"col0": 1, "col1": 2.5},
            {"col0": 2, "col1": 3.5},
        ]

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            result_to_rows(object())


class TestWriting:
    def test_csv_round_trip(self, per_locate, tmp_path):
        path = write_csv(per_locate, tmp_path / "fig4.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 3
        assert float(rows[0]["seconds_per_locate"]) > 0

    def test_json_round_trip(self, per_locate, tmp_path):
        path = write_json(per_locate, tmp_path / "fig4.json")
        records = json.loads(path.read_text())
        assert len(records) == 3

    def test_dispatch_by_extension(self, per_locate, tmp_path):
        assert write_result(
            per_locate, tmp_path / "a.csv"
        ).suffix == ".csv"
        assert write_result(
            per_locate, tmp_path / "a.json"
        ).suffix == ".json"
        with pytest.raises(ValueError):
            write_result(per_locate, tmp_path / "a.xlsx")


class TestCliIntegration:
    def test_out_flag(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "result.csv"
        assert main(
            ["figure4", "--max-length", "2", "--out", str(out)]
        ) == 0
        assert out.exists()
        assert "exported" in capsys.readouterr().out

    def test_out_with_all_rejected(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["all", "--out", str(tmp_path / "x.csv")])
