"""Every rule demonstrated on known-bad and known-clean snippets.

Each fixture is linted in isolation (directory fixtures as one run, so
cross-module rules see the whole mini-tree) and must produce exactly
the expected set of rule codes — known-bad snippets must trip their
rule, known-clean snippets must stay silent, and no fixture may
accidentally trip an unrelated rule.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import run_lint

FIXTURES = Path(__file__).resolve().parent / "fixtures"

#: fixture path (relative to the corpus root) -> expected code set.
CORPUS = {
    "rpr001/bad_wall_clock.py": {"RPR001"},
    "rpr001/bad_unseeded_rng.py": {"RPR001"},
    "rpr001/clean_seeded_rng.py": set(),
    "rpr001/clean_perf_counter.py": set(),
    "rpr002/bad_float_literal_eq.py": {"RPR002"},
    "rpr002/bad_seconds_eq.py": {"RPR002"},
    "rpr002/clean_isclose.py": set(),
    "rpr002/clean_zero_sentinel.py": set(),
    "rpr003/bad_bare_except.py": {"RPR003"},
    "rpr003/bad_swallow_exception.py": {"RPR003"},
    "rpr003/bad_offtaxonomy_raise.py": {"RPR003"},
    "rpr003/clean_reraise.py": set(),
    "rpr003/clean_taxonomy_raise.py": set(),
    "rpr004/bad_unknown_publish": {"RPR004"},
    "rpr004/bad_dead_event": {"RPR004"},
    "rpr004/clean_registry": set(),
    "rpr004/clean_no_registry": set(),
    "rpr005/bad_stale_all.py": {"RPR005"},
    "rpr005/bad_broken_shim.py": {"RPR005"},
    "rpr005/bad_derived_all.py": {"RPR005"},
    "rpr005/clean_all.py": set(),
    "rpr005/clean_derived_all.py": set(),
    "rpr005/clean_shim.py": set(),
    "rpr006/bad_bare_timeout.py": {"RPR006"},
    "rpr006/bad_ms_suffix.py": {"RPR006"},
    "rpr006/clean_seconds.py": set(),
    "rpr006/clean_hours.py": set(),
    "rpr007/bad_literal_seed.py": {"RPR007"},
    "rpr007/bad_transitive_seed": {"RPR007"},
    "rpr007/clean_threaded_seed.py": set(),
    "rpr007/clean_entry_constant.py": set(),
    "rpr008/bad_rng_into_pool.py": {"RPR008"},
    "rpr008/bad_rng_into_actor.py": {"RPR008"},
    "rpr008/clean_seed_handoff.py": set(),
    "rpr008/clean_local_rng.py": set(),
    "rpr009/bad_set_iteration.py": {"RPR009"},
    "rpr009/bad_listdir_to_sink.py": {"RPR009"},
    "rpr009/clean_sorted_first.py": set(),
    "rpr009/clean_order_insensitive.py": set(),
    "rpr010/bad_span_missing_phase.py": {"RPR010"},
    "rpr010/bad_phase_sum_drift.py": {"RPR010"},
    "rpr010/bad_unit_mix.py": {"RPR010"},
    "rpr010/clean_partition.py": set(),
    "rpr010/clean_converted_units.py": set(),
    "rpr000/bad_reasonless.py": {"RPR000"},
    "rpr000/bad_unknown_code.py": {"RPR000"},
    "rpr000/clean_suppressed.py": set(),
}


@pytest.mark.parametrize("relative", sorted(CORPUS))
def test_fixture(relative):
    path = FIXTURES / relative
    assert path.exists(), f"missing fixture {relative}"
    run = run_lint([path], root=FIXTURES)
    codes = {finding.code for finding in run.findings}
    assert codes == CORPUS[relative], (
        f"{relative}: expected {CORPUS[relative] or 'clean'}, got "
        + "\n".join(finding.render() for finding in run.findings)
    )


def test_every_rule_has_bad_and_clean_coverage():
    """>= 2 known-bad and >= 2 known-clean snippets per RPR code."""
    from repro.lint import REGISTRY

    for code in sorted(REGISTRY):
        family = code.lower()
        bad = [
            relative
            for relative, expected in CORPUS.items()
            if relative.startswith(family) and code in expected
        ]
        clean = [
            relative
            for relative, expected in CORPUS.items()
            if relative.startswith(family) and not expected
        ]
        assert len(bad) >= 2, f"{code}: need >= 2 known-bad fixtures"
        assert len(clean) >= 2, f"{code}: need >= 2 known-clean fixtures"


def test_suppressed_fixture_counts_the_suppression():
    run = run_lint(
        [FIXTURES / "rpr000" / "clean_suppressed.py"], root=FIXTURES
    )
    assert run.findings == []
    assert run.suppressed == 1
