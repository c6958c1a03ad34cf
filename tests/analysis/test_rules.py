"""Each rule fires on its fixture -- and only on its fixture.

The fixture trees under ``fixtures/`` act as miniature package roots
(rule path scoping is relative to the scanned root), each containing
exactly one violation of exactly one rule.
"""

from pathlib import Path

import pytest

from repro.analysis import ALL_RULES, RULES_BY_ID, run_lint

FIXTURES = Path(__file__).parent / "fixtures"

EXPECTED = {
    "R001": ("r001", "workloads/noisy.py"),
    "R002": ("r002", "sim/clocked.py"),
    "R003": ("r003", "kernel.py"),
    "R004": ("r004", "serve/knobs.py"),
    "R005": ("r005", "stats.py"),
    "R006": ("r006", "core/mutator.py"),
    "R101": ("r101", "serve/state.py"),
    "R102": ("r102", "learn/registry.py"),
    "R104": ("r104", "serve/dispatchers.py"),
    "R105": ("r105", "runtime/queueing.py"),
}


def test_every_shipped_rule_has_a_fixture():
    assert set(EXPECTED) == set(RULES_BY_ID)


@pytest.mark.parametrize("rule_id", sorted(EXPECTED))
def test_fixture_trips_exactly_its_rule(rule_id):
    fixture_dir, expected_path = EXPECTED[rule_id]
    report = run_lint(package_root=FIXTURES / fixture_dir)
    assert len(report.new_findings) == 1, report.render()
    finding = report.new_findings[0]
    assert finding.rule_id == rule_id
    assert finding.path == expected_path
    assert finding.line > 0
    assert finding.snippet  # baseline key must be non-empty
    assert not report.baselined and not report.suppressed


@pytest.mark.parametrize("rule_id", sorted(EXPECTED))
def test_fixtures_do_not_cross_fire(rule_id):
    """Running every *other* rule over a fixture finds nothing."""
    fixture_dir, _ = EXPECTED[rule_id]
    others = [rule for rule in ALL_RULES if rule.rule_id != rule_id]
    report = run_lint(package_root=FIXTURES / fixture_dir, rules=others)
    assert report.new_findings == [], report.render()


def test_clean_fixture_only_suppressions():
    report = run_lint(package_root=FIXTURES / "clean")
    assert report.ok, report.render()
    assert report.new_findings == []
    # One standalone-comment suppression, one trailing wildcard.
    assert len(report.suppressed) == 2
    assert {f.rule_id for f in report.suppressed} == {"R001"}


def test_rule_metadata_complete():
    for rule in ALL_RULES:
        assert rule.rule_id.startswith("R")
        assert rule.title
        assert rule.rationale
