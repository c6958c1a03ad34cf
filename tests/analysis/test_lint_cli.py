"""The ``repro lint`` command: exit codes, formats, injection gate.

The injection test is the acceptance criterion in the flesh: copy the
real package tree, drop any violation fixture into it, and the CLI
must flip from exit 0 to exit 1 with the *shipped* baseline applied.
"""

import json
import shutil
from pathlib import Path

import pytest

import repro
from repro.analysis import default_baseline_path
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
PACKAGE_ROOT = Path(repro.__file__).parent


def _copied_package(tmp_path: Path) -> Path:
    root = tmp_path / "repro"
    shutil.copytree(
        PACKAGE_ROOT, root, ignore=shutil.ignore_patterns("__pycache__")
    )
    return root


def test_lint_exits_zero_at_head(capsys):
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "0 new" in out


def test_lint_json_format(capsys):
    assert main(["lint", "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["ok"] is True
    assert record["new"] == []
    assert record["files_scanned"] > 50
    # The R005 baseline was burned down; nothing is grandfathered.
    assert record["baselined"] == []
    # Per-rule wall-clock cost is reported for every active rule, plus
    # the call-graph build the project rules share.
    assert set(record["timings_s"]) >= {"R001", "R104", "callgraph"}


def test_lint_writes_report_artifact(tmp_path, capsys):
    out_path = tmp_path / "lint-report.json"
    assert main(["lint", "--output", str(out_path)]) == 0
    record = json.loads(out_path.read_text())
    assert record["ok"] is True


def test_lint_rule_filter_and_no_baseline(capsys):
    # After the R005 burn-down every rule passes without the baseline.
    assert main(["lint", "--rules", "R005", "--no-baseline"]) == 0
    assert main(["lint", "--rules", "R003", "--no-baseline"]) == 0
    # Comma-separated selection is equivalent to space-separated.
    assert main(["lint", "--rules", "R005,R003", "--no-baseline"]) == 0


def test_lint_graph_dump(capsys):
    assert main(["lint", "--graph"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["functions"] > 400
    assert "serve/fleet.py" in record["modules"]
    assert any(
        edge["external"] == "numpy.random.SeedSequence"
        for edge in record["edges"]
    )


def test_lint_exclude_skips_prefixes(capsys):
    # Excluding the only violating subtree of a fixture root passes.
    root = FIXTURES / "r002"
    assert main(["lint", "--root", str(root), "--exclude", "sim"]) == 0
    assert main(["lint", "--root", str(root)]) == 1


def test_full_scan_stays_fast():
    from time import perf_counter

    from repro.analysis import run_lint

    start = perf_counter()
    report = run_lint()
    elapsed = perf_counter() - start
    assert report.ok
    assert elapsed < 10.0, f"full lint scan took {elapsed:.1f}s"


def test_lint_unknown_rule_is_usage_error(capsys):
    assert main(["lint", "--rules", "R999"]) == 2
    err = capsys.readouterr().err
    # The error names the unknown id and lists the known ones.
    assert "R999" in err
    assert "R001" in err and "R105" in err


@pytest.mark.parametrize(
    "fixture, member",
    [
        ("r001", "workloads/noisy.py"),
        ("r002", "sim/clocked.py"),
        ("r003", "kernel.py"),
        ("r004", "serve/knobs.py"),
        ("r005", "stats.py"),
        ("r006", "core/mutator.py"),
        ("r101", "serve/state.py"),
        ("r102", "learn/registry.py"),
        ("r104", "serve/dispatchers.py"),
        ("r105", "runtime/queueing.py"),
    ],
)
def test_injected_violation_fails_the_gate(tmp_path, capsys, fixture, member):
    """Copy the real tree, inject one fixture violation, expect exit 1."""
    root = _copied_package(tmp_path)
    source = FIXTURES / fixture / member
    target = root / member
    target.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(source, target)

    args = [
        "lint",
        "--root", str(root),
        "--baseline", str(default_baseline_path()),
    ]
    assert main(args) == 1
    out = capsys.readouterr().out
    assert fixture.upper() in out  # the rule id appears in the report


def test_copied_tree_without_injection_passes(tmp_path, capsys):
    root = _copied_package(tmp_path)
    args = [
        "lint",
        "--root", str(root),
        "--baseline", str(default_baseline_path()),
    ]
    assert main(args) == 0


def test_write_baseline_round_trip(tmp_path, capsys):
    root = tmp_path / "pkg"
    shutil.copytree(FIXTURES / "r004", root)
    baseline_path = tmp_path / "baseline.json"

    # Gate fails before the baseline exists...
    assert main(["lint", "--root", str(root), "--baseline", str(baseline_path)]) == 1
    # ...writing the baseline grandfathers the finding...
    assert (
        main([
            "lint", "--root", str(root),
            "--baseline", str(baseline_path), "--write-baseline",
        ])
        == 0
    )
    # ...and the gate passes afterwards.
    assert main(["lint", "--root", str(root), "--baseline", str(baseline_path)]) == 0


def test_stale_baseline_fails_the_gate(tmp_path, capsys):
    root = tmp_path / "pkg"
    shutil.copytree(FIXTURES / "r004", root)
    baseline_path = tmp_path / "baseline.json"
    main([
        "lint", "--root", str(root),
        "--baseline", str(baseline_path), "--write-baseline",
    ])
    # Fix the violation; the now-stale entry must fail the gate.
    (root / "serve" / "knobs.py").write_text(
        '"""Fixed."""\n\n\ndef batch_size() -> int:\n    return 64\n'
    )
    assert main(["lint", "--root", str(root), "--baseline", str(baseline_path)]) == 1
    assert "stale" in capsys.readouterr().out
