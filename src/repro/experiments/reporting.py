"""Plain-text rendering of the paper's rows and series.

Every figure generator in :mod:`repro.experiments.figures` returns a
structured result; the functions here turn those into aligned text
tables so the benchmark harness can print exactly the rows/series the
paper reports.

This module also owns :func:`bench_envelope`, the provenance block
every benchmark JSON report (`fleet-bench`, `sim-bench`, `swap-bench`
and the runtime bench) attaches under its ``"envelope"`` key -- one
schema instead of per-command ad-hoc metadata -- and
:func:`write_bench_record`, the one writer of those reports.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Iterable, Sequence

#: Schema tag of the shared benchmark-report envelope.
BENCH_ENVELOPE_SCHEMA = "repro-bench-envelope/1"


def _git(*args: str) -> str | None:
    """Stdout of a git command in this checkout, ``None`` if it failed."""
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10.0,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout if out.returncode == 0 else None


def git_revision() -> str:
    """The repo's HEAD commit hash, or ``"unknown"`` outside a checkout."""
    revision = (_git("rev-parse", "HEAD") or "").strip()
    return revision or "unknown"


def bench_envelope(
    command: str, repeats: int = 1, extra: dict[str, Any] | None = None
) -> dict[str, Any]:
    """The shared provenance envelope of one benchmark report.

    Attached as the report's ``"envelope"`` key (payload keys stay
    top-level, so existing consumers keep reading the same shapes).

    Args:
        command: The bench command name (``"fleet-bench"`` etc.).
        repeats: Timed repetitions the report's numbers were taken
            over (best-of semantics are the command's business).
        extra: Optional command-specific additions merged in last.

    Returns:
        ``{"schema", "command", "git_sha", "git_dirty", "calibration",
        "host_cpu_count", "degraded_host", "repeats", ...extra}``;
        ``git_dirty`` is whether tracked files differ from ``git_sha``
        (``None`` when the commit is unknown), and ``calibration`` is
        :func:`repro.experiments.fingerprint.calibration_identity`;
        a live fingerprint that differs from the pinned one is warned
        about on stderr.  ``degraded_host`` is true on single-CPU
        hosts, where concurrency and vectorization speedups are
        structurally unavailable -- comparisons against multi-core
        acceptance bars (e.g. a sub-1.0 "speedup" in
        ``BENCH_runtime.json``) must not be read as regressions.
    """
    from repro.experiments.fingerprint import calibration_identity

    cpu_count = os.cpu_count() or 1
    degraded = cpu_count == 1
    if degraded:
        print(
            f"warning: {command}: single-CPU host -- marking the bench "
            "envelope degraded_host; speedup bars do not apply here",
            file=sys.stderr,
        )
    calibration = calibration_identity()
    if calibration["fingerprint"] != calibration["pinned_fingerprint"]:
        print(
            f"warning: {command}: calibration fingerprint "
            f"{calibration['fingerprint']} differs from the pinned "
            f"{calibration['pinned_fingerprint']} -- the record's numbers "
            "come from an unpinned calibration",
            file=sys.stderr,
        )
    revision = git_revision()
    dirty = None
    if revision != "unknown":
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status.strip())
    envelope: dict[str, Any] = {
        "schema": BENCH_ENVELOPE_SCHEMA,
        "command": command,
        "git_sha": revision,
        "git_dirty": dirty,
        "calibration": calibration,
        "host_cpu_count": cpu_count,
        "degraded_host": degraded,
        "repeats": repeats,
    }
    if extra:
        envelope.update(extra)
    return envelope


def write_bench_record(path: str | Path, record: dict[str, Any]) -> None:
    """Write one benchmark report as indented JSON.

    Args:
        path: Destination (``BENCH_<name>.json``).
        record: The report, carrying its :func:`bench_envelope` under
            ``"envelope"``.

    Raises:
        ValueError: When the record has no shared bench envelope.
    """
    envelope = record.get("envelope")
    schema = envelope.get("schema") if isinstance(envelope, dict) else None
    if schema != BENCH_ENVELOPE_SCHEMA:
        raise ValueError(f"bench record lacks a {BENCH_ENVELOPE_SCHEMA} envelope")
    Path(path).write_text(json.dumps(record, indent=2) + "\n")


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Render an aligned text table.

    Args:
        headers: Column titles.
        rows: Row cells; everything is ``str()``-ed.

    Returns:
        The table as a newline-joined string.
    """
    text_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in text_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match header width")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in text_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def pct(value: float, digits: int = 1) -> str:
    """Format a ratio as a signed percent change (1.16 -> ``+16.0%``)."""
    return f"{(value - 1.0) * 100:+.{digits}f}%"


def frac(value: float, digits: int = 1) -> str:
    """Format a fraction as percent (0.21 -> ``21.0%``)."""
    return f"{value * 100:.{digits}f}%"


def ghz(freq_hz: float | None) -> str:
    """Format a frequency in GHz (None -> ``--``)."""
    if freq_hz is None:
        return "--"
    return f"{freq_hz / 1e9:.2f}"


def seconds(value: float | None, digits: int = 2) -> str:
    """Format seconds (None -> ``timeout``)."""
    if value is None:
        return "timeout"
    return f"{value:.{digits}f}s"


def banner(title: str) -> str:
    """A section banner."""
    bar = "=" * max(8, len(title) + 4)
    return f"{bar}\n  {title}\n{bar}"
