"""Artifact cache, text-reporting and bench-envelope tests."""

import json
import shutil
import subprocess

import pytest

from repro.experiments import cache as artifact_cache
from repro.experiments import fingerprint, reporting
from repro.experiments.reporting import (
    banner,
    bench_envelope,
    format_table,
    frac,
    ghz,
    pct,
    seconds,
    write_bench_record,
)


class TestArtifactCache:
    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)

    def test_builder_runs_once(self):
        calls = []

        def build():
            calls.append(1)
            return {"answer": 42}

        first = artifact_cache.memoized("unit", ("k",), build)
        second = artifact_cache.memoized("unit", ("k",), build)
        assert first == second == {"answer": 42}
        assert len(calls) == 1

    def test_different_keys_are_distinct(self):
        a = artifact_cache.memoized("unit", ("a",), lambda: 1)
        b = artifact_cache.memoized("unit", ("b",), lambda: 2)
        assert (a, b) == (1, 2)

    def test_no_cache_env_disables_persistence(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        calls = []
        for _ in range(2):
            artifact_cache.memoized("unit", ("k2",), lambda: calls.append(1))
        assert len(calls) == 2

    def test_corrupt_artifact_is_rebuilt(self):
        artifact_cache.memoized("unit", ("k3",), lambda: "good")
        (pickle_file,) = list(artifact_cache.cache_dir().glob("unit-*.pkl"))
        pickle_file.write_bytes(b"not a pickle")
        rebuilt = artifact_cache.memoized("unit", ("k3",), lambda: "rebuilt")
        assert rebuilt == "rebuilt"

    def test_clear_removes_artifacts(self):
        artifact_cache.memoized("unit", ("k4",), lambda: 1)
        assert artifact_cache.clear() >= 1
        assert list(artifact_cache.cache_dir().glob("*.pkl")) == []


class TestReporting:
    def test_format_table_aligns_columns(self):
        text = format_table(("name", "value"), [("a", 1), ("longer", 22)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert all(len(line) == len(lines[0]) for line in lines[1:2])

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(("a", "b"), [("only-one",)])

    def test_pct_is_signed_change(self):
        assert pct(1.16) == "+16.0%"
        assert pct(0.98) == "-2.0%"

    def test_frac(self):
        assert frac(0.215) == "21.5%"
        assert frac(0.5, digits=0) == "50%"

    def test_ghz(self):
        assert ghz(1497.6e6) == "1.50"
        assert ghz(None) == "--"

    def test_seconds(self):
        assert seconds(1.234) == "1.23s"
        assert seconds(None) == "timeout"

    def test_banner_contains_title(self):
        assert "Fig. 7" in banner("Fig. 7")


class TestBenchEnvelope:
    @pytest.fixture
    def git(self, monkeypatch):
        """A stub git: ``head`` and ``status`` are the two commands'
        stdout, and ``None`` makes that command fail."""
        answers = {"head": "abc123\n", "status": ""}

        def run(argv, **kwargs):
            answer = answers["head" if argv[1] == "rev-parse" else "status"]
            if answer is None:
                return subprocess.CompletedProcess(argv, 128, "", "fatal")
            return subprocess.CompletedProcess(argv, 0, answer, "")

        monkeypatch.setattr(reporting.subprocess, "run", run)
        return answers

    def test_keys(self, git):
        envelope = bench_envelope("fleet-bench", repeats=3, extra={"note": 1})
        assert set(envelope) == {
            "schema", "command", "git_sha", "git_dirty", "calibration",
            "host_cpu_count", "degraded_host", "repeats", "note",
        }
        assert envelope["schema"] == "repro-bench-envelope/1"
        assert envelope["command"] == "fleet-bench"
        assert envelope["git_sha"] == "abc123"
        assert envelope["repeats"] == 3
        assert set(envelope["calibration"]) == {
            "tag", "fingerprint", "pinned_fingerprint",
        }

    @pytest.mark.parametrize("cpus, degraded", [(1, True), (4, False)])
    def test_degraded_host(self, git, monkeypatch, capsys, cpus, degraded):
        monkeypatch.setattr(reporting.os, "cpu_count", lambda: cpus)
        envelope = bench_envelope("sim-bench")
        assert envelope["host_cpu_count"] == cpus
        assert envelope["degraded_host"] is degraded
        assert ("single-CPU host" in capsys.readouterr().err) is degraded

    @pytest.mark.parametrize(
        "head, status, dirty",
        [
            ("abc123\n", " M src/repro/cli.py\n", True),
            ("abc123\n", "", False),
            (None, "", None),
        ],
    )
    def test_git_dirty(self, git, head, status, dirty):
        git.update(head=head, status=status)
        envelope = bench_envelope("fleet-bench")
        assert envelope["git_dirty"] is dirty
        assert (envelope["git_sha"] == "unknown") is (head is None)

    @pytest.mark.parametrize(
        "changed, dirty",
        [
            ("BENCH_fleet.json", False),
            ("src/repro/experiments/BENCH_fleet.json", True),
            ("src/repro/cli.py", True),
        ],
    )
    def test_git_dirty_ignores_the_root_bench_records(
        self, monkeypatch, tmp_path, changed, dirty
    ):
        """A benchmark rewrites its tracked root-level record, so that
        file alone must not stamp the next record dirty; the same name
        anywhere else, or any other tracked file, still does."""
        if shutil.which("git") is None:
            pytest.skip("git is not installed")
        tracked = (
            "BENCH_fleet.json",
            "src/repro/experiments/BENCH_fleet.json",
            "src/repro/cli.py",
        )
        for name in tracked:
            path = tmp_path / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("{}\n")
        subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
        subprocess.run(["git", "add", "-A"], cwd=tmp_path, check=True)
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t",
             "commit", "-q", "-m", "records"],
            cwd=tmp_path, check=True,
        )
        (tmp_path / changed).write_text('{"rewritten": true}\n')
        run = subprocess.run

        def in_the_scratch_repo(argv, **kwargs):
            # Same depth below the top as this module's own checkout.
            kwargs["cwd"] = tmp_path / "src" / "repro" / "experiments"
            return run(argv, **kwargs)

        monkeypatch.setattr(reporting.subprocess, "run", in_the_scratch_repo)
        assert bench_envelope("fleet-bench")["git_dirty"] is dirty

    def test_calibration_drift_is_warned(self, git, monkeypatch, capsys):
        monkeypatch.setattr(
            fingerprint,
            "calibration_identity",
            lambda: {
                "tag": "t",
                "fingerprint": "live0123",
                "pinned_fingerprint": "pin4567",
            },
        )
        envelope = bench_envelope("swap-bench")
        err = capsys.readouterr().err
        assert "live0123" in err and "pin4567" in err
        assert envelope["calibration"]["fingerprint"] == "live0123"

    def test_pinned_calibration_is_not_warned(self, git, capsys):
        bench_envelope("swap-bench")
        assert "calibration fingerprint" not in capsys.readouterr().err

    def test_write_bench_record_round_trips(self, git, tmp_path):
        record = {"envelope": bench_envelope("sim-bench"), "speedup": 5.5}
        path = tmp_path / "BENCH_engine.json"
        write_bench_record(path, record)
        assert json.loads(path.read_text()) == record
        assert path.read_text().endswith("}\n")

    def test_write_bench_record_refuses_a_drifted_calibration(
        self, git, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(
            fingerprint,
            "calibration_identity",
            lambda: {
                "tag": "t",
                "fingerprint": "live0123",
                "pinned_fingerprint": "pin4567",
            },
        )
        record = {"envelope": bench_envelope("sim-bench"), "speedup": 5.5}
        path = tmp_path / "BENCH_engine.json"
        with pytest.raises(ValueError, match="live0123.*pin4567"):
            write_bench_record(path, record)
        assert not path.exists()

    @pytest.mark.parametrize(
        "record", [{"speedup": 5.5}, {"envelope": {"schema": "other/1"}}]
    )
    def test_write_bench_record_needs_the_envelope(self, tmp_path, record):
        path = tmp_path / "BENCH_engine.json"
        with pytest.raises(ValueError, match="envelope"):
            write_bench_record(path, record)
        assert not path.exists()
