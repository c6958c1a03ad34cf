"""Append-only decision-telemetry store for the online learning loop.

The fleet front-end produces one record per served decision: the
request's feature/condition vector, the frequency it was told to run
at, the model's predicted load time and power behind that choice, and
-- when the caller simulated the outcome -- the observed load time and
energy.  This module persists those records so a retraining job can
replay them later (:mod:`repro.learn.retrain`).

Layout and write discipline
---------------------------
Records land under ``<root>/<CALIBRATION_FINGERPRINT>/shard-NNNN.jsonl``:

* **fingerprint partition** -- telemetry is only meaningful against
  the model constants that produced it, so records trained under a
  different calibration can never silently mix into a refit;
* **shard partition** -- each concurrent writer owns its own file
  (the fleet router is one writer, on shard 0), so writes never
  contend (the single-writer-per-file rule that makes plain
  ``O_APPEND`` JSONL safe without locks);
* **fsync batching** -- a writer buffers ``batch_size`` encoded lines
  and issues one ``write + flush + fsync`` per batch, amortizing the
  durability cost across records instead of paying it per decision;
* **torn tails** -- a crash mid-batch can leave a shard's last line
  cut short.  Readers skip such a final fragment, and the next writer
  on the shard truncates it away before appending, so the fragment
  never swallows a new record.

JSON floats round-trip exactly (``repr`` produces the shortest string
that parses back to the same double), so a replayed record reproduces
the original feature vector bit-for-bit -- the property the
closed-loop retraining invariant rests on.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterator

from repro.experiments.cache import CALIBRATION_FINGERPRINT

#: Version tag stamped into every record.
TELEMETRY_SCHEMA = "repro-decision-telemetry/1"

#: Records buffered per fsync batch.
DEFAULT_BATCH_SIZE = 64

#: Fields every record must carry (the nullable outcome fields are
#: optional; ``None`` means the caller never simulated the decision).
REQUIRED_FIELDS = (
    "device_id",
    "page",
    "corunner_mpki",
    "corunner_utilization",
    "temperature_c",
    "deadline_s",
    "fopt_hz",
    "accepted",
)


def decision_record(
    request: Any,
    response: Any,
    now_s: float,
    model_version: int = 0,
    simulated_load_time_s: float | None = None,
    simulated_energy_j: float | None = None,
) -> dict[str, Any]:
    """Build one telemetry record from a served decision.

    Args:
        request: The :class:`~repro.serve.service.DecisionRequest`.
        response: The matching
            :class:`~repro.serve.service.DecisionResponse`.
        now_s: Service-clock time the decision was absorbed.
        model_version: The fleet's model version that decided it.
        simulated_load_time_s: Optional simulated outcome.
        simulated_energy_j: Optional simulated outcome.
    """
    trace = response.trace
    return {
        "device_id": request.device_id,
        "ticket": response.request_id,
        "now_s": now_s,
        "page": list(request.page.as_tuple()),
        "corunner_mpki": request.corunner_mpki,
        "corunner_utilization": request.corunner_utilization,
        "temperature_c": request.temperature_c,
        "deadline_s": request.deadline_s,
        "accepted": response.accepted,
        "skipped": bool(trace.skipped) if trace is not None else False,
        "fopt_hz": response.fopt_hz,
        "predicted_load_time_s": trace.load_time_s if trace is not None else None,
        "predicted_power_w": trace.power_w if trace is not None else None,
        "model_version": model_version,
        "simulated_load_time_s": simulated_load_time_s,
        "simulated_energy_j": simulated_energy_j,
    }


def _drop_torn_tail(path: Path) -> None:
    """Truncate a shard back to its last complete line.

    A shard whose last byte is not a newline ends in the fragment of a
    write a crash cut short; appending after it would glue the next
    record onto the fragment.  A missing or empty shard is left alone.
    """
    try:
        handle = open(path, "r+b")
    except FileNotFoundError:
        return
    with handle:
        end = handle.seek(0, os.SEEK_END)
        if end == 0:
            return
        handle.seek(end - 1)
        if handle.read(1) == b"\n":
            return
        handle.seek(0)
        handle.truncate(
            sum(len(line) for line in handle if line.endswith(b"\n"))
        )
        handle.flush()
        os.fsync(handle.fileno())


class TelemetryWriter:
    """Single-shard append handle with fsync batching.

    Not thread-safe by design: one writer per shard partition is the
    contract that keeps the store lock-free.  Opening a shard drops a
    torn last line left by a crashed writer.
    """

    def __init__(self, path: Path, batch_size: int = DEFAULT_BATCH_SIZE) -> None:
        if batch_size < 1:
            raise ValueError("batch size must be at least 1")
        self.path = path
        self.batch_size = batch_size
        self.records_written = 0
        self.sync_batches = 0
        self._buffer: list[str] = []
        _drop_torn_tail(path)
        self._file = open(path, "a", encoding="utf-8")

    def append(self, record: dict[str, Any]) -> None:
        """Queue one record; flushes durably every ``batch_size``."""
        for field in REQUIRED_FIELDS:
            if field not in record:
                raise ValueError(f"telemetry record missing {field!r}")
        self._buffer.append(json.dumps(record, sort_keys=True))
        if len(self._buffer) >= self.batch_size:
            self._sync()

    def _sync(self) -> None:
        if not self._buffer:
            return
        self._file.write("\n".join(self._buffer) + "\n")
        self._file.flush()
        os.fsync(self._file.fileno())
        self.records_written += len(self._buffer)
        self.sync_batches += 1
        self._buffer.clear()

    def close(self) -> None:
        """Flush the tail batch and close the file (idempotent)."""
        if self._file.closed:
            return
        self._sync()
        self._file.close()

    def __enter__(self) -> "TelemetryWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class TelemetryStore:
    """The partitioned on-disk telemetry set for one calibration.

    Args:
        root: Store root; partitions are created beneath it.
        fingerprint: Calibration partition key (defaults to the
            pinned :data:`CALIBRATION_FINGERPRINT`).
        batch_size: fsync batch for writers created by this store.
    """

    def __init__(
        self,
        root: str | Path,
        fingerprint: str = CALIBRATION_FINGERPRINT,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        self.root = Path(root)
        self.fingerprint = fingerprint
        self.batch_size = batch_size
        self.partition = self.root / fingerprint
        self.partition.mkdir(parents=True, exist_ok=True)

    def shard_path(self, shard: int) -> Path:
        """The JSONL file owned by one shard's writer."""
        if shard < 0:
            raise ValueError("shard index must be non-negative")
        return self.partition / f"shard-{shard:04d}.jsonl"

    def writer(self, shard: int = 0) -> TelemetryWriter:
        """An append handle for one shard partition."""
        return TelemetryWriter(self.shard_path(shard), self.batch_size)

    def shard_files(self) -> list[Path]:
        """Existing shard files, in shard order."""
        return sorted(self.partition.glob("shard-*.jsonl"))

    def iter_records(self) -> Iterator[dict[str, Any]]:
        """Every stored record, shard-major then append order.

        An undecodable last line of a shard is a torn write and is
        skipped.  An undecodable line with records after it is
        corruption and raises :class:`json.JSONDecodeError`.
        """
        for path in self.shard_files():
            with open(path, encoding="utf-8") as handle:
                torn: json.JSONDecodeError | None = None
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    if torn is not None:
                        raise torn
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError as error:
                        torn = error
                        continue
                    yield record

    def record_count(self) -> int:
        """Total records across all shard files."""
        return sum(1 for _ in self.iter_records())

    def export_npz(self, path: str | Path) -> int:
        """Dump the numeric columns to one NPZ for offline analysis.

        Returns the number of exported records.  Nullable outcome
        columns encode ``None`` as NaN.
        """
        import numpy as np

        records = list(self.iter_records())
        columns: dict[str, list] = {
            "page": [],
            "corunner_mpki": [],
            "corunner_utilization": [],
            "temperature_c": [],
            "deadline_s": [],
            "fopt_hz": [],
            "accepted": [],
            "model_version": [],
            "predicted_load_time_s": [],
            "predicted_power_w": [],
            "simulated_load_time_s": [],
            "simulated_energy_j": [],
        }
        for record in records:
            columns["page"].append(record["page"])
            for name in (
                "corunner_mpki",
                "corunner_utilization",
                "temperature_c",
                "deadline_s",
                "fopt_hz",
            ):
                columns[name].append(float(record[name]))
            columns["accepted"].append(bool(record["accepted"]))
            columns["model_version"].append(int(record.get("model_version", 0)))
            for name in (
                "predicted_load_time_s",
                "predicted_power_w",
                "simulated_load_time_s",
                "simulated_energy_j",
            ):
                value = record.get(name)
                columns[name].append(float("nan") if value is None else float(value))
        arrays = {
            name: np.asarray(values) for name, values in columns.items()
        }
        np.savez(Path(path), **arrays)
        return len(records)
