"""Versioned on-disk registry of serialized model bundles.

Retraining (:mod:`repro.learn.retrain`) emits candidate predictors;
this registry gives each one a durable, addressable identity --
``(CALIBRATION_FINGERPRINT, version)`` -- so the serving fleet can
shadow-score, promote and roll back by version number instead of by
file path.

Layout::

    <root>/<fingerprint>/
        v0001/
            model.json   # models.serialization artifact (lossless)
        v0001/meta.json  # lineage: parent version, source, counts
        ACTIVE           # pinned active version ("1"), atomic replace

Publish discipline is the experiments cache's: build the version
directory under a pid-unique ``*.tmp`` name, then ``os.rename`` it to
its final name.  Rename is atomic on POSIX, so a concurrent reader
either sees the complete version or none of it; a losing racer (the
final name already exists) retries under the next number.  The
``ACTIVE`` pointer uses pid-unique tmp + ``os.replace`` the same way.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any

from repro.experiments.cache import CALIBRATION_FINGERPRINT
from repro.experiments.fingerprint import calibration_identity
from repro.models.predictor import DoraPredictor
from repro.models.serialization import load_predictor, save_predictor

#: Name of the serialized bundle inside a version directory.
MODEL_FILE = "model.json"
#: Name of the lineage-metadata file inside a version directory.
META_FILE = "meta.json"
#: Name of the pinned-active pointer file inside a partition.
ACTIVE_FILE = "ACTIVE"

#: Attempts to claim a version number under concurrent publishers.
_PUBLISH_ATTEMPTS = 32


class RegistryError(RuntimeError):
    """A registry operation failed (missing version, broken artifact)."""


class ModelRegistry:
    """Filesystem registry keyed by ``(calibration fingerprint, version)``.

    Args:
        root: Registry root; the fingerprint partition is created
            beneath it.
        fingerprint: Calibration partition key (defaults to the pinned
            :data:`CALIBRATION_FINGERPRINT`).
    """

    def __init__(
        self,
        root: str | Path,
        fingerprint: str = CALIBRATION_FINGERPRINT,
    ) -> None:
        self.root = Path(root)
        self.fingerprint = fingerprint
        self.partition = self.root / fingerprint
        self.partition.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Layout helpers
    # ------------------------------------------------------------------
    def version_dir(self, version: int) -> Path:
        """The directory of one published version."""
        if version < 1:
            raise ValueError("versions start at 1")
        return self.partition / f"v{version:04d}"

    def versions(self) -> list[int]:
        """Published version numbers, ascending."""
        found = []
        for entry in self.partition.iterdir():
            name = entry.name
            if (
                entry.is_dir()
                and name.startswith("v")
                and not name.endswith(".tmp")
                and name[1:].isdigit()
            ):
                found.append(int(name[1:]))
        return sorted(found)

    def latest_version(self) -> int | None:
        """The highest published version, ``None`` on an empty registry."""
        versions = self.versions()
        return versions[-1] if versions else None

    # ------------------------------------------------------------------
    # Publish / load
    # ------------------------------------------------------------------
    def publish(
        self,
        predictor: DoraPredictor,
        parent_version: int | None = None,
        source: str = "retrain",
        extra_meta: dict[str, Any] | None = None,
    ) -> int:
        """Atomically publish a predictor as the next version.

        The version directory (bundle + lineage metadata) is fully
        materialized under a pid-unique temporary name before a single
        ``os.rename`` makes it visible -- readers never observe a
        partial artifact.  Lost races against concurrent publishers
        retry under the next free number.

        Args:
            predictor: The bundle to publish.
            parent_version: The version this one was retrained from
                (``None`` for a seed publish).
            source: Free-form provenance label (``"retrain"``,
                ``"seed"``, ...).
            extra_meta: Additional lineage fields merged into
                ``meta.json``.

        Returns:
            The published version number.
        """
        last_error: OSError | None = None
        for attempt in range(_PUBLISH_ATTEMPTS):
            version = (self.latest_version() or 0) + 1 + attempt
            final_dir = self.version_dir(version)
            tmp_dir = final_dir.with_name(f"{final_dir.name}.{os.getpid()}.tmp")
            tmp_dir.mkdir(parents=True, exist_ok=True)
            try:
                save_predictor(predictor, tmp_dir / MODEL_FILE)
                meta: dict[str, Any] = {
                    "version": version,
                    "parent_version": parent_version,
                    "source": source,
                    "calibration": calibration_identity(),
                    "published_unix_s": time.time(),
                }
                if extra_meta:
                    meta.update(extra_meta)
                with open(tmp_dir / META_FILE, "w", encoding="utf-8") as handle:
                    json.dump(meta, handle, indent=2, sort_keys=True)
                os.rename(tmp_dir, final_dir)
                return version
            except OSError as exc:  # lost the rename race; retry higher
                last_error = exc
                for leftover in tmp_dir.glob("*"):
                    leftover.unlink(missing_ok=True)
                tmp_dir.rmdir()
        raise RegistryError(
            f"could not claim a version number after "
            f"{_PUBLISH_ATTEMPTS} attempts: {last_error}"
        )

    def load(self, version: int) -> DoraPredictor:
        """Deserialize one published version's bundle."""
        path = self.version_dir(version) / MODEL_FILE
        if not path.exists():
            raise RegistryError(
                f"version {version} not found under {self.partition}"
            )
        return load_predictor(path)

    def meta(self, version: int) -> dict[str, Any]:
        """The lineage metadata of one published version."""
        path = self.version_dir(version) / META_FILE
        if not path.exists():
            raise RegistryError(
                f"version {version} has no metadata under {self.partition}"
            )
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    # ------------------------------------------------------------------
    # Active pointer
    # ------------------------------------------------------------------
    def activate(self, version: int) -> None:
        """Pin a published version as the partition's active model."""
        if version not in self.versions():
            raise RegistryError(f"cannot activate unpublished version {version}")
        pointer = self.partition / ACTIVE_FILE
        tmp = pointer.with_name(f"{ACTIVE_FILE}.{os.getpid()}.tmp")
        tmp.write_text(f"{version}\n", encoding="utf-8")
        os.replace(tmp, pointer)

    def active_version(self) -> int | None:
        """The pinned active version, ``None`` when nothing is pinned.

        Raises:
            RegistryError: When the ``ACTIVE`` pointer's text is not a
                positive integer, or names a version that is not
                published.
        """
        pointer = self.partition / ACTIVE_FILE
        if not pointer.exists():
            return None
        text = pointer.read_text(encoding="utf-8").strip()
        if not text.isdecimal() or int(text) < 1:
            raise RegistryError(
                f"ACTIVE pointer {text!r} under {self.partition} is not a "
                "positive version number"
            )
        version = int(text)
        if version not in self.versions():
            raise RegistryError(
                f"ACTIVE pointer {text!r} under {self.partition} names an "
                "unpublished version"
            )
        return version

    def active_predictor(self) -> DoraPredictor | None:
        """The pinned active bundle, ``None`` when nothing is pinned."""
        version = self.active_version()
        return None if version is None else self.load(version)
