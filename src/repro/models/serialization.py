"""JSON persistence for the trained models.

A deployed governor ships its coefficients, not its training set.
This module round-trips the complete prediction bundle -- piecewise
load-time surfaces, piecewise power surfaces, and the fitted leakage
parameters -- through plain JSON, so trained models can be versioned,
diffed, and loaded without re-running the measurement campaign (the
observations themselves are deliberately not serialized).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.models.performance_model import PiecewiseLoadTimeModel
from repro.models.piecewise import PiecewiseSurface
from repro.models.power_model import DynamicPowerModel
from repro.models.predictor import DoraPredictor, FittedLeakageModel
from repro.models.regression import RegressionModel, ResponseSurface
from repro.soc.leakage import LeakageParameters
from repro.soc.specs import PlatformSpec, nexus5_spec

#: Format identifier embedded in every artifact.
FORMAT = "repro-dora-models"
FORMAT_VERSION = 1


def _require_finite(field: str, values: Any) -> None:
    """Reject NaN and +-inf in one numeric field of a bundle.

    Python's ``json`` parses ``NaN`` and ``Infinity``, so a stored
    bundle can carry values that would reach the serving kernel's
    comparisons, where every test against NaN is false.
    """
    if not np.all(np.isfinite(np.asarray(values, dtype=float))):
        raise ValueError(f"model bundle field {field} holds a non-finite value")


def _regression_to_dict(model: RegressionModel) -> dict[str, Any]:
    return {
        "surface": model.surface.value,
        "coefficients": model.coefficients.tolist(),
        "means": model.means.tolist(),
        "scales": model.scales.tolist(),
    }


def _regression_from_dict(data: dict[str, Any]) -> RegressionModel:
    return RegressionModel(
        surface=ResponseSurface(data["surface"]),
        coefficients=np.asarray(data["coefficients"], dtype=float),
        means=np.asarray(data["means"], dtype=float),
        scales=np.asarray(data["scales"], dtype=float),
    )


def _piecewise_to_dict(surface: PiecewiseSurface) -> dict[str, Any]:
    return {
        "surface": surface.surface.value,
        "segments": {
            str(bus_hz): _regression_to_dict(model)
            for bus_hz, model in surface.segments.items()
        },
    }


def _piecewise_from_dict(data: dict[str, Any], field: str) -> PiecewiseSurface:
    for bus_hz, model in data["segments"].items():
        _require_finite(f"{field}.segments", float(bus_hz))
        for name in ("coefficients", "means", "scales"):
            _require_finite(f"{field}.segments[{bus_hz}].{name}", model[name])
    return PiecewiseSurface(
        surface=ResponseSurface(data["surface"]),
        segments={
            float(bus_hz): _regression_from_dict(model)
            for bus_hz, model in data["segments"].items()
        },
    )


def predictor_to_dict(predictor: DoraPredictor) -> dict[str, Any]:
    """Serialize a prediction bundle to a JSON-compatible dict."""
    return {
        "format": FORMAT,
        "version": FORMAT_VERSION,
        "platform": predictor.spec.name,
        "load_time_model": _piecewise_to_dict(
            predictor.load_time_model.surfaces
        ),
        "power_model": _piecewise_to_dict(predictor.power_model.surfaces),
        "leakage": {
            "parameters": list(predictor.leakage_model.parameters.as_tuple()),
            "rms_error_w": predictor.leakage_model.rms_error_w,
        },
        "candidate_freqs_hz": list(predictor.candidate_freqs_hz),
    }


def predictor_from_dict(
    data: dict[str, Any], spec: PlatformSpec | None = None
) -> DoraPredictor:
    """Rebuild a prediction bundle from its serialized form.

    Args:
        data: Output of :func:`predictor_to_dict`.
        spec: Platform to bind to; defaults to the Nexus 5 spec and is
            checked against the artifact's recorded platform name.

    Raises:
        ValueError: On a foreign or future-version artifact, a
            platform mismatch, or a NaN or infinite number in any
            coefficient, mean, scale, leakage parameter, the leakage
            fit's RMS error or a candidate frequency.
    """
    if data.get("format") != FORMAT:
        raise ValueError("not a repro DORA model artifact")
    if data.get("version", 0) > FORMAT_VERSION:
        raise ValueError(
            f"artifact version {data['version']} is newer than supported "
            f"({FORMAT_VERSION})"
        )
    spec = spec or nexus5_spec()
    if data.get("platform") != spec.name:
        raise ValueError(
            f"artifact was trained for {data.get('platform')!r}, "
            f"not {spec.name!r}"
        )
    _require_finite("leakage.parameters", data["leakage"]["parameters"])
    _require_finite("leakage.rms_error_w", data["leakage"]["rms_error_w"])
    candidate_freqs_hz = tuple(data.get("candidate_freqs_hz", ()))
    _require_finite("candidate_freqs_hz", candidate_freqs_hz)
    leakage = FittedLeakageModel(
        parameters=LeakageParameters(*data["leakage"]["parameters"]),
        rms_error_w=float(data["leakage"]["rms_error_w"]),
    )
    return DoraPredictor(
        spec=spec,
        load_time_model=PiecewiseLoadTimeModel(
            surfaces=_piecewise_from_dict(
                data["load_time_model"], "load_time_model"
            )
        ),
        power_model=DynamicPowerModel(
            surfaces=_piecewise_from_dict(data["power_model"], "power_model")
        ),
        leakage_model=leakage,
        candidate_freqs_hz=candidate_freqs_hz,
    )


def save_predictor(predictor: DoraPredictor, path: str | Path) -> None:
    """Write a prediction bundle to a JSON file."""
    path = Path(path)
    path.write_text(json.dumps(predictor_to_dict(predictor), indent=2))


def load_predictor(
    path: str | Path, spec: PlatformSpec | None = None
) -> DoraPredictor:
    """Read a prediction bundle from a JSON file."""
    data = json.loads(Path(path).read_text())
    return predictor_from_dict(data, spec)
