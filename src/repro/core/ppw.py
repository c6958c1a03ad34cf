"""Performance-per-watt arithmetic (Equations 1 and 6, Algorithm 1).

Everything here works on *predictions*: tuples of (frequency, predicted
load time, predicted power).  The same functions serve the online
governors (operating on model outputs) and the offline oracle analysis
(operating on measured sweeps), which is what lets the harness compare
DORA's choice against fD / fE / fopt ground truth.

Definitions from Section II-C of the paper:

* ``fE`` -- the frequency that maximizes PPW, ignoring any deadline.
* ``fD`` -- the *lowest* frequency whose load time meets the deadline.
* ``fopt`` -- Equation 1: ``fE`` when ``fD <= fE`` (the efficient
  point already meets the deadline), else ``fD``.

Algorithm 1 computes the same fopt directly: among deadline-meeting
frequencies pick the PPW-max; if none meets the deadline, run at the
maximum frequency (Section V-D: "DORA prioritizes for QoS and chooses
the highest frequency setting").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class FrequencyPrediction:
    """Predicted (or measured) behaviour at one operating point.

    Attributes:
        freq_hz: The operating point.
        load_time_s: Page load time at this frequency.
        power_w: Mean device power at this frequency.
    """

    freq_hz: float
    load_time_s: float
    power_w: float

    def __post_init__(self) -> None:
        if self.freq_hz <= 0:
            raise ValueError("frequency must be positive")
        if self.load_time_s <= 0:
            raise ValueError("load time must be positive")
        if self.power_w <= 0:
            raise ValueError("power must be positive")

    @property
    def ppw(self) -> float:
        """Performance per watt, ``1 / (T * P)``."""
        return 1.0 / (self.load_time_s * self.power_w)


def ppw(load_time_s: float, power_w: float) -> float:
    """Performance per watt of a load (Section II-C's metric)."""
    if load_time_s <= 0:
        raise ValueError("load time must be positive")
    if power_w <= 0:
        raise ValueError("power must be positive")
    return 1.0 / (load_time_s * power_w)


def _sorted_by_freq(
    predictions: Iterable[FrequencyPrediction],
) -> list[FrequencyPrediction]:
    table = sorted(predictions, key=lambda p: p.freq_hz)
    if not table:
        raise ValueError("prediction table must not be empty")
    return table


def find_fe(predictions: Iterable[FrequencyPrediction]) -> FrequencyPrediction:
    """The unconstrained energy-optimal point (max PPW)."""
    table = _sorted_by_freq(predictions)
    return max(table, key=lambda p: p.ppw)


def find_fd(
    predictions: Iterable[FrequencyPrediction], deadline_s: float
) -> FrequencyPrediction | None:
    """The lowest frequency meeting the deadline, or ``None``.

    ``None`` means the page cannot meet the deadline at any available
    frequency (the paper's 18 %-of-workloads case).
    """
    if deadline_s <= 0:
        raise ValueError("deadline must be positive")
    for prediction in _sorted_by_freq(predictions):
        if prediction.load_time_s <= deadline_s:
            return prediction
    return None


def select_fopt_rows(
    load_times_s: np.ndarray,
    powers_w: np.ndarray,
    deadlines_s: np.ndarray,
) -> np.ndarray:
    """Vectorized Algorithm 1 over many prediction rows at once.

    This is the single implementation of the fopt decision rule: the
    scalar :func:`select_fopt` delegates here with one row, and the
    batched decision service (:mod:`repro.serve`) calls it with a
    (requests, frequencies) matrix.  Every operation is element-wise or
    an independent per-row reduction, so a row's answer is bit-identical
    whether it is decided alone or inside a batch of thousands.

    Args:
        load_times_s: Predicted load times, shape (rows, freqs).
            Columns must be sorted ascending by frequency.
        powers_w: Predicted powers, same shape.
        deadlines_s: Effective deadline per row, shape (rows,).

    Returns:
        Column index of fopt for each row: the PPW-max feasible column,
        or the last (highest-frequency) column when no column meets the
        row's deadline.  Ties resolve to the lowest frequency, matching
        Python's ``max`` over a frequency-ascending table.
    """
    load = np.asarray(load_times_s, dtype=float)
    power = np.asarray(powers_w, dtype=float)
    deadlines = np.asarray(deadlines_s, dtype=float)
    if load.ndim != 2 or load.shape != power.shape:
        raise ValueError("load times and powers must share a 2-D shape")
    if load.shape[1] == 0:
        raise ValueError("prediction table must not be empty")
    if deadlines.shape != (load.shape[0],):
        raise ValueError("need exactly one deadline per row")
    if np.any(deadlines <= 0):
        raise ValueError("deadline must be positive")
    if np.any(load <= 0) or np.any(power <= 0):
        raise ValueError("load time and power must be positive")
    ppw_table = 1.0 / (load * power)
    feasible = load <= deadlines[:, None]
    scored = np.where(feasible, ppw_table, -np.inf)
    # argmax returns the first maximum, i.e. the lowest frequency among
    # PPW ties -- the same element Python's max() picks from a
    # frequency-ascending list.
    choice = np.argmax(scored, axis=1)
    choice[~feasible.any(axis=1)] = load.shape[1] - 1
    return choice


def select_fopt(
    predictions: Sequence[FrequencyPrediction], deadline_s: float
) -> FrequencyPrediction:
    """Algorithm 1: the PPW-max deadline-meeting point.

    Falls back to the highest frequency when no operating point meets
    the deadline (load as fast as possible).  Delegates to
    :func:`select_fopt_rows` with a single row, so the scalar governors
    and the batched decision service share one decision rule.
    """
    if deadline_s <= 0:
        raise ValueError("deadline must be positive")
    table = _sorted_by_freq(predictions)
    load = np.array([p.load_time_s for p in table], dtype=float)
    power = np.array([p.power_w for p in table], dtype=float)
    index = select_fopt_rows(
        load[None, :], power[None, :], np.array([deadline_s])
    )
    return table[int(index[0])]


def ppw_under_error(
    load_time_s: float, power_w: float, time_error: float, power_error: float
) -> float:
    """Equation 6: PPW as seen through model errors.

    ``PPW = 1 / (P * t * (1 + Pe) * (1 + te))`` -- used by the Fig. 6
    sensitivity analysis to show fopt's robustness to small errors.
    """
    if (1 + time_error) <= 0 or (1 + power_error) <= 0:
        raise ValueError("errors must keep predictions positive")
    return 1.0 / (
        power_w * load_time_s * (1.0 + power_error) * (1.0 + time_error)
    )


def fopt_error_margin(
    predictions: Sequence[FrequencyPrediction], deadline_s: float
) -> float:
    """Relative PPW gap between fopt and its best competitor.

    The Fig. 6 argument: frequencies are discrete, so DORA still picks
    the right fopt as long as the combined model error deflating
    fopt's estimated PPW is smaller than the gap to the runner-up.
    Returns ``ppw(fopt) / max(ppw(others)) - 1`` over the
    deadline-feasible points (``inf`` when fopt is the only feasible
    point).
    """
    table = _sorted_by_freq(predictions)
    fopt = select_fopt(table, deadline_s)
    feasible = [p for p in table if p.load_time_s <= deadline_s]
    competitors = [p for p in feasible if p.freq_hz != fopt.freq_hz]
    if not competitors:
        return float("inf")
    runner_up = max(competitors, key=lambda p: p.ppw)
    return fopt.ppw / runner_up.ppw - 1.0


def fopt_tolerates_errors(
    predictions: Sequence[FrequencyPrediction],
    deadline_s: float,
    time_error: float,
    power_error: float,
) -> bool:
    """Whether fopt survives a worst-case model error at fopt itself.

    Worst case per Equation 6: fopt's own PPW estimate is deflated by
    ``(1 + te)(1 + Pe)`` while every competitor is estimated exactly.
    fopt is still chosen when the deflation stays within
    :func:`fopt_error_margin`.
    """
    if (1 + time_error) <= 0 or (1 + power_error) <= 0:
        raise ValueError("errors must keep predictions positive")
    deflation = (1.0 + abs(time_error)) * (1.0 + abs(power_error)) - 1.0
    return deflation <= fopt_error_margin(predictions, deadline_s)
