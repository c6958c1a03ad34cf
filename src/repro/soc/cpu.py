"""Per-core performance (CPI) model.

A Krait core retires instructions at a base CPI determined by the code
it runs, plus stall cycles for the memory hierarchy:

    CPI = CPI_base
        + APKI/1000 * hit_ratio  * L2_hit_cycles
        + APKI/1000 * miss_ratio * miss_penalty_cycles / MLP

where APKI is the task's L2 accesses per kilo-instruction (its L1 miss
rate), ``miss_penalty_cycles`` comes from the memory model (and grows
with both core frequency and bus contention), and MLP is the task's
memory-level parallelism (overlapped misses hide part of the penalty).

This single equation is what produces the paper's central performance
phenomena: compute-bound phases scale ~linearly with frequency, while
memory-bound phases -- or any phase whose miss ratio was inflated by a
co-runner -- hit a DRAM-latency wall and scale sub-linearly.
"""

from __future__ import annotations

#: Latency of an L2 hit, in core cycles (L1 miss, L2 hit).
L2_HIT_CYCLES = 15.0


def cpi_equation(
    cpi_base: float, l2_apki: float, miss_ratio: float,
    miss_penalty_cycles: float, mlp: float,
) -> float:
    """Cycles per instruction under the given memory conditions.

    Nothing is validated here: the engine's equilibrium solve calls
    it once per task and round, on fields ``WorkPhase`` validated at
    construction and miss ratios the cache model keeps in ``[0, 1]``.

    Args:
        cpi_base: Core-private CPI of the instruction stream (no L2
            traffic): branch behaviour, ILP, L1 behaviour.
        l2_apki: L2 accesses per kilo-instruction (the L1 miss rate).
        miss_ratio: Effective L2 miss ratio under current contention,
            in ``[0, 1]``.
        miss_penalty_cycles: Core cycles per L2 miss at the current
            operating point and bus load.
        mlp: Memory-level parallelism; the average number of overlapped
            outstanding misses (>= 1).
    """
    accesses_per_instr = l2_apki / 1000.0
    hit_stalls = accesses_per_instr * (1.0 - miss_ratio) * L2_HIT_CYCLES
    miss_stalls = accesses_per_instr * miss_ratio * miss_penalty_cycles / mlp
    return cpi_base + hit_stalls + miss_stalls


def instructions_retired(
    dt_s: float, freq_hz: float, cpi: float, utilization: float = 1.0
) -> float:
    """Instructions a core retires in a window.

    Args:
        dt_s: Window length in seconds.
        freq_hz: Core clock frequency.
        cpi: Effective cycles per instruction.
        utilization: Fraction of the window the core is busy.
    """
    if dt_s < 0:
        raise ValueError("dt must be non-negative")
    if freq_hz <= 0:
        raise ValueError("frequency must be positive")
    if cpi <= 0:
        raise ValueError("CPI must be positive")
    if not 0.0 <= utilization <= 1.0:
        raise ValueError("utilization must lie in [0, 1]")
    return dt_s * freq_hz * utilization / cpi


def time_for_instructions(instructions: float, freq_hz: float, cpi: float) -> float:
    """Wall-clock time to retire a number of instructions."""
    if instructions < 0:
        raise ValueError("instruction count must be non-negative")
    if freq_hz <= 0:
        raise ValueError("frequency must be positive")
    if cpi <= 0:
        raise ValueError("CPI must be positive")
    return instructions * cpi / freq_hz


def mpki(l2_apki: float, miss_ratio: float) -> float:
    """L2 misses per kilo-instruction given an access rate and miss ratio."""
    if l2_apki < 0:
        raise ValueError("APKI must be non-negative")
    if not 0.0 <= miss_ratio <= 1.0:
        raise ValueError("miss ratio must lie in [0, 1]")
    return l2_apki * miss_ratio
