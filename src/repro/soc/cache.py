"""Shared L2 cache models.

Memory interference in the paper originates in the shared 2 MB L2: a
co-scheduled application streams data through the cache, evicts the
browser's lines early, and inflates the browser's L2 MPKI -- which both
slows the page load (more DRAM stalls) and costs extra energy (more
data movement, the E-delta of Fig. 2b).

Two models are provided:

* :class:`AnalyticSharedCache` -- a fast fixed-point occupancy model
  used inside the discrete-time engine.  Each sharer's occupancy is
  proportional to its insertion (miss) rate; a sharer whose effective
  share falls below its working set sees its miss ratio grow along a
  power-law miss-rate curve.  This is the standard analytic treatment
  of LRU sharing (in the spirit of cache utility curves) and gives the
  qualitative behaviour the paper measures: higher co-runner intensity
  leads to higher browser MPKI.  The engine's equilibrium solve calls
  its positional kernel six times per new (frequency, phase set), so
  the kernel builds no per-sharer objects; ``miss_ratios`` is the keyed,
  validating form for other callers.
* :class:`SetAssociativeCache` -- a true set-associative, write-back,
  LRU cache simulator.  The engine does not pay for per-access
  simulation; this model exists to *calibrate and validate* the
  analytic model (tests drive both with matched synthetic streams) and
  as a substrate component in its own right.
"""
# repro: bit-exact -- the engine's equilibrium, and so every simulated
# result, is computed here (R003 forbids BLAS/pairwise reductions).

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.soc.specs import CacheGeometry


# ----------------------------------------------------------------------
# Analytic sharing model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CacheDemand:
    """One sharer's demand on the shared cache during a window.

    Attributes:
        task_id: Stable identifier of the sharer.
        accesses_per_s: L2 access rate (L1 misses reaching the L2).
        working_set_bytes: Size of the data the task re-references; if
            the task's cache share covers this, it runs at its solo
            miss ratio.
        solo_miss_ratio: L2 miss ratio when the task has the whole
            cache to itself (compulsory + capacity misses at full
            capacity).
    """

    task_id: str
    accesses_per_s: float
    working_set_bytes: float
    solo_miss_ratio: float

    def __post_init__(self) -> None:
        if self.accesses_per_s < 0:
            raise ValueError("access rate must be non-negative")
        if self.working_set_bytes < 0:
            raise ValueError("working set must be non-negative")
        if not 0.0 <= self.solo_miss_ratio <= 1.0:
            raise ValueError("solo miss ratio must lie in [0, 1]")


@dataclass(frozen=True)
class AnalyticSharedCache:
    """Fixed-point occupancy model of an LRU-shared cache.

    The model iterates two coupled relations to a fixed point:

    1. *Miss-rate curve*: a sharer with effective capacity ``S`` below
       its working set ``W`` misses at
       ``m = m_solo * (W / S) ** theta`` (capped at 1.0); with
       ``S >= W`` it misses at ``m_solo``.
    2. *Occupancy*: capacity is divided in proportion to each sharer's
       insertion rate (``accesses * miss_ratio``), the equilibrium of
       random-replacement/LRU sharing.

    :meth:`positional_miss_ratios` runs both relations inline on lists
    indexed by sharer; every total is a builtin ``sum`` in sharer order,
    so each result is one fixed sequence of float operations.

    Attributes:
        geometry: Shared cache geometry.
        theta: Exponent of the power-law miss-rate curve.  Larger theta
            means sharper sensitivity to lost capacity.
        iterations: Fixed-point iteration count (converges fast).
    """

    geometry: CacheGeometry
    theta: float = 0.75
    iterations: int = 8

    def miss_ratios(self, demands: list[CacheDemand]) -> dict[str, float]:
        """Effective miss ratio of each sharer under contention.

        The keyed, validating form of :meth:`positional_miss_ratios`,
        for the tests and library callers; the engine calls the kernel.

        Args:
            demands: Demands of all concurrently-running sharers, one
                per task id.

        Returns:
            Mapping from task id to effective L2 miss ratio.  A task
            running alone gets its solo miss ratio back (possibly
            raised if its working set exceeds the cache).

        Raises:
            ValueError: if two demands share a task id.
        """
        ids = [demand.task_id for demand in demands]
        if len(set(ids)) != len(ids):
            raise ValueError("sharers must have distinct task ids")
        ratios = self.positional_miss_ratios(
            [demand.accesses_per_s for demand in demands],
            [demand.working_set_bytes for demand in demands],
            [demand.solo_miss_ratio for demand in demands],
        )
        return dict(zip(ids, ratios))

    def positional_miss_ratios(
        self,
        rates: Sequence[float],
        working_sets: Sequence[float],
        solo_ratios: Sequence[float],
    ) -> list[float]:
        """:meth:`miss_ratios` on trusted inputs, sharer ``i`` at index
        ``i`` of each list (``CacheDemand`` and ``WorkPhase`` validate)."""
        ratios = list(solo_ratios)
        active = [i for i, rate in enumerate(rates) if rate > 0]
        if not active:
            return ratios
        capacity = float(self.geometry.size_bytes)
        line = float(self.geometry.line_bytes)
        theta = self.theta
        access = [rates[i] for i in active]
        sets = [working_sets[i] for i in active]
        solos = [solo_ratios[i] for i in active]
        # The solo ratio is defined at full capacity, so a streaming
        # sharer alone still misses at it; contention only inflates.
        references = [min(size, capacity) for size in sets]
        # Initial occupancy guess: proportional to access rate, capped
        # by working set.
        total_access = sum(access)
        shares = [
            min(size, capacity * rate / total_access)
            for size, rate in zip(sets, access)
        ]
        own = solos
        for _ in range(self.iterations):
            own = []
            for solo, reference, share in zip(solos, references, shares):
                if reference <= 0 or share >= reference:
                    own.append(solo)
                    continue
                # The miss-rate curve, with the share at least one line.
                if share < line:
                    share = line
                inflated = solo * (reference / share) ** theta
                own.append(inflated if inflated < 1.0 else 1.0)
            insertion = [rate * ratio for rate, ratio in zip(access, own)]
            weight = sum(insertion)
            if weight <= 0:
                break
            # Capacity splits by insertion rate, but no sharer occupies
            # more than its working set: sharers are capped in order,
            # and each cap's surplus flows to the rest.
            remaining = capacity
            unassigned = list(range(len(active)))
            shares = list(sets)
            changed = True
            while changed and unassigned and weight > 0:
                changed = False
                for k in list(unassigned):
                    if weight <= 0:
                        # Float cancellation can zero the weight mid-pass
                        # when one sharer's insertion rate dwarfs the rest.
                        break
                    if remaining * insertion[k] / weight >= sets[k]:
                        remaining -= sets[k]
                        weight -= insertion[k]
                        unassigned.remove(k)
                        changed = True
            for k in unassigned:
                # With all weight consumed by capped sharers (or rounded
                # away), the leftover capacity splits evenly.
                shares[k] = (
                    remaining * insertion[k] / weight
                    if weight > 0
                    else remaining / len(unassigned)
                )
        for i, ratio in zip(active, own):
            ratios[i] = ratio
        return ratios


# ----------------------------------------------------------------------
# True set-associative simulator
# ----------------------------------------------------------------------
@dataclass
class CacheStats:
    """Access statistics of the set-associative simulator."""

    accesses: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def hits(self) -> int:
        """Number of hits observed so far."""
        return self.accesses - self.misses

    @property
    def miss_ratio(self) -> float:
        """Misses per access (0.0 when no accesses were made)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


@dataclass
class _CacheLine:
    tag: int
    dirty: bool


@dataclass
class SetAssociativeCache:
    """A set-associative, write-back, write-allocate LRU cache.

    Used to validate the analytic sharing model and as a reusable
    substrate.  Each set is an ordered list of lines, most recently
    used last.

    Attributes:
        geometry: Cache geometry (size, line, associativity).
    """

    geometry: CacheGeometry
    stats: CacheStats = field(default_factory=CacheStats)
    _sets: list[list[_CacheLine]] = field(default_factory=list)
    #: Per-owner statistics when streams are tagged with an owner id.
    owner_stats: dict[str, CacheStats] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._sets = [[] for _ in range(self.geometry.num_sets)]

    def access(self, address: int, write: bool = False, owner: str | None = None) -> bool:
        """Access one byte address; returns True on hit.

        Args:
            address: Byte address of the access.
            write: Whether the access is a store (marks the line dirty).
            owner: Optional sharer id for per-owner statistics.
        """
        if address < 0:
            raise ValueError("address must be non-negative")
        line_addr = address // self.geometry.line_bytes
        set_index = line_addr % self.geometry.num_sets
        tag = line_addr // self.geometry.num_sets
        cache_set = self._sets[set_index]

        self.stats.accesses += 1
        per_owner = None
        if owner is not None:
            per_owner = self.owner_stats.setdefault(owner, CacheStats())
            per_owner.accesses += 1

        for position, line in enumerate(cache_set):
            if line.tag == tag:
                cache_set.append(cache_set.pop(position))
                if write:
                    line.dirty = True
                return True

        self.stats.misses += 1
        if per_owner is not None:
            per_owner.misses += 1
        if len(cache_set) >= self.geometry.associativity:
            victim = cache_set.pop(0)
            self.stats.evictions += 1
            if per_owner is not None:
                per_owner.evictions += 1
            if victim.dirty:
                self.stats.writebacks += 1
                if per_owner is not None:
                    per_owner.writebacks += 1
        cache_set.append(_CacheLine(tag=tag, dirty=write))
        return False

    def flush(self) -> int:
        """Empty the cache; returns the number of dirty lines written back."""
        writebacks = 0
        for cache_set in self._sets:
            writebacks += sum(1 for line in cache_set if line.dirty)
            cache_set.clear()
        self.stats.writebacks += writebacks
        return writebacks

    def resident_lines(self) -> int:
        """Number of lines currently resident."""
        return sum(len(cache_set) for cache_set in self._sets)
