"""The row-migration engine (paper Sections 4.2 and 5.1).

A promotion in the exclusive scheme swaps two rows through the migration
rows of the involved subarrays.  Figure 6 shows the four-step schedule:
steps 1-2 move the promotee and the victim into migration rows, steps 3-4
complete the two placements with their half-row movements in parallel.
Table 1 prices the complete swap at 146.25 ns (= 3 x tRC of the slow
subarray); a single one-way row move costs 1.5 x tRC (Section 4.2 — tRAS
can be tightened because the migration cell is read right back out).

The engine expresses a migration as a bank-occupying window: the bank is
precharged, blocked for the swap latency, then resumes.  A zero-latency
engine models the DAS-DRAM (FM) idealisation used to isolate migration
overhead in Figure 7a.
"""

from __future__ import annotations

from ..common.statistics import StatGroup
from ..controller.controller import MemorySystem
from ..dram.timing import TimingParams


class MigrationEngine:
    """Applies migration timing to banks and counts promotions."""

    def __init__(self, swap_latency_ns: float) -> None:
        if swap_latency_ns < 0:
            raise ValueError("swap latency must be non-negative")
        self.swap_latency_ns = swap_latency_ns
        self.stats = StatGroup("migration")
        self._promotions = self.stats.counter("promotions")
        self._dropped = self.stats.counter("dropped")
        #: One sample per timed window; ``total`` is the busy time in ns.
        self._busy = self.stats.accumulator("window_ns")

    @classmethod
    def from_timing(cls, slow: TimingParams,
                    trc_multiple: float = 3.0) -> "MigrationEngine":
        """Build from the slow timing class (swap = ``trc_multiple`` x tRC)."""
        return cls(trc_multiple * slow.tRC)

    @classmethod
    def free(cls) -> "MigrationEngine":
        """Zero-cost migration (the DAS-DRAM (FM) idealisation)."""
        return cls(0.0)

    @property
    def is_free(self) -> bool:
        """True while no migration is in flight."""
        return self.swap_latency_ns == 0.0

    def swap(self, controller: MemorySystem, flat_bank: int,
             earliest_ns: float, subarrays=frozenset(), commit=None) -> None:
        """Perform one promotion swap on a bank.

        The swap is deferred until the open burst ends, then runs as a
        window blocking only the involved ``subarrays`` — the triggering
        access, its row-buffer followers, and accesses to the bank's
        other subarrays are never stalled, which is what keeps the
        paper's migration overhead at a fraction of a percent.
        ``commit`` (no-arg callable) applies the logical table update when
        the rows start moving; with a free engine it runs immediately.
        Returns False when the bank's bounded migration queue dropped the
        swap (the row will re-trigger on a later access).
        """
        if self.swap_latency_ns > 0.0:
            accepted = controller.queue_migration(
                flat_bank, earliest_ns, self.swap_latency_ns, subarrays,
                commit)
            if not accepted:
                self._dropped.add()
                return False
            self._promotions.add()
            self._busy.add(self.swap_latency_ns)
            return True
        self._promotions.add()
        if commit is not None:
            commit()
        return True

    @property
    def promotions(self) -> int:
        """Completed promotions so far."""
        return self._promotions.value

    @property
    def dropped(self) -> int:
        """Promotions dropped because the engine was busy."""
        return self._dropped.value

    @property
    def busy_time_ns(self) -> float:
        """Total time spent migrating, in nanoseconds."""
        return self._busy.total

    def reset_stats(self) -> None:
        """Zero the per-run statistics counters."""
        self.stats.reset()
