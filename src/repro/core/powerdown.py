"""Partial power-down via row migration (paper Section 1).

The paper notes that the lightweight row-migration mechanism "could be
used to support other usages such as partial power down".  This module
realises that idea: before gating a region of a bank, every logical row
still resident there is migrated out through the migration rows, then the
vacated subarrays stop paying background power.

The unit of gating is one migration group's slow region (its fast slots
keep serving).  Evacuating a group demotes nothing — it *promotes* every
slow-resident logical row of the group into the group's fast slots, which
is only possible when the group's live rows fit there; otherwise the
caller must pick a different group or accept data loss (we refuse).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from ..controller.controller import MemorySystem
from .manager import DASManager


@dataclass(frozen=True)
class PowerDownResult:
    """Outcome of gating one migration group's slow region."""

    flat_bank: int
    group: int
    rows_migrated: int
    migration_time_ns: float
    #: Background power saved, as a fraction of one bank's slow region.
    gated_fraction_of_bank: float


class PowerDownController:
    """Evacuates and gates migration-group slow regions."""

    def __init__(self, manager: DASManager, memory: MemorySystem) -> None:
        self.manager = manager
        self.memory = memory
        self._gated: Set[tuple] = set()

    def live_slow_rows(self, flat_bank: int, group: int,
                       touched_rows: Set[int]) -> List[int]:
        """Group-local logical rows that hold live data in slow slots.

        ``touched_rows`` is the set of global logical rows known to hold
        data (the controller's footprint set serves in examples/tests).
        """
        org = self.manager.organization
        rows_per_bank = org.geometry.rows_per_bank
        live: List[int] = []
        for local in range(org.group_rows):
            logical = (flat_bank * rows_per_bank
                       + group * org.group_rows + local)
            if logical not in touched_rows:
                continue
            slot = self.manager.table.slot_of(flat_bank, group, local)
            if slot >= org.fast_per_group:
                live.append(local)
        return live

    def gate_group(self, flat_bank: int, group: int,
                   touched_rows: Set[int], now: float) -> PowerDownResult:
        """Evacuate a group's live slow rows into its fast slots and gate
        the slow region.

        Raises ValueError when the live rows cannot fit in the group's
        fast slots (gating would lose data).
        """
        org = self.manager.organization
        if (flat_bank, group) in self._gated:
            raise ValueError(f"group {group} of bank {flat_bank} is "
                             f"already gated")
        live = self.live_slow_rows(flat_bank, group, touched_rows)
        table = self.manager.table
        free_fast_slots = [
            slot for slot in range(org.fast_per_group)
            if (flat_bank * org.geometry.rows_per_bank
                + group * org.group_rows
                + table.local_in_slot(flat_bank, group, slot))
            not in touched_rows
        ]
        if len(live) > len(free_fast_slots):
            raise ValueError(
                f"cannot gate: {len(live)} live slow rows but only "
                f"{len(free_fast_slots)} free fast slots in the group")
        move_ns = self.manager.engine.swap_latency_ns / 2.0
        total_ns = 0.0
        for local, slot in zip(live, free_fast_slots):
            occupant = table.local_in_slot(flat_bank, group, slot)
            table.swap(flat_bank, group, local, occupant)
            if move_ns > 0.0:
                self.memory.occupy_bank(flat_bank, now + total_ns, move_ns)
                total_ns += move_ns
        self._gated.add((flat_bank, group))
        return PowerDownResult(
            flat_bank=flat_bank,
            group=group,
            rows_migrated=len(live),
            migration_time_ns=total_ns,
            gated_fraction_of_bank=(org.slow_per_group
                                    / org.geometry.rows_per_bank),
        )

    def is_gated(self, flat_bank: int, group: int) -> bool:
        """True when a group's slow region has been gated."""
        return (flat_bank, group) in self._gated

    def background_power_saving_fraction(self) -> float:
        """Fraction of total array background power now gated."""
        org = self.manager.organization
        total_groups = (org.geometry.total_banks * org.groups_per_bank)
        slow_fraction = org.slow_per_group / org.group_rows
        return len(self._gated) / total_groups * slow_fraction
