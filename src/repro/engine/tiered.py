"""Two-tier (memory + disk) backend with per-tier transfer costs.

Extends :class:`~repro.engine.sim.SimBackend` with a storage ledger per
tier: slot ids are routed by the shared tier-aware action alphabet
(:func:`~repro.checkpointing.actions.tier_of_slot` — ids outside tier
0's band live on the disk tier, the rest in RAM).  Each tier may carry a
:class:`~repro.edge.storage.StorageProfile` pricing its read/write path
in seconds; a tier without a profile moves checkpoints for free (pure
counting: writes, reads and peaks per tier, as the disk-revolve CLI
reports them).
This is what lets a ``disk_revolve`` schedule *execute* — not just be
planned — with measured SD-card/eMMC transfer time in the resulting
:class:`~repro.engine.stats.RunStats`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..checkpointing.actions import TIER_RAM, tier_of_slot
from ..checkpointing.chainspec import ChainSpec
from .sim import SimBackend
from .stats import TierStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..edge.storage import StorageProfile
    from .program import CompiledProgram

__all__ = ["TieredBackend"]


class _TierLedger:
    """Mutable per-tier accounting; frozen into a TierStats at the end."""

    def __init__(self, name: str, profile: "StorageProfile | None") -> None:
        self.name = name
        self.profile = profile
        #: slot id -> bytes the tier actually holds for it (compressed
        #: backends store fewer bytes than the activation's raw size)
        self.slots: dict[int, int] = {}
        self.writes = 0
        self.reads = 0
        self.write_seconds = 0.0
        self.read_seconds = 0.0
        self.bytes_written = 0
        self.bytes_read = 0
        self.peak_slots = 0
        self.peak_bytes = 0

    def charge(self) -> None:
        if len(self.slots) > self.peak_slots:
            self.peak_slots = len(self.slots)
        held = sum(self.slots.values())
        if held > self.peak_bytes:
            self.peak_bytes = held

    def stats(self) -> TierStats:
        return TierStats(
            name=self.name,
            writes=self.writes,
            reads=self.reads,
            write_seconds=self.write_seconds,
            read_seconds=self.read_seconds,
            peak_slots=self.peak_slots,
            peak_bytes=self.peak_bytes,
            bytes_written=self.bytes_written,
            bytes_read=self.bytes_read,
        )


class TieredBackend(SimBackend):
    """SimBackend plus a RAM/disk split with priced transfers."""

    def __init__(
        self,
        spec: ChainSpec,
        *,
        memory: "StorageProfile | None" = None,
        disk: "StorageProfile | None" = None,
    ) -> None:
        super().__init__(spec)
        self._memory_profile = memory
        self._disk_profile = disk
        self._mem = _TierLedger("memory", memory)
        self._disk = _TierLedger("disk", disk)

    def begin(self, program: "CompiledProgram | None") -> None:
        super().begin(program)
        self._mem = _TierLedger("memory", self._memory_profile)
        self._disk = _TierLedger("disk", self._disk_profile)

    def _tier(self, slot: int) -> _TierLedger:
        return self._mem if tier_of_slot(slot) == TIER_RAM else self._disk

    def _stored_bytes(self, slot: int, index: int) -> int:
        """Bytes slot ``slot`` holds for activation ``index``.

        The raw activation size here; :class:`CompressedBackend` shrinks
        it for compressed-band slots.
        """
        return self.spec.act_bytes[index]

    def snapshot(self, slot: int, index: int) -> float:
        super().snapshot(slot, index)
        tier = self._tier(slot)
        stored = self._stored_bytes(slot, index)
        tier.slots[slot] = stored
        tier.writes += 1
        tier.bytes_written += stored
        cost = 0.0
        if tier.profile is not None:
            cost = tier.profile.write_seconds(stored)
            tier.write_seconds += cost
        tier.charge()
        return cost

    def restore(self, slot: int, index: int) -> float:
        super().restore(slot, index)
        tier = self._tier(slot)
        stored = self._stored_bytes(slot, index)
        tier.reads += 1
        tier.bytes_read += stored
        cost = 0.0
        if tier.profile is not None:
            cost = tier.profile.read_seconds(stored)
            tier.read_seconds += cost
        return cost

    def free(self, slot: int, index: int) -> float:
        super().free(slot, index)
        tier = self._tier(slot)
        del tier.slots[slot]
        tier.charge()
        return 0.0

    def tier_stats(self) -> tuple[TierStats, ...]:
        return (self._mem.stats(), self._disk.stats())
