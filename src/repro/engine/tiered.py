"""Two-tier (memory + disk) configuration of the analytic pass.

:class:`TieredBackend` is :class:`~repro.engine.sim.SimBackend` with a
storage ledger per tier: slot ids are routed by the shared tier-aware
action alphabet (:func:`~repro.checkpointing.actions.tier_of_slot` —
ids outside tier 0's band live on the disk tier, the rest in RAM).
Each tier may carry a :class:`~repro.edge.storage.StorageProfile`
pricing its read/write path in seconds; a tier without a profile moves
checkpoints for free (pure counting: writes, reads and peaks per tier,
as the disk-revolve CLI reports them).
This is what lets a ``disk_revolve`` schedule *execute* — not just be
planned — with measured SD-card/eMMC transfer time in the resulting
:class:`~repro.engine.stats.RunStats`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..checkpointing.chainspec import ChainSpec
from .sim import SimBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..edge.storage import StorageProfile

__all__ = ["TieredBackend"]


class TieredBackend(SimBackend):
    """SimBackend plus a RAM/disk split with priced transfers."""

    tiered = True

    def __init__(
        self,
        spec: ChainSpec,
        *,
        memory: "StorageProfile | None" = None,
        disk: "StorageProfile | None" = None,
    ) -> None:
        super().__init__(spec)
        self.memory = memory
        self.disk = disk
