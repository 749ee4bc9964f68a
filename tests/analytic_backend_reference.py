"""The per-action analytic backends, frozen as a test oracle.

``SimBackend``, ``TieredBackend`` and ``CompressedBackend`` used to run a
schedule one VM call per action, re-charging bytes after every action and
keeping per-tier ledgers in dicts.  They are now configurations of one
whole-program pass over the compiled program
(:meth:`repro.engine.sim.SimBackend.run`).  The per-action classes are
frozen verbatim below (commit c1553c4) so the differential test
(``tests/test_engine_analytic_oracle.py``), the older differential tests
and ``benchmarks/bench_engine.py`` can drive them through
``tests/vm_reference.py``'s interpreter and check the pass against them:
the same ``RunStats``, tier and codec ledgers, and traced ``StepStats``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.checkpointing.actions import TIER_RAM, is_compressed_slot, tier_of_slot
from repro.checkpointing.chainspec import ChainSpec
from repro.engine.backend import BaseBackend
from repro.engine.stats import CompressionStats, TierStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.edge.storage import CompressionModel, StorageProfile
    from repro.engine.program import CompiledProgram

__all__ = ["SimBackend", "TieredBackend", "CompressedBackend"]


class SimBackend(BaseBackend):
    """Costs from a :class:`~repro.checkpointing.chainspec.ChainSpec`."""

    def __init__(self, spec: ChainSpec) -> None:
        self.spec = spec
        self._cursor = 0
        self._slots: dict[int, int] = {}  # slot -> activation index payload
        self._peak_slot_bytes = 0
        self._peak_bytes = 0

    @property
    def chain_length(self) -> int:
        return self.spec.length

    @property
    def slot_bytes(self) -> int:
        act = self.spec.act_bytes
        return sum(act[idx] for idx in self._slots.values())

    @property
    def live_bytes(self) -> int:
        return self.slot_bytes + self.spec.act_bytes[self._cursor]

    @property
    def peak_slot_bytes(self) -> int:
        return self._peak_slot_bytes

    @property
    def peak_bytes(self) -> int:
        return self._peak_bytes

    def _charge(self, cursor_bytes: int | None = None) -> None:
        """Re-peak on the current state; ``cursor_bytes`` overrides the
        cursor's activation size (an ADVANCE's largest one)."""
        sb = self.slot_bytes
        if sb > self._peak_slot_bytes:
            self._peak_slot_bytes = sb
        if cursor_bytes is None:
            cursor_bytes = self.spec.act_bytes[self._cursor]
        live = sb + cursor_bytes
        if live > self._peak_bytes:
            self._peak_bytes = live

    def begin(self, program: "CompiledProgram | None") -> None:
        self._cursor = 0
        self._slots = {}
        self._peak_slot_bytes = 0
        self._peak_bytes = 0
        self._charge()

    def adopt(
        self,
        cursor: int,
        slots: dict[int, int],
        peak_slot_bytes: int,
        peak_bytes: int,
    ) -> None:
        """Jump to a final machine state computed by a whole-program pass.

        The vectorized compiled-program executor derives the byte
        timeline without calling the per-action methods; this installs
        its end state so the backend is indistinguishable from one that
        was driven action by action.
        """
        self._cursor = cursor
        self._slots = dict(slots)
        if peak_slot_bytes > self._peak_slot_bytes:
            self._peak_slot_bytes = peak_slot_bytes
        if peak_bytes > self._peak_bytes:
            self._peak_bytes = peak_bytes

    def advance(self, start: int, stop: int) -> float:
        self._cursor = stop
        cost = self.spec.advance_cost(start, stop)
        self._charge(max(self.spec.act_bytes[start + 1 : stop + 1]))
        return cost

    def snapshot(self, slot: int, index: int) -> float:
        self._slots[slot] = index
        self._charge()
        return 0.0

    def restore(self, slot: int, index: int) -> float:
        self._cursor = index
        self._charge()
        return 0.0

    def free(self, slot: int, index: int) -> float:
        del self._slots[slot]
        self._charge()
        return 0.0

    def adjoint(self, step: int) -> tuple[float, float]:
        # The youturn leaves the cursor at x_{step-1}, where it already is.
        self._charge()
        return self.spec.fwd_cost[step - 1], self.spec.bwd_cost[step - 1]


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


class CompressedBackend(TieredBackend):
    """TieredBackend plus a codec for compressed-band slots."""

    def __init__(
        self,
        spec: ChainSpec,
        codec: "CompressionModel",
        *,
        memory: "StorageProfile | None" = None,
        disk: "StorageProfile | None" = None,
    ) -> None:
        super().__init__(spec, memory=memory, disk=disk)
        self.codec = codec
        self._compress_calls = 0
        self._decompress_calls = 0
        self._compress_seconds = 0.0
        self._decompress_seconds = 0.0
        self._bytes_saved = 0

    def begin(self, program: "CompiledProgram | None") -> None:
        super().begin(program)
        self._compress_calls = 0
        self._decompress_calls = 0
        self._compress_seconds = 0.0
        self._decompress_seconds = 0.0
        self._bytes_saved = 0

    def _stored_bytes(self, slot: int, index: int) -> int:
        raw = self.spec.act_bytes[index]
        if is_compressed_slot(slot):
            return self.codec.compressed_bytes(raw)
        return raw

    @property
    def slot_bytes(self) -> int:
        act = self.spec.act_bytes
        codec = self.codec
        total = 0
        for slot, idx in self._slots.items():
            raw = act[idx]
            total += codec.compressed_bytes(raw) if is_compressed_slot(slot) else raw
        return total

    def snapshot(self, slot: int, index: int) -> float:
        cost = super().snapshot(slot, index)
        if is_compressed_slot(slot):
            raw = self.spec.act_bytes[index]
            codec_cost = self.codec.compress_seconds(raw)
            self._compress_calls += 1
            self._compress_seconds += codec_cost
            self._bytes_saved += raw - self.codec.compressed_bytes(raw)
            cost += codec_cost
        return cost

    def restore(self, slot: int, index: int) -> float:
        cost = super().restore(slot, index)
        if is_compressed_slot(slot):
            raw = self.spec.act_bytes[index]
            codec_cost = self.codec.decompress_seconds(raw)
            self._decompress_calls += 1
            self._decompress_seconds += codec_cost
            cost += codec_cost
        return cost

    def compression_stats(self) -> CompressionStats:
        return CompressionStats(
            codec=self.codec.name,
            ratio=self.codec.ratio,
            compress_calls=self._compress_calls,
            decompress_calls=self._decompress_calls,
            compress_seconds=self._compress_seconds,
            decompress_seconds=self._decompress_seconds,
            bytes_saved=self._bytes_saved,
            fidelity_loss=self.codec.fidelity_loss if self._compress_calls else 0.0,
        )
