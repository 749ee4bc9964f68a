"""Compression-aware tiered backend: codec-priced checkpoint storage.

Extends :class:`~repro.engine.tiered.TieredBackend` with a
:class:`~repro.edge.storage.CompressionModel`: any slot in the
compressed band of the shared action alphabet
(:func:`~repro.checkpointing.actions.is_compressed_slot`) stores
``codec.compressed_bytes(raw)`` in its tier's ledger instead of the raw
activation size, and every compressed SNAPSHOT/RESTORE pays the codec's
encode/decode seconds on top of the tier's storage transfer.  Slots
outside the band behave exactly like the plain tiered backend — the
compression flag travels in the *plan*, so one backend executes mixed
raw/compressed schedules without any side table.

With the identity codec (ratio 1, zero cost) every measurement collapses
to :class:`~repro.engine.tiered.TieredBackend`'s, which is what makes
the lossless-collapse property testable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..checkpointing.actions import is_compressed_slot
from ..checkpointing.chainspec import ChainSpec
from .stats import CompressionStats
from .tiered import TieredBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..edge.storage import CompressionModel, StorageProfile
    from .program import CompiledProgram

__all__ = ["CompressedBackend"]


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
