"""The analytic backend: one whole-program pass over a compiled schedule.

:class:`SimBackend` prices a :class:`~repro.engine.program.CompiledProgram`
on a :class:`~repro.checkpointing.chainspec.ChainSpec` in a few NumPy
array passes, with no tensors and no per-action calls
(:meth:`SimBackend.run`; :func:`~repro.engine.vm.execute` hands every
analytic run to it, traced or not):

* costs are the chain's forward-cost prefix differences and per-step
  costs gathered over the program, each summed with
  ``np.add.accumulate`` — the strictly left-to-right float additions of
  a ``+=`` loop over the actions;
* byte peaks come from :func:`~repro.engine.program.byte_peaks`, the
  one byte model, with every slot charged at the bytes it stores;
* tier and codec ledgers are reductions over the program's per-row
  slot tiers and compressed flags, priced by the storage profiles' and
  the codec's own scalar methods, called once per distinct byte size.

:class:`~repro.engine.tiered.TieredBackend` and
:class:`~repro.engine.compressed.CompressedBackend` are configurations of
this same pass: a RAM and a disk ledger with optional
:class:`~repro.edge.storage.StorageProfile` prices, and a
:class:`~repro.edge.storage.CompressionModel` for compressed-band slots.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from ..checkpointing.actions import TIER_RAM
from ..checkpointing.chainspec import ChainSpec
from ..obs.tracer import Tracer
from .program import KIND_BY_OP, OP_RESTORE, OP_SNAPSHOT, byte_peaks
from .stats import CompressionStats, RunStats, StepStats, TierStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..edge.storage import CompressionModel, StorageProfile
    from .program import CompiledProgram

__all__ = ["SimBackend"]


def _total(values: np.ndarray) -> float:
    """Left-to-right sum: the float additions of a ``+=`` loop from 0.0."""
    return float(np.add.accumulate(values)[-1]) if values.size else 0.0


def _each(price: Callable[[int], float], n_bytes: np.ndarray, dtype=np.float64) -> np.ndarray:
    """``price`` of every entry of ``n_bytes``, called once per distinct size."""
    sizes, where = np.unique(n_bytes, return_inverse=True)
    return np.array([price(int(b)) for b in sizes], dtype)[where]


def _tier_stats(
    name: str,
    profile: "StorageProfile | None",
    w: np.ndarray,
    r: np.ndarray,
    sign: np.ndarray,
    stored: np.ndarray,
    transfer: np.ndarray,
) -> TierStats:
    """One tier's ledger from its SNAPSHOT rows ``w``, its RESTORE rows
    ``r`` and ``sign`` (+1 on its SNAPSHOTs, -1 on its FREEs, else 0).
    Writes the tier's storage seconds into ``transfer``."""
    if profile is not None:
        transfer[w] = _each(profile.write_seconds, stored[w])
        transfer[r] = _each(profile.read_seconds, stored[r])
    return TierStats(
        name=name,
        writes=int(np.count_nonzero(w)),
        reads=int(np.count_nonzero(r)),
        write_seconds=_total(transfer[w]),
        read_seconds=_total(transfer[r]),
        peak_slots=max(0, int(np.cumsum(sign).max())),
        peak_bytes=max(0, int(np.cumsum(stored * sign).max())),
        bytes_written=int(stored[w].sum()),
        bytes_read=int(stored[r].sum()),
    )


class SimBackend:
    """Costs and byte peaks from a :class:`ChainSpec`; no tiers, no codec."""

    #: whether runs report the RAM/disk :class:`TierStats` ledgers
    tiered = False

    def __init__(self, spec: ChainSpec) -> None:
        self.spec = spec
        #: storage profiles pricing the RAM and the disk tier (tiered only)
        self.memory: "StorageProfile | None" = None
        self.disk: "StorageProfile | None" = None
        #: codec of the compressed-band slots (compressed only)
        self.codec: "CompressionModel | None" = None

    @property
    def chain_length(self) -> int:
        return self.spec.length

    def run(
        self,
        program: "CompiledProgram",
        on_step: Callable[[StepStats], None] | None = None,
    ) -> RunStats:
        """Measure ``program`` on this chain; ``on_step`` gets every action's
        :class:`StepStats`, its ``started`` read as it is emitted."""
        spec = self.spec
        codec = self.codec
        ops = program.opcodes
        act = np.asarray(spec.act_bytes, dtype=np.int64)
        # On SNAPSHOT/RESTORE/FREE rows: the activation the slot holds,
        # and the bytes the slot stores for it.
        raw = act[program.aux]
        stored = raw
        if codec is not None:
            zipped = program.slot_compressed
            stored = raw.copy()
            stored[zipped] = _each(codec.compressed_bytes, raw[zipped], np.int64)
        peak_slot_bytes, peak_bytes = byte_peaks(program, act, stored_bytes=stored)

        prefix = np.asarray(spec.fwd_prefix, dtype=np.float64)
        steps = program.adjoint_steps - 1
        forward_cost = _total(prefix[program.adv_stop] - prefix[program.adv_start])
        replay_cost = _total(np.asarray(spec.fwd_cost, dtype=np.float64)[steps])
        backward_cost = _total(np.asarray(spec.bwd_cost, dtype=np.float64)[steps])

        # transfer[row]: storage seconds, then codec seconds, of each action
        transfer = np.zeros(len(program))
        writes = ops == OP_SNAPSHOT
        reads = ops == OP_RESTORE
        tiers: tuple[TierStats, ...] = ()
        if self.tiered:
            tier = program.slot_tier  # -1 on ADVANCE/ADJOINT rows
            ledgers = (
                ("memory", self.memory, tier == TIER_RAM),
                ("disk", self.disk, tier > TIER_RAM),
            )
            tiers = tuple(
                _tier_stats(
                    name,
                    profile,
                    rows & writes,
                    rows & reads,
                    program.slot_sign * rows,
                    stored,
                    transfer,
                )
                for name, profile, rows in ledgers
            )
        compression = None
        if codec is not None:
            w = zipped & writes
            r = zipped & reads
            encode = _each(codec.compress_seconds, raw[w])
            decode = _each(codec.decompress_seconds, raw[r])
            transfer[w] += encode
            transfer[r] += decode
            compress_calls = int(np.count_nonzero(w))
            compression = CompressionStats(
                codec=codec.name,
                ratio=codec.ratio,
                compress_calls=compress_calls,
                decompress_calls=int(np.count_nonzero(r)),
                compress_seconds=_total(encode),
                decompress_seconds=_total(decode),
                bytes_saved=int((raw[w] - stored[w]).sum()),
                fidelity_loss=codec.fidelity_loss if compress_calls else 0.0,
            )

        if on_step is not None:
            slot_now = np.cumsum(stored * program.slot_sign)
            live_now = slot_now + act[program.cursor_after]
            now = Tracer.now
            rows = zip(
                program.ops_list,
                program.args_list,
                program.cursor_after.tolist(),
                program.occupied_after.tolist(),
                program.forward_cum.tolist(),
                program.replay_cum.tolist(),
                program.backwards_cum.tolist(),
                slot_now.tolist(),
                live_now.tolist(),
                transfer.tolist(),
            )
            for pos, (op, arg, cur, occ, fwd, rep, bwd, sb, lb, tr) in enumerate(rows):
                on_step(
                    StepStats(
                        pos=pos,
                        kind=KIND_BY_OP[op],
                        arg=arg,
                        cursor=cur,
                        occupied_slots=occ,
                        forward_steps=fwd,
                        replay_steps=rep,
                        backwards_done=bwd,
                        slot_bytes=sb,
                        live_bytes=lb,
                        transfer_seconds=tr,
                        started=now(),
                    )
                )

        return RunStats(
            strategy=program.strategy,
            length=program.length,
            forward_steps=program.forward_steps,
            forward_cost=forward_cost,
            replay_steps=int(steps.size),
            replay_cost=replay_cost,
            backward_cost=backward_cost,
            executions=program.executions,
            peak_slot_bytes=peak_slot_bytes,
            peak_bytes=peak_bytes,
            peak_slots=program.peak_slots,
            snapshots_taken=program.snapshots_taken,
            restores=program.restores,
            transfer_seconds=_total(transfer),
            tiers=tiers,
            compression=compression,
        )
