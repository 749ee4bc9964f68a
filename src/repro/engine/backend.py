"""The per-action backend surface of the schedule virtual machine.

The VM (:func:`~repro.engine.vm.execute`) owns every structural
invariant — cursor preconditions, slot budget and occupancy, backward
order, completeness — and the authoritative ``slot -> activation index``
map.  A per-action backend owns only the *payloads* (real tensors) and
answers with the cost of each action.  The VM's dispatch loop calls
exactly one backend method per schedule action, always after its own
precondition checks have passed, so backends may assume arguments are
valid and need no defensive checks of their own.

The analytic backends (:class:`~repro.engine.sim.SimBackend` and its
tiered and compressed configurations) do not implement this protocol:
they price the whole compiled program in one pass
(:meth:`~repro.engine.sim.SimBackend.run`), which
:func:`~repro.engine.vm.execute` calls instead of the loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

from .stats import CompressionStats, TierStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .program import CompiledProgram

__all__ = ["Backend", "BaseBackend"]


@runtime_checkable
class Backend(Protocol):
    """What the VM needs from an execution backend.

    Cost returns are in the backend's own unit (zero for the tensor
    backend, whose cost is wall time measured by the tracer).  ``snapshot``/``restore`` return
    *transfer* cost; ``adjoint`` returns ``(replay_cost, backward_cost)``.
    """

    @property
    def chain_length(self) -> int: ...

    #: bytes currently held in checkpoint slots
    @property
    def slot_bytes(self) -> int: ...

    #: total live bytes (slots + cursor + any gradient flow)
    @property
    def live_bytes(self) -> int: ...

    @property
    def peak_slot_bytes(self) -> int: ...

    @property
    def peak_bytes(self) -> int: ...

    def begin(self, program: "CompiledProgram | None") -> None:
        """Reset state; the cursor now holds ``x_0`` (the batch input).

        ``program`` is the compiled program about to be dispatched; a
        backend that derives its byte peaks from it after dispatch
        (:class:`~repro.engine.tensor.TensorBackend`) keeps it.
        """
        ...

    def advance(self, start: int, stop: int) -> float:
        """Run forwards ``start -> stop``; cursor ends holding ``x_stop``."""
        ...

    def snapshot(self, slot: int, index: int) -> float:
        """Copy the cursor (holding ``x_index``) into ``slot``."""
        ...

    def restore(self, slot: int, index: int) -> float:
        """Load the cursor from ``slot`` (which holds ``x_index``)."""
        ...

    def free(self, slot: int, index: int) -> float:
        """Release ``slot`` (which held ``x_index``)."""
        ...

    def adjoint(self, step: int) -> tuple[float, float]:
        """Youturn of ``step``: replay its forward, apply its backward."""
        ...

    def tier_stats(self) -> tuple[TierStats, ...]:
        """Per-storage-tier ledgers (empty for untired backends)."""
        ...

    def compression_stats(self) -> CompressionStats | None:
        """Codec ledger (``None`` for codec-less backends)."""
        ...


class BaseBackend:
    """Optional convenience base: untired, zero extra bookkeeping."""

    def begin(self, program: "CompiledProgram | None") -> None:  # pragma: no cover
        return None

    def tier_stats(self) -> tuple[TierStats, ...]:
        return ()

    def compression_stats(self) -> CompressionStats | None:
        return None
