"""Analytic cost-accounting backend over a :class:`ChainSpec`.

Replaces the body of :func:`repro.checkpointing.simulate`: no tensors,
just the chain's per-step costs and activation sizes.  Byte peaks are
re-charged after every action (including the initial state, where the
cursor holds ``x_0``) and at every activation an ADVANCE passes through,
so action-by-action dispatch gives the peaks of the vectorized
:func:`~repro.engine.program.byte_peaks`, the one byte model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..checkpointing.chainspec import ChainSpec
from .backend import BaseBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .program import CompiledProgram

__all__ = ["SimBackend"]


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
