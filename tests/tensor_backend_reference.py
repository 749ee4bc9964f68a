"""The meter-driven tensor backend, frozen as a test oracle.

``repro.engine.tensor.TensorBackend`` used to track live bytes with a
:class:`~repro.autodiff.meter.MemoryMeter`: named ``hold``/``release``
calls for the cursor, each slot, the head output and the flowing
gradient, with the meter's running peak as the run's ``peak_bytes``.
It now records activation and gradient sizes and takes its peaks from
the byte model every backend shares,
:func:`repro.engine.program.byte_peaks`.  The metered class is frozen
below from commit 6c563de, renamed and with absolute imports, so
``tests/test_engine_tensor_oracle.py`` can check the new backend
against it: the same ``RunStats``, per-action ``StepStats`` bytes,
loss and gradients.

It implements the old ``begin()`` with no argument; the differential
test adapts it to ``begin(program)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.autodiff.loss import softmax_cross_entropy
from repro.autodiff.meter import MemoryMeter
from repro.errors import ExecutionError
from repro.engine.backend import BaseBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.autodiff.network import GradMap, SequentialNet

__all__ = ["ReferenceTensorBackend"]


class ReferenceTensorBackend(BaseBackend):
    """Executes schedule actions as layer forwards/backwards on a batch."""

    def __init__(
        self,
        net: "SequentialNet",
        x: np.ndarray,
        labels: np.ndarray,
        loss_fn=softmax_cross_entropy,
        meter: MemoryMeter | None = None,
    ) -> None:
        self.net = net
        self.x = x
        self.labels = labels
        self.loss_fn = loss_fn
        self.meter = meter if meter is not None else MemoryMeter()
        self.loss_value: float | None = None
        self.grads: "GradMap" = {}
        self._cursor: np.ndarray = x
        self._slots: dict[int, np.ndarray] = {}
        self._dy: np.ndarray | None = None
        self._peak_slot_bytes = 0

    @property
    def chain_length(self) -> int:
        return len(self.net)

    @property
    def slot_bytes(self) -> int:
        return sum(int(a.nbytes) for a in self._slots.values())

    @property
    def live_bytes(self) -> int:
        return self.meter.current_bytes

    @property
    def peak_slot_bytes(self) -> int:
        return self._peak_slot_bytes

    @property
    def peak_bytes(self) -> int:
        return self.meter.peak_bytes

    def begin(self) -> None:
        self._cursor = self.x
        self._slots = {}
        self._dy = None
        self.loss_value = None
        self.grads = {}
        self._peak_slot_bytes = 0
        self.meter.hold("cursor", self._cursor)

    def advance(self, start: int, stop: int) -> float:
        cursor = self._cursor
        for i in range(start, stop):
            cursor = self.net.layers[i].forward(cursor)
            self.meter.hold("cursor", cursor)
        self._cursor = cursor
        return 0.0

    def snapshot(self, slot: int, index: int) -> float:
        self._slots[slot] = self._cursor
        self.meter.hold(f"slot{slot}", self._cursor)
        sb = self.slot_bytes
        if sb > self._peak_slot_bytes:
            self._peak_slot_bytes = sb
        return 0.0

    def restore(self, slot: int, index: int) -> float:
        self._cursor = self._slots[slot]
        self.meter.hold("cursor", self._cursor)
        return 0.0

    def free(self, slot: int, index: int) -> float:
        del self._slots[slot]
        self.meter.release(f"slot{slot}")
        return 0.0

    def adjoint(self, step: int) -> tuple[float, float]:
        layer = self.net.layers[step - 1]
        if step == self.chain_length:
            # Head step: replay forward to get predictions, seed dy.
            y = layer.forward(self._cursor)
            self.meter.hold("head", y)
            self.loss_value, self._dy = self.loss_fn(y, self.labels)
            self.meter.release("head")
            self.meter.hold("grad", self._dy)
        if self._dy is None:  # pragma: no cover - guarded by VM ordering
            raise ExecutionError("gradient flow unseeded")
        dx, layer_grads = layer.backward(self._cursor, self._dy)
        self._dy = dx
        self.meter.hold("grad", dx)
        for pname, g in layer_grads.items():
            self.grads[(layer.name, pname)] = g
        return 0.0, 0.0
