"""Real-tensor backend: schedule-driven backprop on a SequentialNet.

Replaces the body of :func:`repro.autodiff.run_schedule`.  Payloads are
live NumPy activations.  The adjoint of the head step replays its
forward to seed the loss gradient ("youturn" semantics); every other
adjoint replays inside the layer's ``backward``.  Costs are all zero —
wall time is what the tracer spans measure.

Bytes come from the one byte model,
:func:`~repro.engine.program.byte_peaks`: the backend records the
``nbytes`` of every activation and gradient it produces, and after
dispatch the peaks are that pass over the program it was given in
:meth:`TensorBackend.begin`, with the gradient term switched on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..autodiff.loss import softmax_cross_entropy
from ..errors import ExecutionError
from .backend import BaseBackend
from .program import byte_peaks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..autodiff.network import GradMap, SequentialNet
    from .program import CompiledProgram

__all__ = ["TensorBackend"]


class TensorBackend(BaseBackend):
    """Executes schedule actions as layer forwards/backwards on a batch."""

    def __init__(
        self,
        net: "SequentialNet",
        x: np.ndarray,
        labels: np.ndarray,
        loss_fn=softmax_cross_entropy,
    ) -> None:
        self.net = net
        self.x = x
        self.labels = labels
        self.loss_fn = loss_fn
        self.loss_value: float | None = None
        self.grads: "GradMap" = {}
        self._program: "CompiledProgram | None" = None
        self._cursor: np.ndarray = x
        self._slots: dict[int, np.ndarray] = {}
        self._dy: np.ndarray | None = None
        #: ``nbytes`` of ``x_k`` and of ``dL/dx_k`` as produced, k = 0..l
        self._act_bytes = np.zeros(0, np.int64)
        self._grad_bytes = np.zeros(0, np.int64)
        self._peaks: tuple[int, int] | None = None

    @property
    def chain_length(self) -> int:
        return len(self.net)

    @property
    def slot_bytes(self) -> int:
        return sum(int(a.nbytes) for a in self._slots.values())

    @property
    def live_bytes(self) -> int:
        dy = self._dy
        flow = 0 if dy is None else int(dy.nbytes)
        return self.slot_bytes + int(self._cursor.nbytes) + flow

    def _byte_peaks(self) -> tuple[int, int]:
        """The byte model's peaks over the whole program.

        Exact once dispatch has finished; activations and gradients not
        yet produced count as 0 bytes.  Cached until a size is recorded.
        """
        if self._peaks is None:
            self._peaks = byte_peaks(self._program, self._act_bytes, self._grad_bytes)
        return self._peaks

    @property
    def peak_slot_bytes(self) -> int:
        return self._byte_peaks()[0]

    @property
    def peak_bytes(self) -> int:
        return self._byte_peaks()[1]

    def begin(self, program: "CompiledProgram | None") -> None:
        self._program = program
        self._cursor = self.x
        self._slots = {}
        self._dy = None
        self.loss_value = None
        self.grads = {}
        self._act_bytes = np.zeros(len(self.net) + 1, np.int64)
        self._act_bytes[0] = self.x.nbytes
        self._grad_bytes = np.zeros(len(self.net) + 1, np.int64)
        self._peaks = None

    def advance(self, start: int, stop: int) -> float:
        cursor = self._cursor
        layers = self.net.layers
        act_bytes = self._act_bytes
        for i in range(start, stop):
            cursor = layers[i].forward(cursor)
            act_bytes[i + 1] = cursor.nbytes
        self._cursor = cursor
        self._peaks = None
        return 0.0

    def snapshot(self, slot: int, index: int) -> float:
        self._slots[slot] = self._cursor
        return 0.0

    def restore(self, slot: int, index: int) -> float:
        self._cursor = self._slots[slot]
        return 0.0

    def free(self, slot: int, index: int) -> float:
        del self._slots[slot]
        return 0.0

    def adjoint(self, step: int) -> tuple[float, float]:
        layer = self.net.layers[step - 1]
        if step == self.chain_length:
            # Head step: replay forward to get predictions, seed dy.
            y = layer.forward(self._cursor)
            self._act_bytes[step] = y.nbytes
            self.loss_value, self._dy = self.loss_fn(y, self.labels)
            self._grad_bytes[step] = self._dy.nbytes
        if self._dy is None:  # pragma: no cover - guarded by VM ordering
            raise ExecutionError("gradient flow unseeded")
        dx, layer_grads = layer.backward(self._cursor, self._dy)
        self._dy = dx
        if dx is not None:
            self._grad_bytes[step - 1] = dx.nbytes
        for pname, g in layer_grads.items():
            self.grads[(layer.name, pname)] = g
        self._peaks = None
        return 0.0, 0.0
