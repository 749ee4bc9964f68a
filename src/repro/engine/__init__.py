"""The unified schedule execution engine.

One virtual machine (:func:`execute`) runs checkpoint schedules for
*every* consumer — the analytic simulator, the real-tensor executor
and the tiered-storage model:

* :class:`SimBackend` — ChainSpec cost accounting (no tensors), priced
  in one whole-program pass over the compiled program;
* :class:`TieredBackend` — the same pass with RAM + disk slot tiers
  priced by :class:`~repro.edge.storage.StorageProfile` read/write paths;
* :class:`CompressedBackend` — TieredBackend plus a
  :class:`~repro.edge.storage.CompressionModel` pricing compressed-band
  slots (smaller stored bytes, codec seconds per transfer);
* :class:`TensorBackend` — real ``SequentialNet`` forwards/adjoints,
  dispatched action by action through the
  :class:`~repro.engine.backend.Backend` protocol, with peaks from the
  byte model the analytic pass uses
  (:func:`~repro.engine.program.byte_peaks`).

:func:`execute` compiles a schedule (:func:`compile_schedule`, the one
place its invariants are checked), then hands the compiled program to
the analytic pass or dispatches it to a per-action backend, emitting
unified :class:`~repro.engine.stats.StepStats` /
:class:`~repro.engine.stats.RunStats`; :mod:`repro.engine.hooks` builds
the standard trace observers.  The historical entry points
:func:`repro.checkpointing.simulate` and
:func:`repro.autodiff.run_schedule` remain as thin compatibility
wrappers over this engine.
"""

from .backend import Backend, BaseBackend
from .compressed import CompressedBackend
from .hooks import action_span_hook, compose, sim_event_hook
from .program import (
    OP_ADJOINT,
    OP_ADVANCE,
    OP_FREE,
    OP_RESTORE,
    OP_SNAPSHOT,
    OPCODE_NAMES,
    CompiledProgram,
    compile_schedule,
    decompile,
    program_from_payload,
)
from .sim import SimBackend
from .stats import CompressionStats, RunStats, StepStats, TierStats
from .tensor import TensorBackend
from .tiered import TieredBackend
from .vm import execute

__all__ = [
    "Backend",
    "BaseBackend",
    "RunStats",
    "StepStats",
    "TierStats",
    "CompressionStats",
    "SimBackend",
    "TensorBackend",
    "TieredBackend",
    "CompressedBackend",
    "CompiledProgram",
    "compile_schedule",
    "decompile",
    "program_from_payload",
    "OPCODE_NAMES",
    "OP_ADVANCE",
    "OP_SNAPSHOT",
    "OP_RESTORE",
    "OP_FREE",
    "OP_ADJOINT",
    "execute",
    "compose",
    "action_span_hook",
    "sim_event_hook",
]
