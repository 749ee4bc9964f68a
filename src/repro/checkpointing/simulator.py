"""Analytic schedule execution and validation (engine facade).

:func:`simulate` runs a :class:`~.schedule.Schedule` against a
:class:`~.chainspec.ChainSpec` without any real tensors, enforcing every
structural invariant (cursor preconditions, slot budget and occupancy,
backward order) and measuring exactly what the paper's analysis needs:

* pure forward (ADVANCE) executions and their cost;
* replayed forwards inside adjoints (one per step, Revolve convention);
* peak checkpoint memory in bytes and in slots;
* total time under the chain's cost model.

The virtual machine itself lives in :mod:`repro.engine` — this module
is the compatibility surface: same signature, same
:class:`~repro.errors.ExecutionError` behavior, same
:class:`ExecutionStats` result as the original hand-rolled simulator,
now produced by :func:`repro.engine.execute` on a
:class:`~repro.engine.sim.SimBackend`, which compiles the schedule and
evaluates the program with NumPy array passes.

``extra_forward_cost`` is measured against the mandatory work of a single
forward sweep — the quantity the paper's recompute factor ρ prices:
``time = baseline + extra_forward_cost`` and ``ρ = time / baseline``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ExecutionError
from ..obs import get_tracer
from .chainspec import ChainSpec
from .schedule import Schedule

__all__ = ["ExecutionStats", "simulate", "validate"]


@dataclass(frozen=True)
class ExecutionStats:
    """Measured outcome of executing a schedule."""

    strategy: str
    length: int
    #: pure forward step executions (sum of ADVANCE lengths)
    forward_steps: int
    forward_cost: float
    #: forwards replayed inside adjoints (== length under Revolve semantics)
    replay_steps: int
    replay_cost: float
    backward_cost: float
    #: per-step forward execution counts, index i-1 -> executions of F_i
    executions: tuple[int, ...]
    #: peak bytes held in checkpoint slots (excluding the cursor)
    peak_slot_bytes: int
    #: peak bytes including the cursor's activation
    peak_bytes: int
    #: maximum number of simultaneously occupied slots
    peak_slots: int
    snapshots_taken: int
    restores: int

    @property
    def total_time(self) -> float:
        """Raw machine time: every advance, replay and backward charged."""
        return self.forward_cost + self.replay_cost + self.backward_cost

    @property
    def total_forward_executions(self) -> int:
        return self.forward_steps + self.replay_steps

    def extra_forward_steps(self) -> int:
        """Advance steps beyond the mandatory ``l-1`` sweep.

        The replay inside each adjoint is an executor artifact — a real
        framework fuses that forward into the original sweep — so the
        recomputation overhead is measured on pure ADVANCE steps against
        the ``l-1`` advances even store-all needs.  For Revolve schedules
        this equals :func:`repro.checkpointing.revolve.extra_forwards`.
        """
        return self.forward_steps - (self.length - 1)

    def extra_forward_cost(self, spec: ChainSpec) -> float:
        """Cost-weighted version of :meth:`extra_forward_steps`."""
        sweep = spec.total_fwd_cost - spec.fwd_cost[-1]
        return self.forward_cost - sweep

    def effective_time(self, spec: ChainSpec) -> float:
        """Training-step time under fused-youturn semantics.

        Baseline (store-all) plus the recomputation overhead: the paper's
        time model for Figure 1.
        """
        return spec.baseline_time + self.extra_forward_cost(spec)

    def recompute_factor(self, spec: ChainSpec) -> float:
        """ρ = effective time / store-all baseline time (>= 1)."""
        return self.effective_time(spec) / spec.baseline_time


def simulate(
    schedule: Schedule,
    spec: ChainSpec | None = None,
    *,
    compiled=None,
) -> ExecutionStats:
    """Execute ``schedule`` against ``spec`` and return measurements.

    Raises :class:`~repro.errors.ExecutionError` on any invariant
    violation: advancing backwards, restoring an empty slot, exceeding
    the slot budget, snapshotting into an occupied slot, adjoints out of
    order, or finishing with backwards pending.

    ``compiled`` (a :class:`~repro.engine.program.CompiledProgram` built
    from ``schedule``) is the program to run; without it the engine
    compiles ``schedule`` itself.  The returned stats are the same.
    """
    # Imported lazily: repro.engine builds on this package's leaf modules.
    from ..engine.sim import SimBackend
    from ..engine.vm import execute

    if spec is None:
        spec = ChainSpec.homogeneous(schedule.length)
    tracer = get_tracer()
    on_step = None
    if tracer.enabled:
        from ..engine.hooks import sim_event_hook

        on_step = sim_event_hook(tracer)
    run = execute(schedule, SimBackend(spec), on_step=on_step, compiled=compiled)
    stats = ExecutionStats(
        strategy=run.strategy,
        length=run.length,
        forward_steps=run.forward_steps,
        forward_cost=run.forward_cost,
        replay_steps=run.replay_steps,
        replay_cost=run.replay_cost,
        backward_cost=run.backward_cost,
        executions=run.executions,
        peak_slot_bytes=run.peak_slot_bytes,
        peak_bytes=run.peak_bytes,
        peak_slots=run.peak_slots,
        snapshots_taken=run.snapshots_taken,
        restores=run.restores,
    )
    if tracer.enabled:
        tracer.event(
            "simulated",
            category="sim",
            strategy=stats.strategy,
            length=stats.length,
            forward_steps=stats.forward_steps,
            replay_steps=stats.replay_steps,
            peak_slots=stats.peak_slots,
            peak_bytes=stats.peak_bytes,
            snapshots=stats.snapshots_taken,
            restores=stats.restores,
        )
    return stats


def validate(schedule: Schedule, spec: ChainSpec | None = None) -> bool:
    """True when ``schedule`` executes without invariant violations."""
    try:
        simulate(schedule, spec)
    except ExecutionError:
        return False
    return True
