"""The schedule virtual machine: compile, then dispatch.

:func:`execute` runs a :class:`~repro.checkpointing.schedule.Schedule`
against any :class:`~repro.engine.backend.Backend` in two stages.

First, :func:`~repro.engine.program.compile_schedule` lowers the
schedule to a :class:`~repro.engine.program.CompiledProgram`, and that
is the one place every structural invariant is enforced (cursor moves,
slot budget and occupancy, backward order, full forward coverage).  A
violation raises :class:`~repro.errors.ExecutionError` with one
canonical message per rule, before ``backend.begin(program)`` — an
invalid schedule never reaches the backend.

Second, the program runs.  An analytic backend
(:class:`~repro.engine.sim.SimBackend` and its tiered and compressed
configurations) evaluates the whole program in a handful of NumPy array
passes (:meth:`~repro.engine.sim.SimBackend.run`), traced or not.  Any
other backend (:class:`~repro.engine.tensor.TensorBackend`) is driven by
one checkless loop that dispatches the program's int opcodes to its
per-action methods, with every operand precomputed at compile time.

``compiled=`` supplies the program; it must have been compiled from
the same actions as ``schedule``.  Without it, the schedule is compiled
on first use and the program is kept for as long as that
:class:`Schedule` object lives, in a table keyed by object identity.  A
training loop that replays one schedule thus compiles it once, and the
program never shows in the schedule's ``==``, ``hash`` or pickles.

The optional ``on_step`` callback receives a
:class:`~repro.engine.stats.StepStats` after every action.  When it is
``None`` all per-step bookkeeping is skipped, so an untraced run pays
no observation overhead.  The analytic pass emits its steps once the
whole program is priced, so their ``started`` is the clock at emission.
"""

from __future__ import annotations

import weakref
from typing import Callable

from ..checkpointing.schedule import Schedule
from ..errors import ExecutionError
from ..obs.tracer import Tracer
from .backend import Backend
from .program import (
    KIND_BY_OP,
    OP_ADVANCE,
    OP_FREE,
    OP_RESTORE,
    OP_SNAPSHOT,
    CompiledProgram,
    compile_schedule,
)
from .sim import SimBackend
from .stats import RunStats, StepStats

__all__ = ["execute"]

StepHook = Callable[[StepStats], None]

#: ``id(schedule) -> (weak reference to it, its program)``.  Keyed on
#: identity, not value: hashing a long schedule on every call would cost
#: a few percent of a training step.  An entry dies with its schedule.
_programs: dict[int, tuple[weakref.ref, CompiledProgram]] = {}


def _program_for(schedule: Schedule, compiled: CompiledProgram | None) -> CompiledProgram:
    """``compiled`` once checked against ``schedule``, else its own program."""
    key = id(schedule)
    entry = _programs.get(key)
    if entry is not None and entry[0]() is schedule:
        if compiled is None or compiled is entry[1]:
            return entry[1]
    if compiled is None:
        compiled = compile_schedule(schedule)
    elif not compiled.matches(schedule):
        raise ExecutionError(
            f"compiled program {compiled.strategy!r} "
            f"(l={compiled.length}, slots={compiled.slots}, "
            f"{len(compiled)} ops) does not match schedule "
            f"{schedule.strategy!r} (l={schedule.length}, "
            f"slots={schedule.slots}, {len(schedule.actions)} ops)"
        )
    ref = weakref.ref(schedule, lambda _, key=key: _programs.pop(key, None))
    _programs[key] = (ref, compiled)
    return compiled


def execute(
    schedule: Schedule,
    backend: Backend | SimBackend,
    *,
    on_step: StepHook | None = None,
    compiled: CompiledProgram | None = None,
) -> RunStats:
    """Run ``schedule`` on ``backend`` and return unified measurements.

    Raises :class:`~repro.errors.ExecutionError` on any invariant
    violation, before the backend sees a single action.  When
    ``compiled`` is given it must have been compiled from ``schedule``;
    otherwise the schedule's own program is compiled once and reused.
    """
    l = backend.chain_length
    if schedule.length != l:
        raise ExecutionError(f"schedule length {schedule.length} != chain length {l}")
    program = _program_for(schedule, compiled)
    if isinstance(backend, SimBackend):
        return backend.run(program, on_step)

    ops = program.ops_list
    args = program.args_list
    aux = program.aux_list
    forward_cost = 0.0
    replay_cost = 0.0
    backward_cost = 0.0
    transfer_seconds = 0.0
    observe = on_step is not None
    now = Tracer.now
    t0 = 0.0

    backend.begin(program)
    for pos in range(len(ops)):
        op = ops[pos]
        arg = args[pos]
        a = aux[pos]
        if observe:
            t0 = now()
        step_transfer = 0.0
        if op == OP_ADVANCE:
            forward_cost += backend.advance(a, arg)
        elif op == OP_SNAPSHOT:
            step_transfer = backend.snapshot(arg, a)
            transfer_seconds += step_transfer
        elif op == OP_RESTORE:
            step_transfer = backend.restore(arg, a)
            transfer_seconds += step_transfer
        elif op == OP_FREE:
            backend.free(arg, a)
        else:  # OP_ADJOINT
            rc, bc = backend.adjoint(arg)
            replay_cost += rc
            backward_cost += bc
        if observe:
            on_step(
                StepStats(
                    pos=pos,
                    kind=KIND_BY_OP[op],
                    arg=arg,
                    cursor=int(program.cursor_after[pos]),
                    occupied_slots=int(program.occupied_after[pos]),
                    forward_steps=int(program.forward_cum[pos]),
                    replay_steps=int(program.replay_cum[pos]),
                    backwards_done=int(program.backwards_cum[pos]),
                    slot_bytes=backend.slot_bytes,
                    live_bytes=backend.live_bytes,
                    transfer_seconds=step_transfer,
                    started=t0,
                )
            )

    return RunStats(
        strategy=program.strategy,
        length=l,
        forward_steps=program.forward_steps,
        forward_cost=forward_cost,
        replay_steps=int(program.adjoint_steps.size),
        replay_cost=replay_cost,
        backward_cost=backward_cost,
        executions=program.executions,
        peak_slot_bytes=backend.peak_slot_bytes,
        peak_bytes=backend.peak_bytes,
        peak_slots=program.peak_slots,
        snapshots_taken=program.snapshots_taken,
        restores=program.restores,
        transfer_seconds=transfer_seconds,
        tiers=backend.tier_stats(),
        compression=backend.compression_stats(),
    )
