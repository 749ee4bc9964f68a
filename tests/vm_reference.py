"""The checked schedule interpreter, frozen as a test oracle.

``repro.engine.vm.execute`` used to run a schedule by interpreting its
actions one by one, checking every VM invariant as it went.  It now
always compiles the schedule first (``compile_schedule`` proves the
invariants) and dispatches the compiled program with no checks.  The
interpreter loop is frozen verbatim below (commit fd24b4b) so the
differential tests and ``benchmarks/bench_engine.py`` can keep checking
the compiled path against it: the same ``RunStats``, tier and codec
ledgers, traced ``StepStats`` and ``ExecutionError`` messages.
"""

from __future__ import annotations

from typing import Callable

from repro.checkpointing.actions import ActionKind
from repro.checkpointing.schedule import Schedule
from repro.engine.backend import Backend
from repro.engine.stats import RunStats, StepStats
from repro.errors import ExecutionError
from repro.obs.tracer import Tracer

__all__ = ["reference_execute"]


def reference_execute(
    schedule: Schedule,
    backend: Backend,
    *,
    on_step: Callable[[StepStats], None] | None = None,
) -> RunStats:
    """Interpret ``schedule`` on ``backend``, checking each action."""
    l = backend.chain_length
    if schedule.length != l:
        raise ExecutionError(f"schedule length {schedule.length} != chain length {l}")

    budget = schedule.slots
    cursor = 0  # the chain input x_0 starts in the cursor
    slots: dict[int, int] = {}  # slot id -> activation index (authoritative)
    pending = l  # next backward step to perform
    forward_steps = 0
    forward_cost = 0.0
    replay_steps = 0
    replay_cost = 0.0
    backward_cost = 0.0
    transfer_seconds = 0.0
    executions = [0] * l
    snapshots_taken = 0
    restores = 0
    peak_slots = 0
    observe = on_step is not None
    now = Tracer.now
    t0 = 0.0

    backend.begin()
    for pos, act in enumerate(schedule.actions):
        kind = act.kind
        arg = act.arg
        if observe:
            t0 = now()
        step_transfer = 0.0
        if kind is ActionKind.ADVANCE:
            if not cursor < arg <= l:
                raise ExecutionError(
                    f"action {pos}: ADVANCE to {arg} from cursor {cursor} (l={l})"
                )
            for i in range(cursor, arg):
                executions[i] += 1
            forward_steps += arg - cursor
            forward_cost += backend.advance(cursor, arg)
            cursor = arg
        elif kind is ActionKind.SNAPSHOT:
            if arg >= budget:
                raise ExecutionError(
                    f"action {pos}: SNAPSHOT into slot {arg} exceeds budget {budget}"
                )
            held = slots.get(arg)
            if held is not None:
                raise ExecutionError(
                    f"action {pos}: SNAPSHOT into occupied slot {arg} "
                    f"(holds x_{held}) without FREE"
                )
            slots[arg] = cursor
            step_transfer = backend.snapshot(arg, cursor)
            transfer_seconds += step_transfer
            snapshots_taken += 1
            if len(slots) > peak_slots:
                peak_slots = len(slots)
        elif kind is ActionKind.RESTORE:
            held = slots.get(arg)
            if held is None:
                raise ExecutionError(f"action {pos}: RESTORE from empty slot {arg}")
            cursor = held
            step_transfer = backend.restore(arg, held)
            transfer_seconds += step_transfer
            restores += 1
        elif kind is ActionKind.FREE:
            held = slots.pop(arg, None)
            if held is None:
                raise ExecutionError(f"action {pos}: FREE of empty slot {arg}")
            backend.free(arg, held)
        elif kind is ActionKind.ADJOINT:
            step = arg
            if step != pending:
                raise ExecutionError(
                    f"action {pos}: ADJOINT({step}) but pending backward is {pending}"
                )
            if cursor != step - 1:
                raise ExecutionError(
                    f"action {pos}: ADJOINT({step}) requires cursor at {step - 1}, "
                    f"cursor is {cursor}"
                )
            executions[step - 1] += 1
            rc, bc = backend.adjoint(step)
            replay_steps += 1
            replay_cost += rc
            backward_cost += bc
            pending -= 1
        else:  # pragma: no cover - exhaustive enum
            raise ExecutionError(f"action {pos}: unknown kind {kind}")
        if observe:
            on_step(
                StepStats(
                    pos=pos,
                    kind=kind,
                    arg=arg,
                    cursor=cursor,
                    occupied_slots=len(slots),
                    forward_steps=forward_steps,
                    replay_steps=replay_steps,
                    backwards_done=l - pending,
                    slot_bytes=backend.slot_bytes,
                    live_bytes=backend.live_bytes,
                    transfer_seconds=step_transfer,
                    started=t0,
                )
            )

    if pending != 0:
        raise ExecutionError(
            f"schedule finished with backward steps {pending}..1 still pending"
        )
    if any(e < 1 for e in executions):
        missing = [i + 1 for i, e in enumerate(executions) if e < 1]
        raise ExecutionError(f"steps never executed forward: {missing}")

    return RunStats(
        strategy=schedule.strategy,
        length=l,
        forward_steps=forward_steps,
        forward_cost=forward_cost,
        replay_steps=replay_steps,
        replay_cost=replay_cost,
        backward_cost=backward_cost,
        executions=tuple(executions),
        peak_slot_bytes=backend.peak_slot_bytes,
        peak_bytes=backend.peak_bytes,
        peak_slots=peak_slots,
        snapshots_taken=snapshots_taken,
        restores=restores,
        transfer_seconds=transfer_seconds,
        tiers=backend.tier_stats(),
        compression=backend.compression_stats(),
    )
