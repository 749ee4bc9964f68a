"""Flat program IR: schedules compiled to parallel int arrays.

A :class:`~repro.checkpointing.schedule.Schedule` is a tuple of
:class:`~repro.checkpointing.actions.Action` objects — ideal to build
and reason about, slow to execute thousands of times.  This module
compiles a schedule once into a :class:`CompiledProgram`:

* parallel ``opcodes`` / ``args`` arrays (one int row per action) plus a
  precomputed ``aux`` operand — the cursor an ADVANCE starts from, the
  activation index a SNAPSHOT/RESTORE/FREE touches, the step an ADJOINT
  reverses — so execution never re-derives machine state;
* the full state trajectory (``cursor_after``, ``occupied_after`` and
  the running forward/replay/backward counters) captured by abstract
  interpretation at compile time;
* schedule-level aggregates (``executions``, ``peak_slots``,
  snapshot/restore counts) that are backend-independent.

Compilation *is* validation: this is the only place the VM's
structural invariants are enforced, each with one canonical
:class:`~repro.errors.ExecutionError` message, so a program that
compiles can execute with no per-action checks at all.
:func:`~repro.engine.vm.execute` always compiles (once per schedule
object) and then dispatches the program.  The decompiler
(:func:`decompile`) inverts compilation exactly —
``decompile(compile_schedule(s)) == s`` for every valid schedule — and
:func:`program_from_payload` recompiles on load, so a persisted program
can never smuggle an invalid action sequence past the VM.

:func:`byte_peaks` is the one byte model: a few array passes over a
program and its activation (and, for real tensors, gradient) sizes give
the run's slot and live-byte peaks.  The analytic pass
(:meth:`~repro.engine.sim.SimBackend.run`) and the tensor backend both
take their peaks from it.  The analytic pass also reduces over the
program's per-row slot tiers and compressed flags
(:attr:`CompiledProgram.slot_tier`,
:attr:`CompiledProgram.slot_compressed`), the arrays
:attr:`CompiledProgram.tier_usage` and
:attr:`CompiledProgram.compression_usage` summarise.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..checkpointing.actions import (
    Action,
    ActionKind,
    is_compressed_slot,
    tier_of_slot,
)
from ..checkpointing.schedule import Schedule
from ..errors import ExecutionError, ScheduleError

__all__ = [
    "PROGRAM_VERSION",
    "OP_ADVANCE",
    "OP_SNAPSHOT",
    "OP_RESTORE",
    "OP_FREE",
    "OP_ADJOINT",
    "OPCODE_NAMES",
    "KIND_BY_OP",
    "CompiledProgram",
    "compile_schedule",
    "decompile",
    "program_from_payload",
    "byte_peaks",
]

#: Payload format version for persisted programs.
PROGRAM_VERSION = 1

# Opcode encoding; the order is part of the persisted format.
OP_ADVANCE = 0
OP_SNAPSHOT = 1
OP_RESTORE = 2
OP_FREE = 3
OP_ADJOINT = 4

OPCODE_NAMES = ("ADVANCE", "SNAPSHOT", "RESTORE", "FREE", "ADJOINT")

#: Opcode -> ActionKind, for decompilation and StepStats construction.
KIND_BY_OP = (
    ActionKind.ADVANCE,
    ActionKind.SNAPSHOT,
    ActionKind.RESTORE,
    ActionKind.FREE,
    ActionKind.ADJOINT,
)

_OP_BY_KIND = {kind: op for op, kind in enumerate(KIND_BY_OP)}


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class CompiledProgram:
    """A schedule lowered to flat arrays plus its precomputed trajectory.

    All arrays are read-only and length ``n`` (one row per action)
    unless noted.  ``aux`` is the precomputed operand the VM would
    otherwise derive from machine state; the ``*_after`` and ``*_cum``
    arrays snapshot the abstract machine right after each action, which
    is exactly what :class:`~repro.engine.stats.StepStats` reports.
    """

    strategy: str
    length: int
    slots: int
    opcodes: np.ndarray  # int32
    args: np.ndarray  # int32
    aux: np.ndarray  # int32: start cursor / activation index / step
    cursor_after: np.ndarray  # int32
    occupied_after: np.ndarray  # int32
    forward_cum: np.ndarray  # int32 running pure-forward steps
    replay_cum: np.ndarray  # int32 running adjoint replays
    backwards_cum: np.ndarray  # int32 running backwards done
    slot_sign: np.ndarray  # int8: +1 SNAPSHOT, -1 FREE, else 0
    adv_start: np.ndarray  # int32, one per ADVANCE, in order
    adv_stop: np.ndarray  # int32, one per ADVANCE, in order
    adjoint_steps: np.ndarray  # int32, one per ADJOINT, in order
    forward_steps: int
    snapshots_taken: int
    restores: int
    peak_slots: int
    executions: tuple[int, ...]
    final_cursor: int
    final_slots: tuple[tuple[int, int], ...]  # (slot, activation index)

    def __len__(self) -> int:
        return int(self.opcodes.shape[0])

    def matches(self, schedule: Schedule) -> bool:
        """Whether this program's op/arg rows are ``schedule``'s actions."""
        actions = schedule.actions
        return (
            self.strategy == schedule.strategy
            and self.length == schedule.length
            and self.slots == schedule.slots
            and len(self) == len(actions)
            and all(
                KIND_BY_OP[op] is act.kind and arg == act.arg
                for op, arg, act in zip(self.ops_list, self.args_list, actions)
            )
        )

    # -- fast-iteration views (the generic dispatch loop uses these) ----
    @cached_property
    def ops_list(self) -> tuple[int, ...]:
        return tuple(self.opcodes.tolist())

    @cached_property
    def args_list(self) -> tuple[int, ...]:
        return tuple(self.args.tolist())

    @cached_property
    def aux_list(self) -> tuple[int, ...]:
        return tuple(self.aux.tolist())

    # -- index arrays of the byte model (see byte_peaks) ----------------
    @cached_property
    def adv_rows(self) -> np.ndarray:
        """Row of every ADVANCE, in order."""
        return _frozen(np.flatnonzero(self.opcodes == OP_ADVANCE))

    @cached_property
    def adv_bounds(self) -> np.ndarray:
        """``start + 1, stop + 1`` of every ADVANCE, interleaved.

        Even ``np.maximum.reduceat`` outputs over these bounds are the
        largest activation each ADVANCE passes through.
        """
        bounds = np.empty(2 * self.adv_start.size, np.intp)
        bounds[0::2] = self.adv_start + 1
        bounds[1::2] = self.adv_stop + 1
        return _frozen(bounds)

    # -- per-row slot routing (derived from the shared slot alphabet) ----
    def _per_slot_row(self, of_slot, blank, dtype) -> np.ndarray:
        """``of_slot(arg)`` on every SNAPSHOT/RESTORE/FREE row, ``blank``
        elsewhere; ``of_slot`` is called once per distinct slot id."""
        out = np.full(len(self), blank, dtype)
        rows = (self.opcodes != OP_ADVANCE) & (self.opcodes != OP_ADJOINT)
        ids, where = np.unique(self.args[rows], return_inverse=True)
        out[rows] = np.array([of_slot(int(s)) for s in ids], dtype)[where]
        return _frozen(out)

    @cached_property
    def slot_tier(self) -> np.ndarray:
        """Storage tier of each row's slot
        (:func:`~repro.checkpointing.actions.tier_of_slot`); -1 on
        ADVANCE and ADJOINT rows."""
        return self._per_slot_row(tier_of_slot, -1, np.int32)

    @cached_property
    def slot_compressed(self) -> np.ndarray:
        """Whether each row's slot is in the compressed band
        (:func:`~repro.checkpointing.actions.is_compressed_slot`);
        False on ADVANCE and ADJOINT rows."""
        return self._per_slot_row(is_compressed_slot, False, bool)

    @cached_property
    def tier_usage(self) -> tuple[tuple[int, int, int, int], ...]:
        """Per-tier ``(tier, snapshots, restores, peak_slots)`` rows.

        Reduced from :attr:`slot_tier`, itself derived from the
        opcode/arg arrays alone, so the rows survive payload round-trips
        by construction.  Tiers appear in ascending order; a program that
        never touches a slot has no rows.
        """
        tier = self.slot_tier
        writes = self.opcodes == OP_SNAPSHOT
        reads = self.opcodes == OP_RESTORE
        usage = []
        for t in np.unique(tier[writes | reads]).tolist():
            rows = tier == t
            snapshots = int(np.count_nonzero(rows & writes))
            restores = int(np.count_nonzero(rows & reads))
            peak = int(np.cumsum(self.slot_sign * rows).max())
            usage.append((t, snapshots, restores, peak))
        return tuple(usage)

    @property
    def paged(self) -> bool:
        """Whether any action touches a slot outside the RAM tier."""
        return any(t != 0 for t, _, _, _ in self.tier_usage)

    @cached_property
    def compression_usage(self) -> tuple[int, int]:
        """``(compressed snapshots, compressed restores)`` counts.

        Reduced from :attr:`slot_compressed`; :attr:`tier_usage` already
        folds compressed slots into their storage tier, so this is the
        orthogonal how-stored summary.
        """
        zipped = self.slot_compressed
        return (
            int(np.count_nonzero(zipped & (self.opcodes == OP_SNAPSHOT))),
            int(np.count_nonzero(zipped & (self.opcodes == OP_RESTORE))),
        )

    @property
    def compressed(self) -> bool:
        """Whether any snapshot is stored through the compressed band."""
        return self.compression_usage != (0, 0)

    # -- content addressing and persistence -----------------------------
    @cached_property
    def digest(self) -> str:
        """SHA-256 over the canonical program encoding (content address)."""
        h = hashlib.sha256()
        h.update(b"program:v%d\x00" % PROGRAM_VERSION)
        h.update(self.strategy.encode("utf-8"))
        h.update(b"\x00%d:%d\x00" % (self.length, self.slots))
        h.update(np.ascontiguousarray(self.opcodes, dtype="<i4").tobytes())
        h.update(np.ascontiguousarray(self.args, dtype="<i4").tobytes())
        return h.hexdigest()

    def to_payload(self) -> dict:
        """JSON-safe document from which the program can be rebuilt."""
        return {
            "version": PROGRAM_VERSION,
            "strategy": self.strategy,
            "length": self.length,
            "slots": self.slots,
            "opcodes": self.opcodes.tolist(),
            "args": self.args.tolist(),
            "digest": self.digest,
        }


def compile_schedule(schedule: Schedule) -> CompiledProgram:
    """Lower ``schedule`` to the flat IR, enforcing every VM invariant.

    Raises :class:`~repro.errors.ExecutionError`, naming the first
    offending action, when:

    * ADVANCE does not move the cursor strictly forward within the chain;
    * SNAPSHOT targets a slot outside the budget or one already occupied
      (a silent overwrite would leak the previous payload);
    * RESTORE / FREE targets an empty slot;
    * ADJOINT is out of descending order or the cursor is not parked at
      ``x_{step-1}``;
    * at the end a backward is pending or a step never ran forward.
    """
    l = schedule.length
    budget = schedule.slots
    # One row per action: op, arg, aux, cursor_after, occupied_after,
    # forward_cum, replay_cum, backwards_cum, slot_sign.
    rows: list[tuple[int, ...]] = []
    adv_start: list[int] = []
    adv_stop: list[int] = []
    adjoint_steps: list[int] = []
    cover = [0] * (l + 1)  # difference array of per-step executions

    cursor = 0
    slots: dict[int, int] = {}
    pending = l
    forward_steps = 0
    replay_steps = 0
    snapshots_taken = 0
    restores = 0
    peak_slots = 0

    for pos, act in enumerate(schedule.actions):
        kind = act.kind
        arg = act.arg
        if kind is ActionKind.ADVANCE:
            if not cursor < arg <= l:
                raise ExecutionError(
                    f"action {pos}: ADVANCE to {arg} from cursor {cursor} (l={l})"
                )
            op, a, sign = OP_ADVANCE, cursor, 0
            adv_start.append(cursor)
            adv_stop.append(arg)
            cover[cursor] += 1
            cover[arg] -= 1
            forward_steps += arg - cursor
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
            op, a, sign = OP_SNAPSHOT, cursor, 1
            snapshots_taken += 1
            if len(slots) > peak_slots:
                peak_slots = len(slots)
        elif kind is ActionKind.RESTORE:
            held = slots.get(arg)
            if held is None:
                raise ExecutionError(f"action {pos}: RESTORE from empty slot {arg}")
            cursor = held
            op, a, sign = OP_RESTORE, held, 0
            restores += 1
        elif kind is ActionKind.FREE:
            held = slots.pop(arg, None)
            if held is None:
                raise ExecutionError(f"action {pos}: FREE of empty slot {arg}")
            op, a, sign = OP_FREE, held, -1
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
            cover[step - 1] += 1
            cover[step] -= 1
            op, a, sign = OP_ADJOINT, step, 0
            adjoint_steps.append(step)
            replay_steps += 1
            pending -= 1
        else:  # pragma: no cover - exhaustive enum
            raise ExecutionError(f"action {pos}: unknown kind {kind}")
        rows.append(
            (op, arg, a, cursor, len(slots), forward_steps, replay_steps, l - pending, sign)
        )

    if pending != 0:
        raise ExecutionError(
            f"schedule finished with backward steps {pending}..1 still pending"
        )
    executions: list[int] = []
    running = 0
    for i in range(l):
        running += cover[i]
        executions.append(running)
    if any(e < 1 for e in executions):
        missing = [i + 1 for i, e in enumerate(executions) if e < 1]
        raise ExecutionError(f"steps never executed forward: {missing}")

    cols = np.array(rows, np.int32).reshape(len(rows), 9).T.copy()
    return CompiledProgram(
        strategy=schedule.strategy,
        length=l,
        slots=budget,
        opcodes=_frozen(cols[0]),
        args=_frozen(cols[1]),
        aux=_frozen(cols[2]),
        cursor_after=_frozen(cols[3]),
        occupied_after=_frozen(cols[4]),
        forward_cum=_frozen(cols[5]),
        replay_cum=_frozen(cols[6]),
        backwards_cum=_frozen(cols[7]),
        slot_sign=_frozen(cols[8].astype(np.int8)),
        adv_start=_frozen(np.asarray(adv_start, np.int32)),
        adv_stop=_frozen(np.asarray(adv_stop, np.int32)),
        adjoint_steps=_frozen(np.asarray(adjoint_steps, np.int32)),
        forward_steps=forward_steps,
        snapshots_taken=snapshots_taken,
        restores=restores,
        peak_slots=peak_slots,
        executions=tuple(executions),
        final_cursor=cursor,
        final_slots=tuple(sorted(slots.items())),
    )


def decompile(program: CompiledProgram) -> Schedule:
    """Reconstruct the exact source schedule of a compiled program."""
    actions = tuple(
        Action(KIND_BY_OP[op], arg)
        for op, arg in zip(program.ops_list, program.args_list)
    )
    return Schedule(
        strategy=program.strategy,
        length=program.length,
        slots=program.slots,
        actions=actions,
    )


def program_from_payload(payload: object) -> CompiledProgram:
    """Rebuild a program from :meth:`CompiledProgram.to_payload` output.

    The action stream is recompiled (so every invariant is re-proven)
    and the content digest re-derived; any mismatch raises
    :class:`~repro.errors.ScheduleError` — a corrupted or tampered
    payload can never produce a runnable program.
    """
    if not isinstance(payload, dict):
        raise ScheduleError("program payload must be an object")
    for field in ("version", "strategy", "length", "slots", "opcodes", "args", "digest"):
        if field not in payload:
            raise ScheduleError(f"program payload is missing field {field!r}")
    if payload["version"] != PROGRAM_VERSION:
        raise ScheduleError(
            f"program payload has version {payload['version']}, "
            f"expected {PROGRAM_VERSION}"
        )
    ops, raw_args = payload["opcodes"], payload["args"]
    if len(ops) != len(raw_args):
        raise ScheduleError("program payload opcode/arg arrays differ in length")
    try:
        actions = tuple(
            Action(KIND_BY_OP[int(op)], int(arg)) for op, arg in zip(ops, raw_args)
        )
    except (IndexError, TypeError, ValueError) as exc:
        raise ScheduleError(f"program payload has an invalid opcode row: {exc}") from exc
    schedule = Schedule(
        strategy=str(payload["strategy"]),
        length=int(payload["length"]),
        slots=int(payload["slots"]),
        actions=actions,
    )
    try:
        program = compile_schedule(schedule)
    except ExecutionError as exc:
        raise ScheduleError(f"program payload does not compile: {exc}") from exc
    if program.digest != payload["digest"]:
        raise ScheduleError("program payload failed its content digest check")
    return program


def byte_peaks(
    program: CompiledProgram,
    act_bytes,
    grad_bytes=None,
    stored_bytes=None,
) -> tuple[int, int]:
    """``(peak_slot_bytes, peak_bytes)`` of running ``program``.

    ``act_bytes[k]`` is the size of activation ``x_k``, ``k = 0..l``.
    The live set is the occupied slots plus the cursor's activation,
    charged at the start (the cursor holds ``x_0``), after every action,
    and at every activation an ADVANCE passes through.

    ``grad_bytes[k]``, when given, is the size of the gradient with
    respect to ``x_k`` (0 where there is none).  The live set then also
    holds the flowing gradient (``dL/dx_{step-1}`` after
    ``ADJOINT(step)``), and the head adjoint charges its transients
    beside the slots and the cursor: the replayed output ``x_l``, then
    the loss gradient.  Without it this is the paper's slots-plus-cursor
    count.

    ``stored_bytes[row]``, when given, is what the slot of a SNAPSHOT
    or FREE row holds (a compressed-band slot stores the codec's output,
    not the activation); by default a slot holds its activation's size.
    Every slot counts as live, whatever its storage tier.

    A slot and the cursor holding the same array (right after a
    SNAPSHOT or RESTORE) are both charged, in both counts.

    Each call makes a few ``int64`` arrays of the program's length; the
    program-only index arrays are cached on ``program``.
    """
    act = np.asarray(act_bytes, dtype=np.int64)
    if stored_bytes is None:
        stored_bytes = act[program.aux]
    slot_t = stored_bytes * program.slot_sign
    np.cumsum(slot_t, out=slot_t)
    live = act[program.cursor_after]
    interior = np.maximum.reduceat(np.append(act, 0), program.adv_bounds)
    live[program.adv_rows] = interior[0::2]
    live += slot_t
    peak = int(act[0])
    if grad_bytes is not None:
        grad = np.asarray(grad_bytes, dtype=np.int64)
        l = program.length
        # flow[b]: the gradient held after b backwards, dL/dx_{l-b}.
        flow = np.concatenate(([0], grad[l - 1 :: -1]))
        live += flow[program.backwards_cum]
        head = int(program.backwards_cum.searchsorted(1))  # ADJOINT(l)
        peak = max(peak, int(slot_t[head] + act[l - 1] + max(act[l], grad[l])))
    return max(0, int(slot_t.max())), max(peak, int(live.max()))

