"""Joint rematerialization + paging: one DP over recompute *and* tier.

The pure families answer "where does this activation live?" by fiat —
``revolve`` keeps everything in RAM and recomputes.  POET
(see PAPERS.md) frames the two as one optimization: per step, either
recompute an activation when it is needed again, or page it to a storage
tier, under a pluggable objective (wall time, energy).  This module is
that planner for the segment-structured schedules our VM executes.

Model
-----

A plan is a chain of *paged segments*: split positions
``0 = p_0 < p_1 < ... < p_k < l`` with a tier choice ``t_i`` per split.
The forward sweep writes ``x_{p_i}`` to tier ``t_i``; segments are then
reversed right to left, each one a pure in-RAM reversal by one
:class:`~repro.checkpointing.dynprog.SlotSegmentDP` — a
:class:`~repro.checkpointing.revolve.RevolveDP` (closed form) when every
step costs the same — after one read of its base, except the rightmost,
whose base is still in the cursor.  With ``F(b, t)`` the optimal cost
of reversing the suffix ``[b, l)`` given ``x_b`` already written to
tier ``t``:

    F(b, t) = min( inner(b, l),
                   min_{b<m<l, u} [ adv(b, m) + W_u(m) + F(m, u)
                                      + R_t(b) + inner(b, m) ] )

    joint = min( inner(0, l),  min_t [ W_t(0) + F(0, t) ] )

``inner(i, j)`` is the optimal pure-RAM reversal of segment ``[i, j)``
with the ``c``-slot budget; ``W``/``R`` are the objective's per-tier
write/read prices; ``adv`` its advance price.  The option set strictly
contains both pure Revolve (the first branch) and every disk-revolve
plan (unit prices recover Aupy et al.'s ``DR`` recurrence exactly), so
the joint optimum weakly dominates both *by construction* — and beats
them strictly whenever real :class:`~repro.edge.storage.StorageProfile`
prices diverge from the abstract unit costs the pure families assume.

Disk-revolve
------------

The paper's reference [1] is INRIA's disk-revolve: ``c_m`` RAM slots
plus an unbounded disk tier priced ``write_cost`` / ``read_cost`` per
access in forward units.  On a homogeneous chain that is this DP under
:class:`UnitCostObjective`, so :func:`disk_revolve_cost`,
:func:`disk_revolve_splits` and :func:`disk_revolve_schedule` are
presets over :func:`joint_plan` / :func:`joint_schedule`.  Free disk
(w = r = 0) degenerates to the store-everything sweep ``l − 1``;
infinitely expensive disk to ``P(l, c_m)``.

Objectives
----------

:class:`UnitCostObjective` prices I/O in forward units (the
disk-revolve convention), :class:`TimeObjective` in seconds through a
storage profile's read/write paths, :class:`EnergyObjective` in joules —
compute energy per forward unit plus rail power held during storage
transfers (the paper's duty-cycle framing: the node cannot sleep while a
checkpoint is in flight).  Anything with ``step_cost`` / ``write_cost``
/ ``read_cost`` / ``paged_tiers`` plugs in.

Compression — the third action
------------------------------

Giving an objective a :class:`~repro.edge.storage.CompressionModel`
doubles its split alphabet: every paged tier gains a *compressed*
variant (BitTrain/POET's framing — per split the planner now chooses
recompute vs page vs page-compressed).  A compressed write moves
``codec.compressed_bytes(size)`` through the storage profile and pays
the codec's encode seconds; a compressed read mirrors it.  Plain tiers
are tried first, so under the identity codec (ratio 1, zero cost) every
tie breaks to the uncompressed variant and the plan collapses exactly
to the codec-less one.  :func:`joint_schedule` emits compressed splits
through the compressed slot band
(:func:`~repro.checkpointing.actions.compressed_slot`), so a
:class:`~repro.engine.compressed.CompressedBackend` with the same
profile and codec reproduces the planned cost exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import PlanningError, ScheduleError
from .actions import (
    TIER_DISK,
    TIER_RAM,
    Action,
    advance,
    compressed_slot,
    free,
    restore,
    snapshot,
    tier_name,
    tier_slot,
)
from .chainspec import ChainSpec
from .dynprog import SlotSegmentDP
from .revolve import RevolveDP
from .schedule import Schedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..edge.storage import CompressionModel, StorageProfile

__all__ = [
    "JointObjective",
    "UnitCostObjective",
    "TimeObjective",
    "EnergyObjective",
    "JointPlan",
    "joint_plan",
    "joint_cost",
    "joint_schedule",
    "disk_revolve_cost",
    "disk_revolve_splits",
    "disk_revolve_schedule",
]

_INF = float("inf")
_TOL = 1e-12

#: Bit flagging a DP tier code as "store compressed on that tier".  The
#: codes are planner-internal — :func:`joint_schedule` lowers them to
#: the shared slot alphabet's compressed band on emission.
_ZIP_FLAG = 1 << 8


def _zip_tier(tier: int) -> int:
    """DP code for the compressed variant of a storage tier."""
    return tier | _ZIP_FLAG


def _tier_store(code: int) -> int:
    """Storage tier of a DP tier code (compression bit stripped)."""
    return code & ~_ZIP_FLAG


def _tier_zipped(code: int) -> bool:
    """Whether a DP tier code carries the compression bit."""
    return bool(code & _ZIP_FLAG)


def _default_disk() -> "StorageProfile":
    from ..edge.storage import SD_CARD

    return SD_CARD


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------


class JointObjective:
    """Prices the joint DP's three primitives on one chain.

    Subclasses set :attr:`label` and implement :meth:`step_cost`,
    :meth:`write_cost` and :meth:`read_cost`; advance prices derive from
    the per-step costs.  All built-in objectives price a step
    proportionally to ``spec.fwd_cost`` (constant factor), so the
    optimal *structure* found in objective units is also optimal in raw
    forward units whenever the prices coincide up to scale.
    """

    label: str = "?"
    #: optional codec; setting it doubles :attr:`paged_tiers` with
    #: compressed variants (see the module docstring)
    codec: "CompressionModel | None" = None

    def __init__(self, spec: ChainSpec) -> None:
        self.spec = spec
        prefix = [0.0]
        for k in range(1, spec.length + 1):
            prefix.append(prefix[-1] + self.step_cost(k))
        self._prefix = tuple(prefix)

    # -- required ---------------------------------------------------------
    def step_cost(self, k: int) -> float:
        """Objective cost of one execution of ``F_k`` (``k`` in 1..l)."""
        raise NotImplementedError

    def write_cost(self, tier: int, index: int) -> float:
        """Cost of writing ``x_index`` to ``tier``."""
        raise NotImplementedError

    def read_cost(self, tier: int, index: int) -> float:
        """Cost of reading ``x_index`` back from ``tier``."""
        raise NotImplementedError

    # -- shared -----------------------------------------------------------
    @property
    def paged_tiers(self) -> tuple[int, ...]:
        """Tier codes the planner may page to (RAM is always implicit).

        Plain tiers come first so that, on exact ties, the DP's
        strict-improvement rule keeps the uncompressed variant — the
        lossless-collapse guarantee.
        """
        base = (TIER_DISK,)
        if self.codec is None:
            return base
        return base + tuple(_zip_tier(t) for t in base)

    def advance_cost(self, i: int, j: int) -> float:
        """Objective cost of advancing the cursor from ``x_i`` to ``x_j``."""
        return self._prefix[j] - self._prefix[i]

    @property
    def uniform_step(self) -> float | None:
        """The common per-step cost, or ``None`` when steps differ."""
        costs = {self.step_cost(k) for k in range(1, self.spec.length + 1)}
        return next(iter(costs)) if len(costs) == 1 else None


class UnitCostObjective(JointObjective):
    """Abstract pricing in forward units — the disk-revolve convention.

    A step costs its ``fwd_cost`` entry; any paged write/read costs a
    flat ``write_cost`` / ``read_cost`` regardless of size.  On a
    homogeneous chain this is disk-revolve's pricing:
    :func:`disk_revolve_cost` and its siblings are presets over it.
    Prices must be non-negative (``inf`` allowed, NaN rejected).
    """

    def __init__(
        self,
        spec: ChainSpec,
        write_cost: float = 1.0,
        read_cost: float = 1.0,
        codec: "CompressionModel | None" = None,
    ) -> None:
        # Written so that NaN fails too (every comparison with NaN is false).
        if not (write_cost >= 0 and read_cost >= 0):
            raise PlanningError("paging costs must be non-negative")
        self._write = write_cost
        self._read = read_cost
        self.codec = codec
        self.label = f"unit(w={write_cost:g},r={read_cost:g})"
        if codec is not None:
            self.label = f"unit(w={write_cost:g},r={read_cost:g},zip={codec.name})"
        super().__init__(spec)

    def step_cost(self, k: int) -> float:
        return self.spec.fwd_cost[k - 1]

    def write_cost(self, tier: int, index: int) -> float:
        # Abstract units are byte-proportional: a compressed page moves
        # ``ratio`` of the bytes, codec CPU is free in this currency.
        if _tier_zipped(tier):
            return self._write * self.codec.ratio
        return 0.0 if tier == TIER_RAM else self._write

    def read_cost(self, tier: int, index: int) -> float:
        if _tier_zipped(tier):
            return self._read * self.codec.ratio
        return 0.0 if tier == TIER_RAM else self._read


class TimeObjective(JointObjective):
    """Wall-clock pricing: steps in seconds, I/O through a storage profile.

    ``unit_seconds`` converts ``spec.fwd_cost`` units (e.g. FLOPs) to
    seconds; paged transfers are priced by the profile's
    ``write_seconds`` / ``read_seconds`` of the activation's true byte
    size — the same accounting :class:`~repro.engine.tiered.TieredBackend`
    charges when the schedule actually executes, so planned and measured
    wall time agree exactly.
    """

    def __init__(
        self,
        spec: ChainSpec,
        disk: "StorageProfile | None" = None,
        unit_seconds: float = 1.0,
        codec: "CompressionModel | None" = None,
    ) -> None:
        if not unit_seconds > 0:  # NaN fails too
            raise PlanningError("unit_seconds must be positive")
        self.disk = disk if disk is not None else _default_disk()
        self.unit_seconds = unit_seconds
        self.codec = codec
        self.label = f"time({self.disk.name})"
        if codec is not None:
            self.label = f"time({self.disk.name}+{codec.name})"
        super().__init__(spec)

    def step_cost(self, k: int) -> float:
        return self.spec.fwd_cost[k - 1] * self.unit_seconds

    def write_cost(self, tier: int, index: int) -> float:
        raw = self.spec.act_bytes[index]
        if _tier_zipped(tier):
            # Same accounting CompressedBackend charges when executing:
            # the shrunk payload through the storage path plus the codec.
            return (
                self.disk.write_seconds(self.codec.compressed_bytes(raw))
                + self.codec.compress_seconds(raw)
            )
        if tier == TIER_RAM:
            return 0.0
        return self.disk.write_seconds(raw)

    def read_cost(self, tier: int, index: int) -> float:
        raw = self.spec.act_bytes[index]
        if _tier_zipped(tier):
            return (
                self.disk.read_seconds(self.codec.compressed_bytes(raw))
                + self.codec.decompress_seconds(raw)
            )
        if tier == TIER_RAM:
            return 0.0
        return self.disk.read_seconds(raw)


class EnergyObjective(JointObjective):
    """Energy pricing: compute joules per step, rail power during I/O.

    A forward unit costs ``compute_j_per_unit`` joules (default: the
    :class:`~repro.edge.power.EnergyModel` per-FLOP coefficient, for
    chains whose ``fwd_cost`` is in FLOPs).  A paged transfer holds the
    node awake for the profile's transfer seconds at ``io_w`` watts —
    the duty-cycle framing: storage I/O draws far less than a busy core,
    but the rail cannot gate off while a checkpoint is in flight
    (default: the energy model's idle draw).
    """

    def __init__(
        self,
        spec: ChainSpec,
        disk: "StorageProfile | None" = None,
        compute_j_per_unit: float | None = None,
        io_w: float | None = None,
        codec: "CompressionModel | None" = None,
    ) -> None:
        from ..edge.power import EnergyModel

        model = EnergyModel()
        if compute_j_per_unit is None:
            compute_j_per_unit = model.compute_j_per_flop
        if io_w is None:
            io_w = model.idle_w
        if not (compute_j_per_unit >= 0 and io_w >= 0):  # NaN fails too
            raise PlanningError("energy coefficients must be non-negative")
        self.disk = disk if disk is not None else _default_disk()
        self.compute_j_per_unit = compute_j_per_unit
        self.io_w = io_w
        self.codec = codec
        self.label = f"energy({self.disk.name})"
        if codec is not None:
            self.label = f"energy({self.disk.name}+{codec.name})"
        super().__init__(spec)

    def step_cost(self, k: int) -> float:
        return self.spec.fwd_cost[k - 1] * self.compute_j_per_unit

    def write_cost(self, tier: int, index: int) -> float:
        raw = self.spec.act_bytes[index]
        if _tier_zipped(tier):
            # The rail stays awake through the storage transfer *and*
            # the codec pass (the codec runs on-node, same duty-cycle
            # framing as the I/O itself).
            seconds = (
                self.disk.write_seconds(self.codec.compressed_bytes(raw))
                + self.codec.compress_seconds(raw)
            )
            return self.io_w * seconds
        if tier == TIER_RAM:
            return 0.0
        return self.io_w * self.disk.write_seconds(raw)

    def read_cost(self, tier: int, index: int) -> float:
        raw = self.spec.act_bytes[index]
        if _tier_zipped(tier):
            seconds = (
                self.disk.read_seconds(self.codec.compressed_bytes(raw))
                + self.codec.decompress_seconds(raw)
            )
            return self.io_w * seconds
        if tier == TIER_RAM:
            return 0.0
        return self.io_w * self.disk.read_seconds(raw)


# ---------------------------------------------------------------------------
# The planner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JointPlan:
    """Outcome of :func:`joint_plan`.

    ``splits`` lists ``(position, tier code)`` pairs in ascending
    position order — including ``(0, t)`` for the chain input when the
    plan pages at all; an empty tuple means pure in-RAM Revolve.  A tier
    code is the storage tier, optionally flagged compressed (codec-armed
    objectives only).  ``cost`` is in the objective's units and is
    exactly what executing the emitted schedule on a matching
    :class:`~repro.engine.tiered.TieredBackend` (or
    :class:`~repro.engine.compressed.CompressedBackend`) measures (pure
    advances priced per step plus every paged transfer).
    """

    objective: str
    length: int
    slots: int
    cost: float
    splits: tuple[tuple[int, int], ...]

    @property
    def paged(self) -> bool:
        return bool(self.splits)

    @property
    def tiers_used(self) -> tuple[int, ...]:
        """Storage tiers paged to (compression bit stripped)."""
        return tuple(sorted({_tier_store(t) for _, t in self.splits}))

    @property
    def compressed_splits(self) -> int:
        """How many splits are stored through the codec."""
        return sum(1 for _, t in self.splits if _tier_zipped(t))


def _make_inner(spec: ChainSpec, c: int, objective: JointObjective) -> SlotSegmentDP:
    """The in-RAM segment reversal: Revolve's closed form on uniform steps."""
    unit = objective.uniform_step
    if unit is not None:
        return RevolveDP(spec.length, c, unit)
    return SlotSegmentDP(tuple(objective.step_cost(k) for k in range(1, spec.length + 1)))


def _solve(spec: ChainSpec, c: int, objective: JointObjective):
    """Bottom-up outer DP; returns (cost, splits, inner solver)."""
    if c < 1:
        raise ScheduleError("slot count must be >= 1")
    if objective.spec is not spec and objective.spec != spec:
        raise PlanningError("objective was built for a different chain")
    l = spec.length
    inner = _make_inner(spec, c, objective)
    tiers = objective.paged_tiers
    # table[(b, t)] = (cost of reversing [b, l) with x_b on tier t,
    #                  first further split m or 0, its tier or -1)
    table: dict[tuple[int, int], tuple[float, int, int]] = {}
    suffix_inner = [inner.cost(b, l, c) for b in range(l + 1)]
    for b in range(l - 1, -1, -1):
        for t in tiers:
            best, best_m, best_u = suffix_inner[b], 0, -1
            read_b = objective.read_cost(t, b)
            for m in range(b + 1, l):
                base = (
                    objective.advance_cost(b, m)
                    + read_b
                    + inner.cost(b, m, c)
                )
                for u in tiers:
                    val = base + objective.write_cost(u, m) + table[(m, u)][0]
                    if val < best - _TOL:
                        best, best_m, best_u = val, m, u
            table[(b, t)] = (best, best_m, best_u)

    best, t0 = suffix_inner[0], -1
    for t in tiers:
        val = objective.write_cost(t, 0) + table[(0, t)][0]
        if val < best - _TOL:
            best, t0 = val, t

    splits: list[tuple[int, int]] = []
    if t0 >= 0:
        b, t = 0, t0
        while True:
            splits.append((b, t))
            _, m, u = table[(b, t)]
            if m == 0:
                break
            b, t = m, u
    return best, tuple(splits), inner


def joint_plan(
    spec: ChainSpec, c: int, objective: JointObjective | None = None
) -> JointPlan:
    """Optimal joint rematerialization+paging plan for ``spec``.

    ``c`` is the RAM slot budget (Revolve's convention — it includes the
    slot holding the active segment's base); paged tiers have unbounded
    slots, priced per access by the objective.  Defaults to
    :class:`UnitCostObjective` (disk-revolve's abstract pricing).
    """
    if objective is None:
        objective = UnitCostObjective(spec)
    cost, splits, _ = _solve(spec, c, objective)
    return JointPlan(
        objective=objective.label,
        length=spec.length,
        slots=c,
        cost=cost,
        splits=splits,
    )


def joint_cost(
    spec: ChainSpec, c: int, objective: JointObjective | None = None
) -> float:
    """Objective cost of the optimal joint plan (see :func:`joint_plan`)."""
    return joint_plan(spec, c, objective).cost


def joint_schedule(
    spec: ChainSpec,
    c: int,
    objective: JointObjective | None = None,
    family: str = "joint_time",
) -> Schedule:
    """Executable schedule achieving :func:`joint_cost`.

    Paged checkpoints use the shared tier-aware slot alphabet
    (:func:`~repro.checkpointing.actions.tier_slot` — split ``i`` on
    tier ``t`` lives in slot ``t·stride + i``, compressed splits in the
    compressed band on top); RAM slots stay ``0 .. c-1`` with slot 0
    parking the active segment's base, exactly the disk-revolve layout.
    Executing it on a :class:`~repro.engine.tiered.TieredBackend` (or,
    for codec-armed objectives, a
    :class:`~repro.engine.compressed.CompressedBackend`) whose profiles
    match the objective reproduces the planned cost
    measurement-for-measurement.
    """
    if objective is None:
        objective = UnitCostObjective(spec)
    l = spec.length
    cost, splits, inner = _solve(spec, c, objective)
    label = f"{family}(c={c})"
    actions: list[Action] = []

    def reverse(i: int, j: int) -> int:
        # Revolve caps a segment's budget and pool at the useful slot
        # count; the segment DP draws on the full budget (hetero_schedule's
        # convention).  Slot ids are part of the action stream.
        c_seg = min(c, max(1, j - i - 1)) if isinstance(inner, RevolveDP) else c
        inner.emit(actions, i, j, c_seg, 0, list(range(1, c_seg)))
        return c_seg

    if not splits:
        actions.append(snapshot(0))
        c_eff = reverse(0, l)
        return Schedule(strategy=label, length=l, slots=c_eff, actions=tuple(actions))

    positions = [p for p, _ in splits]
    seg_ends = positions[1:] + [l]
    # Lower DP tier codes to the shared slot alphabet: split i on tier t
    # lives in slot t·stride + i, pushed into the compressed band when
    # the planner chose the codec variant.
    paged_slots = [
        compressed_slot(tier_slot(_tier_store(t), i))
        if _tier_zipped(t)
        else tier_slot(_tier_store(t), i)
        for i, (_, t) in enumerate(splits)
    ]

    # Forward phase: page x_0 and every split point out.
    actions.append(snapshot(paged_slots[0]))
    for i in range(1, len(splits)):
        actions.append(advance(positions[i]))
        actions.append(snapshot(paged_slots[i]))

    # Backward phase, rightmost segment first; every segment but the
    # rightmost pays one paged read to bring its base back.  The base is
    # then parked in RAM slot 0 (free — same tier as the cursor) so the
    # in-RAM reversal can re-advance from it.
    for i in range(len(splits) - 1, -1, -1):
        base, end = positions[i], seg_ends[i]
        if i < len(splits) - 1:
            actions.append(restore(paged_slots[i]))
        actions.append(snapshot(0))
        reverse(base, end)
        actions.append(free(0))
        actions.append(free(paged_slots[i]))

    return Schedule(
        strategy=label,
        length=l,
        slots=max(paged_slots) + 1,
        actions=tuple(actions),
    )


# ---------------------------------------------------------------------------
# Disk-revolve: the unit-price preset
# ---------------------------------------------------------------------------


def _disk_revolve_objective(
    l: int, c_m: int, write_cost: float, read_cost: float
) -> UnitCostObjective:
    if l < 1 or c_m < 1:
        raise ScheduleError("require l >= 1 and c_m >= 1")
    if not (write_cost >= 0 and read_cost >= 0):  # NaN fails too
        raise ScheduleError("disk costs must be non-negative")
    return UnitCostObjective(ChainSpec.homogeneous(l), write_cost, read_cost)


def disk_revolve_cost(
    l: int, c_m: int, write_cost: float = 1.0, read_cost: float = 1.0
) -> float:
    """Optimal total cost: pure forwards + all disk I/O, in forward units.

    Includes the one-off ``x_0`` write whenever the plan uses the disk.
    """
    obj = _disk_revolve_objective(l, c_m, write_cost, read_cost)
    return joint_plan(obj.spec, c_m, obj).cost


def disk_revolve_splits(
    l: int, c_m: int, write_cost: float = 1.0, read_cost: float = 1.0
) -> list[int]:
    """Disk-checkpoint positions (absolute indices), left to right."""
    obj = _disk_revolve_objective(l, c_m, write_cost, read_cost)
    # The plan's first split is x_0 itself whenever it pages at all.
    return [p for p, _ in joint_plan(obj.spec, c_m, obj).splits[1:]]


def disk_revolve_schedule(
    l: int, c_m: int, write_cost: float = 1.0, read_cost: float = 1.0
) -> Schedule:
    """Executable two-tier schedule achieving :func:`disk_revolve_cost`.

    Slot ``DISK_SLOT_BASE + i`` holds the i-th disk-resident activation
    (``x_0`` plus the split points); RAM slots are ``0 .. c_m-1``.  When
    the plan takes no splits the actions are exactly classic Revolve's.
    """
    obj = _disk_revolve_objective(l, c_m, write_cost, read_cost)
    return joint_schedule(obj.spec, c_m, obj, family="disk_revolve")
