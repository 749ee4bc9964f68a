"""The tensor backend's byte model against the frozen metered backend.

``TensorBackend`` takes its peaks from the byte model every backend
shares (:func:`repro.engine.program.byte_peaks` over the compiled
program, with the gradient term on).  The backend it replaced tracked
the same bytes with named ``MemoryMeter`` calls; it is frozen in
``tests/tensor_backend_reference.py``.  For nets whose activation and
gradient sizes differ from step to step, and for every registry family
plus the valid survivors of the schedule-fuzzing mutations and a few
hand-built schedules, both must
report the same ``RunStats``, the same per-action bytes and the same
loss and gradients, byte for byte.
"""

import dataclasses

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from repro.autodiff import (
    BatchNormLayer,
    ConvLayer,
    DenseLayer,
    FlattenLayer,
    MaxPoolLayer,
    ReLULayer,
    ResidualBlockLayer,
    SequentialNet,
)
from repro.checkpointing import Schedule
from repro.checkpointing.actions import Action, ActionKind
from repro.checkpointing.strategies import available_strategies, get_strategy
from repro.engine import TensorBackend, compile_schedule, execute
from repro.errors import ExecutionError

from .tensor_backend_reference import ReferenceTensorBackend
from .test_schedule_fuzzing import mutate

FAMILIES = available_strategies()

#: Net kinds: unequal dense widths; float32 input into float64 layers
#: (gradient sizes differ from activation sizes); conv/BN/pool/residual.
NETS = ("dense", "f32", "conv")
MIN_DEPTH = {"dense": 2, "f32": 2, "conv": 7}


class _Reference(ReferenceTensorBackend):
    """The frozen backend, adapted to ``begin(program)``."""

    def begin(self, program):
        super().begin()


def _build(kind: str, l: int, seed: int):
    """A depth-``l`` net, a batch and labels."""
    rng = np.random.default_rng(seed)
    layers = []
    if kind == "conv":
        x = rng.standard_normal((2, 3, 6, 6))
        layers = [
            ConvLayer(3, 4, 3, rng, padding=1, name="c0"),
            BatchNormLayer(4, name="bn0"),
            ReLULayer(name="r0"),
            MaxPoolLayer(2, name="pool"),
            ResidualBlockLayer(
                [ConvLayer(4, 4, 3, rng, padding=1, name="c"),
                 BatchNormLayer(4, name="bn"), ReLULayer(name="r")],
                name="res",
            ),
            FlattenLayer(name="flat"),
        ]
        width = 4 * 3 * 3
    else:
        width = 3
        x = rng.standard_normal((4, width))
        if kind == "f32":
            x = x.astype(np.float32)
    dense = True
    while len(layers) < l - 1:
        if dense:
            out = int(rng.integers(1, 40))
            layers.append(DenseLayer(width, out, rng, name=f"d{len(layers)}"))
            width = out
        else:
            layers.append(ReLULayer(name=f"r{len(layers)}"))
        dense = not dense
    classes = int(rng.integers(2, 60))
    layers.append(DenseLayer(width, classes, rng, name="head"))
    labels = rng.integers(0, classes, size=x.shape[0])
    return SequentialNet(layers), x, labels


def _run(backend_cls, schedule, net, x, labels, traced):
    backend = backend_cls(net, x, labels)
    steps = []
    hook = None
    if traced:
        def hook(step):
            steps.append(dataclasses.replace(step, started=0.0))
    run = execute(schedule, backend, on_step=hook)
    return backend, run, steps


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


#: Hand-built schedules.  On planner schedules and fuzz survivors the
#: tensor peak is never set inside an ADVANCE; here it is, when an
#: advance in the reverse phase runs past a wide activation while a slot
#: and the flowing gradient are held.
HAND = (
    (2, "S0 A1 J2 R0 S1 A2 R0 J1"),
    (3, "S0 A1 S1 A3 R1 F1 A2 J3 R0 A1 J2 R0 F0 J1"),
)
_KINDS = {
    "S": ActionKind.SNAPSHOT,
    "R": ActionKind.RESTORE,
    "F": ActionKind.FREE,
    "A": ActionKind.ADVANCE,
    "J": ActionKind.ADJOINT,
}


def _hand(index: int) -> Schedule:
    l, text = HAND[index]
    actions = tuple(Action(_KINDS[tok[0]], int(tok[1:])) for tok in text.split())
    return Schedule(strategy="hand", length=l, slots=2, actions=actions)


def _schedule(source, l: int) -> Schedule:
    """The schedule ``source`` names, or reject the draw."""
    if source[0] == "hand":
        return _hand(source[1])
    _, family, c, mutation = source
    strat = get_strategy(family)
    assume(strat.feasible(l, c))
    schedule = strat.schedule(l, c)
    if mutation is None:
        return schedule
    schedule = Schedule(
        strategy="mutated",
        length=l,
        slots=schedule.slots + 8,
        actions=mutate(schedule.actions, *mutation),
    )
    try:
        compile_schedule(schedule)
    except ExecutionError:
        assume(False)
    return schedule


_MUTATIONS = st.tuples(st.integers(0, 3), st.integers(0, 200), st.integers(0, 5))


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(
    net_depth=st.sampled_from(NETS).flatmap(
        lambda kind: st.tuples(st.just(kind), st.integers(MIN_DEPTH[kind], 10))
    ),
    source=st.one_of(
        st.tuples(
            st.just("family"), st.sampled_from(FAMILIES), st.integers(1, 6),
            st.none() | _MUTATIONS,
        ),
        st.tuples(st.just("hand"), st.integers(0, len(HAND) - 1)),
    ),
    seed=st.integers(0, 2**16),
)
# A wide x_1 (32 columns) beside a narrower head output (21 classes):
# the first hand schedule peaks inside its reverse-phase ADVANCE.
@example(net_depth=("dense", 2), source=("hand", 0), seed=1)
def test_matches_metered_reference(net_depth, source, seed):
    kind, l = net_depth
    schedule = _schedule(source, l)
    assume(schedule.length >= MIN_DEPTH[kind])
    net, x, labels = _build(kind, schedule.length, seed)

    for traced in (False, True):
        ref, ref_run, ref_steps = _run(_Reference, schedule, net, x, labels, traced)
        new, new_run, new_steps = _run(TensorBackend, schedule, net, x, labels, traced)
        assert new_run == ref_run
        assert new_steps == ref_steps
        assert np.float64(new.loss_value).tobytes() == np.float64(ref.loss_value).tobytes()
        assert new.grads.keys() == ref.grads.keys()
        assert all(_same_bytes(new.grads[k], ref.grads[k]) for k in ref.grads)
