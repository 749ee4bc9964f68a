"""The four benchmark workloads and the per-layer spans each installs.

Every workload runs in phases: set-up (repeated, median reported),
one untimed warm-up step or plan, a timed window, correctness checks,
and, in untraced runs, one extra untimed step or plan under
``tracemalloc`` for the allocator peak.  A traced run splits its window
into an untraced half and a traced half, so the tracing overhead is
measured in the same process on the same state.

Training workloads time each optimizer step through ``Trainer.fit``'s
``on_step`` hook and report ``batch / fastest step``; the planning
workload times each of its four plans in every round and reports
``4 / (sum of each plan's fastest time)``.  The fastest repeat is the
estimator for the same reason ``timeit`` uses it: on a shared host,
other tenants only ever slow a step down (by up to 1.6x for phases of
tens of seconds on the 2-core host this was tuned on), so the fastest
repeat is the one least disturbed, and it was the steadiest statistic
across runs.
"""

from __future__ import annotations

import math
import statistics
import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable

import numpy as np

from spans import SpanRecorder

__all__ = ["WORKLOADS", "Checks", "run_workload"]

#: Samples per optimizer step on every training workload.
BATCH = 32
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: ``(family, slots)`` of one planning round on the ResNet-152 chain.
PLAN_ROUND = (("hetero", 3), ("hetero", 4), ("hetero", 6), ("joint_time", 4))
#: Relative tolerance for "planned cost equals measured cost".
COST_RTOL = 1e-9


class Checks:
    """Correctness checks counted against the number attempted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


class _WindowClosed(Exception):
    """Raised from ``on_step`` to end a ``Trainer.fit`` call."""


# ---------------------------------------------------------------------------
# Networks and data
# ---------------------------------------------------------------------------


def _resnet(rng: np.random.Generator):
    """Conv stem + BN + ReLU, 6 residual blocks x 16 channels, pool, head."""
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

    ch = 16
    layers = [
        ConvLayer(3, ch, 3, rng, padding=1, name="stem"),
        BatchNormLayer(ch, name="stem_bn"),
        ReLULayer("stem_relu"),
    ]
    for b in range(6):
        body = [
            ConvLayer(ch, ch, 3, rng, padding=1, name=f"b{b}c1"),
            BatchNormLayer(ch, name=f"b{b}bn1"),
            ReLULayer(f"b{b}r"),
            ConvLayer(ch, ch, 3, rng, padding=1, name=f"b{b}c2"),
            BatchNormLayer(ch, name=f"b{b}bn2"),
        ]
        layers.append(ResidualBlockLayer(body, name=f"block{b}"))
    layers += [
        MaxPoolLayer(2, "pool"),
        FlattenLayer("flat"),
        DenseLayer(ch * 8 * 8, 4, rng, "head"),
    ]
    return SequentialNet(layers, name="resnet6x16")


def _resnet_data(rng: np.random.Generator, per_class: int):
    from repro.autodiff import image_blobs

    return image_blobs(per_class, 4, 16, rng, channels=3)


def _mlp(rng: np.random.Generator):
    """128-step chain: dense(16->64), then ReLU/dense(64->64) pairs, dense head."""
    from repro.autodiff import DenseLayer, ReLULayer, SequentialNet

    width, depth = 64, 128
    layers = [DenseLayer(16, width, rng, "in")]
    for i in range(1, depth - 1):
        layers.append(ReLULayer(f"r{i}") if i % 2 else DenseLayer(width, width, rng, f"d{i}"))
    layers.append(DenseLayer(width, 4, rng, "head"))
    return SequentialNet(layers, name="mlp128x64")


def _mlp_data(rng: np.random.Generator, per_class: int):
    from repro.autodiff import gaussian_blobs

    return gaussian_blobs(per_class, 4, 16, rng)


@dataclass(frozen=True)
class TrainWorkload:
    name: str
    build_net: Callable
    make_data: Callable
    #: registered strategy family, or None for the store-all fast path
    strategy: str | None
    slots: int | None
    lr: float


@dataclass(frozen=True)
class PlanWorkload:
    name: str


WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload("train_resnet_revolve", _resnet, _resnet_data, "revolve", 2, 0.01),
        TrainWorkload("train_resnet_store_all", _resnet, _resnet_data, None, None, 0.01),
        TrainWorkload("train_mlp_deep", _mlp, _mlp_data, "revolve", 8, 0.001),
        PlanWorkload("plan_resnet152"),
    )
}


# ---------------------------------------------------------------------------
# Spans: where each layer's public entry points are looked up
# ---------------------------------------------------------------------------


def _conv_fwd_work(rec: SpanRecorder, args, out) -> None:
    x, weight, bias = args[0], args[1], args[2]
    n, o, oh, ow = out.shape
    _, c, kh, kw = weight.shape
    rec.counts["ops.conv.flops"] += 2 * n * o * c * kh * kw * oh * ow
    rec.counts["ops.conv.bytes"] += (
        x.nbytes + weight.nbytes + (0 if bias is None else bias.nbytes) + out.nbytes
    )


def _conv_bwd_work(rec: SpanRecorder, args, out) -> None:
    x, weight, dy = args[0], args[1], args[2]
    dx, dweight, dbias = out
    n, o, oh, ow = dy.shape
    _, c, kh, kw = weight.shape
    # dweight and dcols are one GEMM each of the forward's size.
    rec.counts["ops.conv.flops"] += 4 * n * o * c * kh * kw * oh * ow
    rec.counts["ops.conv.bytes"] += (
        x.nbytes + weight.nbytes + dy.nbytes + dx.nbytes + dweight.nbytes
        + (0 if dbias is None else dbias.nbytes)
    )


def _execute_work(rec: SpanRecorder, args, run) -> None:
    rec.counts["engine.actions"] += len(args[0].actions)
    rec.counts["ckpt.forward_steps"] += run.forward_steps


def _store_all_work(rec: SpanRecorder, args, _result) -> None:
    # The store-all step is one forward sweep of every chain step.
    rec.counts["ckpt.forward_steps"] += len(args[0])


def install_train_spans(rec: SpanRecorder) -> None:
    """Spans for the tensor path: ops, layers, meter, engine, optim, trainer."""
    from repro.autodiff import blocks, layers, meter, network, ops, optim, trainer
    from repro.engine import tensor, vm

    # ``layers`` binds the conv/pool kernels at import; ``ops`` calls
    # im2col/col2im as its own module globals.
    rec.wrap(layers, "conv2d_forward", "ops.conv_fwd", _conv_fwd_work)
    rec.wrap(layers, "conv2d_backward", "ops.conv_bwd", _conv_bwd_work)
    rec.wrap(layers, "maxpool2d_forward", "ops.pool")
    rec.wrap(layers, "maxpool2d_backward", "ops.pool")
    rec.wrap(ops, "im2col", "ops.im2col")
    rec.wrap(ops, "col2im", "ops.col2im")
    for cls, name in (
        (layers.BatchNormLayer, "layers.bn"),
        (layers.DenseLayer, "layers.dense"),
        (layers.ReLULayer, "layers.elementwise"),
        (layers.FlattenLayer, "layers.elementwise"),
        (blocks.ResidualBlockLayer, "layers.residual"),
    ):
        rec.wrap(cls, "forward", name)
        rec.wrap(cls, "backward", name)
    rec.wrap(meter.MemoryMeter, "hold", "meter")
    rec.wrap(meter.MemoryMeter, "release", "meter")
    # ``run_schedule`` imports ``execute`` from the vm module per call.
    rec.wrap(vm, "execute", "engine.vm", _execute_work)
    rec.wrap(tensor.TensorBackend, "advance", "engine.backend.advance")
    rec.wrap(tensor.TensorBackend, "adjoint", "engine.backend.adjoint")
    for attr in ("snapshot", "restore", "free"):
        rec.wrap(tensor.TensorBackend, attr, "engine.backend.slot")
    rec.wrap(network.SequentialNet, "train_step", "net.train_step", _store_all_work)
    rec.wrap(optim.SGD, "step", "optim.step")
    rec.wrap(trainer.Trainer, "fit", "trainer")


def install_plan_spans(rec: SpanRecorder) -> None:
    """Spans for the planners, the compiler and compiled execution."""
    from repro.checkpointing import dynprog, joint
    from repro.engine import program, vm

    rec.wrap(dynprog, "hetero_schedule", "ckpt.plan.hetero")
    rec.wrap(joint, "joint_schedule", "ckpt.plan.joint_time")
    rec.wrap(program, "compile_schedule", "program.compile")
    rec.wrap(vm, "execute", "program.exec", _execute_work)


#: Per-layer time metric -> the spans whose self times it sums, reported
#: in milliseconds per operation (optimizer step or plan).
SELF_TIMES = {
    "ops.conv_fwd.ms": ("ops.conv_fwd",),
    "ops.conv_bwd.ms": ("ops.conv_bwd",),
    "ops.im2col.ms": ("ops.im2col",),
    "ops.col2im.ms": ("ops.col2im",),
    "ops.pool.ms": ("ops.pool",),
    "layers.bn.ms": ("layers.bn",),
    "layers.dense.ms": ("layers.dense",),
    "layers.elementwise.ms": ("layers.elementwise",),
    "layers.residual.self_ms": ("layers.residual",),
    "meter.ms": ("meter",),
    "engine.vm.self_ms": ("engine.vm",),
    "engine.backend.advance.ms": ("engine.backend.advance",),
    "engine.backend.adjoint.ms": ("engine.backend.adjoint",),
    "engine.backend.slot.ms": ("engine.backend.slot",),
    "program.compile.ms": ("program.compile",),
    "program.exec.ms": ("program.exec",),
    "ckpt.plan.hetero.ms": ("ckpt.plan.hetero",),
    "ckpt.plan.joint_time.ms": ("ckpt.plan.joint_time",),
    "optim.step.ms": ("optim.step",),
    "trainer.self_ms": ("trainer",),
}

#: Prefix groups whose share of the traced step is printed as placement.
PLACEMENT = ("ops.", "layers.", "meter.", "engine.", "program.", "ckpt.plan.", "optim.", "trainer.")


def layer_metrics(
    rec: SpanRecorder, ops_done: int, chain_length: int, step_s: float, overhead: float,
    ledger_peak: int,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced window of ``ops_done`` operations."""
    per = 1.0 / ops_done
    m: dict[str, tuple[float, str]] = {}
    for name, spans in SELF_TIMES.items():
        m[name] = (rec.self_ms(*spans) * per, "ms")
    m["ops.conv_fwd.calls"] = (rec.calls.get("ops.conv_fwd", 0) * per, "count")
    m["ops.conv_bwd.calls"] = (rec.calls.get("ops.conv_bwd", 0) * per, "count")
    flops = rec.counts.get("ops.conv.flops", 0) * per
    m["ops.conv.flops"] = (flops, "flop_computed")
    m["ops.conv.bytes"] = (rec.counts.get("ops.conv.bytes", 0) * per, "B_computed")
    conv_s = rec.self_ms("ops.conv_fwd", "ops.conv_bwd", "ops.im2col", "ops.col2im") * per / 1e3
    m["ops.conv.gflops_per_s"] = (flops / conv_s / 1e9 if conv_s else 0.0, "GFLOP/s")
    m["meter.calls"] = (rec.calls.get("meter", 0) * per, "count")
    m["meter.ledger_peak_bytes"] = (ledger_peak, "B")
    m["engine.actions"] = (rec.counts.get("engine.actions", 0) * per, "count")
    fwd = rec.counts.get("ckpt.forward_steps", 0) * per
    m["ckpt.forward_steps"] = (fwd, "count")
    m["ckpt.recompute_ratio"] = (fwd / chain_length, "ratio")
    m["step.ms"] = (step_s * 1e3, "ms")
    m["trace.overhead"] = (overhead, "x")
    return m


def placement(metrics: dict[str, tuple[float, str]]) -> dict[str, float]:
    """Share of the traced step's wall time spent in each layer group."""
    step_ms = metrics["step.ms"][0]
    shares = {}
    for prefix in PLACEMENT:
        total = sum(
            v for k, (v, unit) in metrics.items() if k.startswith(prefix) and unit == "ms"
        )
        shares[prefix.rstrip(".")] = total / step_ms if step_ms else 0.0
    return shares


def _timed_setups(setup):
    """Run ``setup`` SETUP_REPEATS times; (last result, median seconds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = setup()
        times.append(time.perf_counter() - t0)
    return state, statistics.median(times)


def _alloc_peak(work) -> int:
    """``tracemalloc`` peak bytes allocated while ``work()`` runs."""
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _end_to_end(throughput: float, peak: int, setup_s: float) -> dict[str, tuple[float, str]]:
    return {
        "throughput_per_s": (throughput, "1/s"),
        "peak_alloc_bytes": (peak, "B"),
        "setup_s": (setup_s, "s"),
    }


# ---------------------------------------------------------------------------
# Training workloads
# ---------------------------------------------------------------------------


@dataclass
class _TrainState:
    trainer: object
    data: object
    verify: object
    schedule: object


def _setup_train(w: TrainWorkload, seed: int) -> _TrainState:
    """Model, data, optimizer, trainer and (cold) checkpoint schedule."""
    from repro.autodiff import SGD, Trainer, TrainerConfig
    from repro.checkpointing import clear_schedule_cache, get_strategy

    net = w.build_net(np.random.default_rng(seed))
    data = w.make_data(np.random.default_rng((seed, 1)), 32)
    verify = w.make_data(np.random.default_rng((seed, 2)), BATCH // 4)
    config = TrainerConfig(
        epochs=1_000_000,  # the window, not the epoch count, ends fit()
        batch_size=BATCH,
        shuffle_seed=seed,
        strategy=w.strategy,
        slots=w.slots,
    )
    trainer = Trainer(net, SGD(net.layers, lr=w.lr), config)
    schedule = None
    if w.strategy is not None:
        # Plan cold; fit() then finds this schedule in the process cache.
        clear_schedule_cache()
        schedule = get_strategy(w.strategy).schedule(len(net), min(w.slots, len(net) - 1))
    return _TrainState(trainer, data, verify, schedule)


def _train_steps(state: _TrainState, seconds: float, checks: Checks, max_steps: int = 0):
    """Step durations of one ``fit`` call ended by the window; ledger peak."""
    times: list[float] = []
    ledger_peak = 0
    clock = time.perf_counter
    t_end = clock() + seconds
    last = clock()

    def on_step(cursor, loss) -> None:
        nonlocal last, ledger_peak
        now = clock()
        times.append(now - last)
        checks.check(math.isfinite(loss), f"step {cursor.step}: loss {loss} is finite")
        ledger_peak = max(ledger_peak, cursor.peak_bytes)
        if now >= t_end or len(times) == max_steps:
            raise _WindowClosed
        last = clock()

    try:
        state.trainer.fit(state.data, on_step=on_step)
    except _WindowClosed:
        pass
    return times, ledger_peak


def _check_bit_identical(state: _TrainState, checks: Checks) -> None:
    """Scheduled loss and gradients equal store-all backprop bit for bit."""
    from repro.autodiff import run_schedule

    net = state.trainer.net
    x, y = state.verify.x, state.verify.y
    res = run_schedule(net, state.schedule, x, y)
    loss, grads, _ = net.train_step(x, y)
    same = (
        res.loss == loss
        and res.grads.keys() == grads.keys()
        and all(np.array_equal(res.grads[k], grads[k]) for k in grads)
    )
    checks.check(same, "scheduled loss/gradients bit-identical to store-all")


def _run_train(w: TrainWorkload, seed: int, seconds: float, trace: bool, checks: Checks):
    state, setup_s = _timed_setups(lambda: _setup_train(w, seed))

    _train_steps(state, 0.0, checks, max_steps=1)  # warm-up
    if state.schedule is not None:
        _check_bit_identical(state, checks)

    if not trace:
        times, _ = _train_steps(state, seconds, checks)
        peak = _alloc_peak(lambda: _train_steps(state, 0.0, checks, max_steps=1))
        return _end_to_end(BATCH / min(times), peak, setup_s), len(times)

    plain, _ = _train_steps(state, seconds / 2, checks)
    rec = SpanRecorder()
    install_train_spans(rec)
    try:
        traced, ledger_peak = _train_steps(state, seconds / 2, checks)
    finally:
        rec.uninstall()
    overhead = min(traced) / min(plain)
    l = len(state.trainer.net)
    return layer_metrics(rec, len(traced), l, sum(traced) / len(traced), overhead,
                         ledger_peak), len(plain) + len(traced)


# ---------------------------------------------------------------------------
# Planning workload
# ---------------------------------------------------------------------------


def _setup_plan():
    """The ResNet-152 chain (l=107) and the SD-card time objective."""
    from repro.checkpointing import ChainSpec, TimeObjective
    from repro.edge.storage import SD_CARD
    from repro.graph.chain import linearize
    from repro.zoo.resnet import build_resnet

    spec = ChainSpec.from_segment_chain(linearize(build_resnet(152, image_size=224)))
    return spec, TimeObjective(spec, disk=SD_CARD)


def _plan_once(spec, objective, family: str, c: int):
    """Plan, compile and execute one schedule; returns (schedule, RunStats).

    Entry points are looked up on their modules at call time so traced
    runs see the wrapped versions.
    """
    from repro.checkpointing import dynprog, joint
    from repro.engine import program, vm
    from repro.engine.sim import SimBackend
    from repro.engine.tiered import TieredBackend

    if family == "hetero":
        schedule = dynprog.hetero_schedule(spec, c)
        backend = SimBackend(spec)
    else:
        schedule = joint.joint_schedule(spec, c, objective)
        backend = TieredBackend(spec, disk=objective.disk)
    compiled = program.compile_schedule(schedule)
    return schedule, vm.execute(schedule, backend, compiled=compiled)


def _plan_rounds(spec, objective, seconds: float):
    """Whole rounds until the window closes: each plan's durations, and
    every plan executed.

    Checks run later, outside the window: ``validate`` executes the
    schedule again, which a traced window would count as program work.
    """
    durations: dict[tuple[str, int], list[float]] = {entry: [] for entry in PLAN_ROUND}
    executed = []
    t_end = time.perf_counter() + seconds
    while not executed or time.perf_counter() < t_end:
        for family, c in PLAN_ROUND:
            t0 = time.perf_counter()
            schedule, run = _plan_once(spec, objective, family, c)
            durations[(family, c)].append(time.perf_counter() - t0)
            executed.append(((family, c), schedule, run))
    return durations, executed


def _fastest_round(durations: dict) -> float:
    """Seconds of one round made of each plan's fastest repeat."""
    return sum(min(times) for times in durations.values())


def _check_rounds(spec, executed, checks: Checks) -> dict:
    """Every schedule validates and measures the cost of its first run.

    Returns each round entry's first RunStats, which
    :func:`_check_plans` compares with the planners.
    """
    from repro.checkpointing import validate

    first: dict = {}
    for (family, c), schedule, run in executed:
        checks.check(validate(schedule, spec), f"{family}(c={c}) passes validate")
        ref = first.setdefault((family, c), run)
        checks.check(
            (run.forward_cost, run.transfer_seconds) == (ref.forward_cost, ref.transfer_seconds),
            f"{family}(c={c}) measures the same cost every round",
        )
    return first


def _check_plans(spec, objective, first: dict, checks: Checks) -> None:
    """Planned cost equals measured cost; hetero never loses to Revolve."""
    from repro.checkpointing import joint_cost, opt_forwards_hetero, revolve_schedule, simulate

    for (family, c), run in first.items():
        if family == "hetero":
            planned = opt_forwards_hetero(spec, c)
            measured = run.forward_cost
            revolve = simulate(revolve_schedule(spec.length, c), spec).forward_cost
            checks.check(measured <= revolve, f"hetero(c={c}) {measured} <= revolve {revolve}")
        else:
            unit = objective.unit_seconds
            # The plan prices forwards + I/O; the final adjoint replays
            # are executed by the VM on top, so add them to both sides.
            planned = joint_cost(spec, c, objective) + run.replay_cost * unit
            measured = (run.forward_cost + run.replay_cost) * unit + run.transfer_seconds
        checks.check(
            math.isclose(planned, measured, rel_tol=COST_RTOL),
            f"{family}(c={c}) planned {planned!r} == measured {measured!r}",
        )


def _run_plan(seconds: float, trace: bool, checks: Checks):
    (spec, objective), setup_s = _timed_setups(_setup_plan)
    _plan_once(spec, objective, *PLAN_ROUND[0])  # warm-up
    n_round = len(PLAN_ROUND)
    if not trace:
        durations, executed = _plan_rounds(spec, objective, seconds)
        _check_plans(spec, objective, _check_rounds(spec, executed, checks), checks)
        peak = _alloc_peak(lambda: _plan_once(spec, objective, *PLAN_ROUND[-1]))
        return _end_to_end(n_round / _fastest_round(durations), peak, setup_s), len(executed)

    plain, executed = _plan_rounds(spec, objective, seconds / 2)
    rec = SpanRecorder()
    install_plan_spans(rec)
    try:
        traced, executed_traced = _plan_rounds(spec, objective, seconds / 2)
    finally:
        rec.uninstall()
    executed += executed_traced
    _check_plans(spec, objective, _check_rounds(spec, executed, checks), checks)
    overhead = _fastest_round(traced) / _fastest_round(plain)
    plans = len(executed_traced)
    busy = sum(sum(times) for times in traced.values())
    return layer_metrics(rec, plans, spec.length, busy / plans, overhead, 0), len(executed)


def run_workload(name: str, seed: int, seconds: float, trace: bool, checks: Checks):
    """Run one workload; returns ({metric: (value, unit)}, operations timed)."""
    w = WORKLOADS[name]
    if isinstance(w, PlanWorkload):
        # The chain is fixed by the workload's definition; the seed only
        # affects the training workloads' weights, data and shuffling.
        return _run_plan(seconds, trace, checks)
    return _run_train(w, seed, seconds, trace, checks)
