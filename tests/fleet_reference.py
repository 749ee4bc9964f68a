"""The per-node fleet loop, frozen as a test oracle.

``repro.edge.fleet.simulate_fleet`` used to walk every struck node and
every federating node in Python.  It now handles crashes with one
batched geometric draw and reprices federation with one array
expression, on the same seeded RNG stream.  The per-node loop is frozen
verbatim below (commit 96ab2bb) so ``tests/test_megafleet_golden.py``
and the "loop" rung of ``benchmarks/bench_fleet.py`` can keep checking
the vectorized engine against it: the same ``FleetResult`` to the last
bit, and the same traced ``node_crash`` / ``federation_round`` events.
"""

from __future__ import annotations

import numpy as np

from repro.edge.fleet import FleetConfig, FleetDay, FleetResult, quantize_effective
from repro.obs import get_metrics, get_tracer

__all__ = ["reference_simulate_fleet"]


def reference_simulate_fleet(cfg: FleetConfig) -> FleetResult:
    """Run the fleet; accuracy follows each node's effective sample count.

    A node's effective samples = its own harvest + ``transfer_value`` ×
    the mean *other-node* harvest shared at federation rounds.  Radio
    cost per round = 2 × model_bytes × n_nodes (upload + download).

    With ``crash_rate_per_day > 0`` nodes fail: a crashed node rolls its
    harvest back to the last durable snapshot (taken every
    ``snapshot_period_days``), emits a ``fault``-category trace event,
    sits out a geometric outage, then rejoins.  The happy path
    (``crash_rate_per_day == 0``) draws exactly the same random stream
    as before faults existed, so seeded results are unchanged.
    """
    rng = np.random.default_rng(cfg.seed)
    tracer = get_tracer()
    # Per-node mean traffic: Gamma-heterogeneous around the fleet mean.
    scale = cfg.crossings_per_day_mean / cfg.traffic_shape
    node_rates = rng.gamma(cfg.traffic_shape, scale, size=cfg.n_nodes)
    own = np.zeros(cfg.n_nodes)
    borrowed = np.zeros(cfg.n_nodes)
    snapshotted = np.zeros(cfg.n_nodes)  # harvest as of the last durable write
    down_until = np.zeros(cfg.n_nodes, dtype=np.int64)  # first day back up
    crashes = np.zeros(cfg.n_nodes, dtype=np.int64)
    lost = np.zeros(cfg.n_nodes)
    downtime = np.zeros(cfg.n_nodes, dtype=np.int64)
    radio = 0
    rounds = 0
    days: list[FleetDay] = []
    with tracer.span(
        "fleet",
        category="campaign",
        n_nodes=cfg.n_nodes,
        days=cfg.days,
        federation_period=cfg.federation_period,
        crash_rate_per_day=cfg.crash_rate_per_day,
    ) as span:
        for day in range(1, cfg.days + 1):
            up = down_until <= day
            crossings = rng.poisson(node_rates)
            own += np.where(up, crossings * cfg.images_per_crossing, 0.0)
            if cfg.crash_rate_per_day:
                up_idx = np.flatnonzero(up)
                struck = up_idx[rng.random(up_idx.size) < cfg.crash_rate_per_day]
                for i in struck:
                    lost_now = own[i] - snapshotted[i]
                    lost[i] += lost_now
                    own[i] = snapshotted[i]
                    crashes[i] += 1
                    if cfg.outage_days_mean > 0:
                        outage = int(rng.geometric(min(1.0, 1.0 / cfg.outage_days_mean)))
                    else:
                        outage = 0
                    down_until[i] = day + 1 + outage
                    downtime[i] += outage
                    if tracer.enabled:
                        tracer.event(
                            "node_crash",
                            category="fault",
                            day=day,
                            node=int(i),
                            lost_samples=float(lost_now),
                            rejoin_day=int(down_until[i]),
                        )
                if struck.size:
                    up = down_until <= day
                # Durable snapshot day: surviving nodes persist their harvest.
                if day % cfg.snapshot_period_days == 0:
                    snapshotted[up] = own[up]
            if cfg.federation_period and day % cfg.federation_period == 0:
                total = own.sum()
                for i in range(cfg.n_nodes):
                    others_mean = (total - own[i]) / max(1, cfg.n_nodes - 1)
                    borrowed[i] = cfg.transfer_value * others_mean
                radio += 2 * cfg.model_bytes * cfg.n_nodes
                rounds += 1
                if tracer.enabled:
                    tracer.event(
                        "federation_round",
                        category="campaign",
                        day=day,
                        radio_bytes_total=radio,
                    )
            accs = cfg.curve.accuracy(quantize_effective(own + borrowed))
            days.append(
                FleetDay(
                    day=day,
                    mean_accuracy=float(accs.mean()),
                    min_accuracy=float(accs.min()),
                    radio_bytes_total=radio,
                    nodes_up=int(up.sum()),
                )
            )
        final = cfg.curve.accuracy(quantize_effective(own + borrowed))
        span.set_tag("radio_bytes_total", radio)
        span.set_tag("mean_final_accuracy", float(final.mean()))
        span.set_tag("crashes_total", int(crashes.sum()))
    m = get_metrics()
    m.counter("fleet.federation_rounds").inc(rounds)
    m.gauge("fleet.radio_bytes_total").set(radio)
    m.gauge("fleet.mean_final_accuracy").set(float(final.mean()))
    m.counter("fleet.crashes").inc(int(crashes.sum()))
    m.gauge("fleet.lost_samples_total").set(float(lost.sum()))
    return FleetResult(
        days=tuple(days),
        final_accuracies=tuple(float(a) for a in final),
        radio_bytes_total=radio,
        crashes=tuple(int(c) for c in crashes),
        lost_samples=tuple(float(x) for x in lost),
        downtime_days=tuple(int(d) for d in downtime),
    )
