"""Golden equivalence: the vectorized fleet engine is bit-exact.

``simulate_fleet`` must reproduce the per-node loop frozen in
``tests/fleet_reference.py`` *exactly* — same seeded RNG stream, same
per-device crash/lost/downtime accounting, same day-by-day trajectory,
same traced events — across every feature combination (faults on/off,
federation on/off, snapshot cadences, sub-day outage means).  Dataclass
equality is the strictest available check: every float in every
``FleetDay`` and every per-node tuple must match to the last bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.edge import FleetConfig, simulate_fleet
from repro.obs import tracing
from tests.fleet_reference import reference_simulate_fleet

CONFIGS = {
    "defaults": dict(),
    "federated": dict(federation_period=5),
    "faults": dict(crash_rate_per_day=0.05, n_nodes=50, days=40, seed=7),
    "faults_federated": dict(
        crash_rate_per_day=0.05, federation_period=5, snapshot_period_days=3,
        outage_days_mean=2.5, n_nodes=100, days=60, seed=7,
    ),
    "instant_rejoin": dict(crash_rate_per_day=0.2, outage_days_mean=0.0, seed=3),
    "subday_outage": dict(
        crash_rate_per_day=0.1, outage_days_mean=0.4, n_nodes=37, days=45, seed=11
    ),
    "single_node": dict(n_nodes=1, crash_rate_per_day=0.1, days=25, seed=5),
    "high_crash": dict(crash_rate_per_day=0.5, n_nodes=20, days=30, seed=13),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_vectorized_is_bit_exact(name):
    cfg = FleetConfig(**CONFIGS[name])
    assert simulate_fleet(cfg) == reference_simulate_fleet(cfg)  # every field, every bit


@settings(max_examples=60, deadline=None)
@given(
    n_nodes=st.sampled_from([1, 2, 37, 200]),
    days=st.sampled_from([1, 25, 60]),
    crash_rate_per_day=st.sampled_from([0.0, 0.05, 0.3, 0.9]),
    federation_period=st.sampled_from([0, 1, 5]),
    snapshot_period_days=st.sampled_from([1, 3]),
    outage_days_mean=st.sampled_from([0.0, 0.4, 1.0, 2.5]),
    transfer_value=st.sampled_from([0.0, 0.6]),
    seed=st.sampled_from([0, 7]),
)
def test_vectorized_is_bit_exact_across_the_config_space(**kw):
    cfg = FleetConfig(**kw)
    assert simulate_fleet(cfg) == reference_simulate_fleet(cfg)


def test_traced_events_match_the_reference():
    """One ``node_crash`` per struck node, in ascending node order, and
    every ``federation_round``: same names, categories, order and tags."""
    cfg = FleetConfig(**CONFIGS["faults_federated"])

    def traced(engine):
        with tracing() as tracer:
            engine(cfg)
        events = [(e.name, e.category, e.tags) for e in tracer.events()]
        (span,) = tracer.spans()
        return events, span.tags

    events, span_tags = traced(simulate_fleet)
    assert (events, span_tags) == traced(reference_simulate_fleet)
    assert {name for name, _, _ in events} == {"node_crash", "federation_round"}


def test_per_node_accounting_matches_device_for_device():
    """The damage report, not just the aggregates, is identical."""
    cfg = FleetConfig(
        n_nodes=100, days=60, crash_rate_per_day=0.08,
        snapshot_period_days=4, outage_days_mean=2.0,
        federation_period=10, seed=42,
    )
    legacy = reference_simulate_fleet(cfg)
    fast = simulate_fleet(cfg)
    assert fast.crashes == legacy.crashes
    assert fast.lost_samples == legacy.lost_samples
    assert fast.downtime_days == legacy.downtime_days
    assert fast.final_accuracies == legacy.final_accuracies
    for a, b in zip(legacy.days, fast.days):
        assert a == b


def test_both_engines_share_one_quantization():
    """Satellite pin: day-by-day and final accuracy floor identically.

    The historical bug class was ``accuracy(int(e))`` being applied in
    two separately-written places; both engines route through
    ``quantize_effective``, so the final trajectory point equals the
    final accuracies summary in both.
    """
    cfg = FleetConfig(n_nodes=16, days=30, federation_period=3, seed=9)
    for res in (reference_simulate_fleet(cfg), simulate_fleet(cfg)):
        assert res.days[-1].mean_accuracy == pytest.approx(
            float(np.mean(res.final_accuracies)), abs=0.0
        )
        assert res.days[-1].min_accuracy == float(np.min(res.final_accuracies))
