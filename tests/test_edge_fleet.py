"""Fleet simulation: isolation vs federation, communication priced."""

import pytest

from repro.edge import FleetConfig, simulate_fleet
from repro.errors import PlanningError


def cfg(**kw):
    base = dict(n_nodes=8, days=20, seed=3)
    base.update(kw)
    return FleetConfig(**base)


class TestFleet:
    def test_isolated_no_radio(self):
        res = simulate_fleet(cfg(federation_period=0))
        assert res.radio_bytes_total == 0

    def test_federated_pays_radio(self):
        res = simulate_fleet(cfg(federation_period=5))
        # 4 rounds x 2 x model_bytes x nodes
        assert res.radio_bytes_total == 4 * 2 * 50_000_000 * 8

    def test_accuracy_trajectories_monotone(self):
        res = simulate_fleet(cfg())
        means = [d.mean_accuracy for d in res.days]
        assert means == sorted(means)

    def test_federation_helps_slow_nodes(self):
        """Sharing lifts the fleet *minimum* (low-traffic nodes gain most)."""
        iso = simulate_fleet(cfg(federation_period=0))
        fed = simulate_fleet(cfg(federation_period=5))
        assert fed.worst_final_accuracy >= iso.worst_final_accuracy

    def test_low_transfer_value_limits_benefit(self):
        """The paper's caveat: viewpoint-specific knowledge transfers
        poorly, so federation's gain shrinks with transfer_value."""
        none = simulate_fleet(cfg(federation_period=5, transfer_value=0.0))
        some = simulate_fleet(cfg(federation_period=5, transfer_value=0.5))
        assert some.mean_final_accuracy >= none.mean_final_accuracy
        iso = simulate_fleet(cfg(federation_period=0))
        assert none.mean_final_accuracy == pytest.approx(iso.mean_final_accuracy)

    def test_heterogeneous_traffic(self):
        res = simulate_fleet(cfg(days=30))
        accs = res.final_accuracies
        assert max(accs) - min(accs) > 0.0  # nodes genuinely differ

    def test_day_reaching_target(self):
        res = simulate_fleet(cfg(days=60, crossings_per_day_mean=200.0))
        day = res.day_reaching(0.7)
        assert day is not None
        assert res.days[day - 1].min_accuracy >= 0.7

    def test_deterministic_under_seed(self):
        a = simulate_fleet(cfg(seed=11))
        b = simulate_fleet(cfg(seed=11))
        assert a.final_accuracies == b.final_accuracies

    def test_validation(self):
        with pytest.raises(PlanningError):
            FleetConfig(n_nodes=0)
        with pytest.raises(PlanningError):
            FleetConfig(transfer_value=1.5)
        with pytest.raises(PlanningError):
            FleetConfig(federation_period=-1)
        with pytest.raises(PlanningError):
            FleetConfig(crash_rate_per_day=1.0)
        with pytest.raises(PlanningError):
            FleetConfig(snapshot_period_days=0)
        with pytest.raises(PlanningError):
            FleetConfig(outage_days_mean=-0.5)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(outage_days_mean=float("nan")),
            dict(outage_days_mean=float("inf")),
            dict(traffic_shape=0.0),
            dict(traffic_shape=-1.0),
            dict(traffic_shape=float("nan")),
            dict(crossings_per_day_mean=-1.0),
            dict(crossings_per_day_mean=float("nan")),
            dict(crossings_per_day_mean=float("inf")),
            dict(images_per_crossing=-1.0),
            dict(images_per_crossing=float("nan")),
            dict(model_bytes=-1),
        ],
        ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_validation_rejects_nan_and_negative_inputs(self, kw):
        """Each of these used to be accepted, then misbehave mid-run."""
        with pytest.raises(PlanningError):
            FleetConfig(**kw)


class TestFleetFaults:
    def test_happy_path_rng_stream_unchanged(self):
        """crash_rate=0 must draw exactly the random stream the pre-fault
        simulator drew: seeded happy-path results are frozen."""
        res = simulate_fleet(cfg())
        assert res.total_crashes == 0
        assert res.total_lost_samples == 0.0
        assert all(d.nodes_up == 8 for d in res.days)

    def test_crashes_lose_work_and_rejoin(self):
        res = simulate_fleet(
            cfg(days=40, crash_rate_per_day=0.08, outage_days_mean=2.0)
        )
        assert res.total_crashes > 0
        assert res.total_lost_samples > 0
        assert sum(res.downtime_days) > 0
        # nodes rejoin: the fleet is never permanently dark
        assert res.days[-1].nodes_up > 0
        assert len(res.crashes) == len(res.lost_samples) == 8

    def test_graceful_degradation(self):
        """Accuracy under faults degrades but does not collapse."""
        happy = simulate_fleet(cfg(days=40))
        faulty = simulate_fleet(cfg(days=40, crash_rate_per_day=0.08))
        assert faulty.mean_final_accuracy <= happy.mean_final_accuracy
        assert faulty.mean_final_accuracy > 0.5 * happy.mean_final_accuracy

    def test_frequent_snapshots_bound_losses(self):
        """Daily snapshots lose at most one day of harvest per crash;
        sparse snapshots lose more."""
        daily = simulate_fleet(
            cfg(days=60, crash_rate_per_day=0.1, snapshot_period_days=1)
        )
        sparse = simulate_fleet(
            cfg(days=60, crash_rate_per_day=0.1, snapshot_period_days=10)
        )
        assert daily.total_crashes > 0 and sparse.total_crashes > 0
        assert (
            sparse.total_lost_samples / sparse.total_crashes
            > daily.total_lost_samples / daily.total_crashes
        )

    def test_deterministic_under_seed(self):
        a = simulate_fleet(cfg(crash_rate_per_day=0.1, seed=5))
        b = simulate_fleet(cfg(crash_rate_per_day=0.1, seed=5))
        assert a.crashes == b.crashes
        assert a.lost_samples == b.lost_samples
        assert a.final_accuracies == b.final_accuracies

    def test_zero_outage_rejoins_next_day(self):
        res = simulate_fleet(
            cfg(days=30, crash_rate_per_day=0.2, outage_days_mean=0.0)
        )
        assert res.total_crashes > 0
        assert sum(res.downtime_days) == 0

    def test_crash_events_traced(self):
        from repro.obs import tracing

        with tracing() as tracer:
            res = simulate_fleet(cfg(days=40, crash_rate_per_day=0.1))
        events = [e for e in tracer.events() if e.name == "node_crash"]
        assert len(events) == res.total_crashes
        assert all(e.category == "fault" for e in events)
        assert {"day", "node", "lost_samples", "rejoin_day"} <= set(events[0].tags)


class TestFleetValidationEdges:
    def test_subunit_outage_mean_clamps_to_one_day(self):
        """outage_days_mean < 1 clamps the geometric's p to 1: every
        outage is exactly one extra day, never zero or fractional."""
        res = simulate_fleet(
            cfg(days=60, crash_rate_per_day=0.2, outage_days_mean=0.3)
        )
        assert res.total_crashes > 0
        assert sum(res.downtime_days) == res.total_crashes  # one day each

    def test_outage_mean_exactly_one_behaves_like_subunit(self):
        """The clamp boundary: mean=1.0 also gives p=1, so the two
        configs share crash counts (same stream) and downtime."""
        lo = simulate_fleet(cfg(days=60, crash_rate_per_day=0.2, outage_days_mean=0.3))
        one = simulate_fleet(cfg(days=60, crash_rate_per_day=0.2, outage_days_mean=1.0))
        assert lo.crashes == one.crashes
        assert lo.downtime_days == one.downtime_days

    def test_crash_on_snapshot_day_keeps_prior_snapshot(self):
        """A crash fires before the day's durable write: work since the
        *previous* snapshot is lost even when the crash day itself is a
        snapshot day, so sparse cadences leak more per crash."""
        sparse = simulate_fleet(
            cfg(n_nodes=200, days=60, crash_rate_per_day=0.1, snapshot_period_days=5)
        )
        assert sparse.total_crashes > 0
        # Mean harvest is hundreds of images/day; if the crash-day
        # snapshot were (wrongly) taken first, per-crash loss would be
        # bounded by a single day's harvest.
        assert sparse.total_lost_samples / sparse.total_crashes > 1000.0

    def test_snapshot_every_day_loses_at_most_one_day(self):
        res = simulate_fleet(
            cfg(n_nodes=200, days=60, crash_rate_per_day=0.1, snapshot_period_days=1)
        )
        assert res.total_crashes > 0
        # crossings 60/day x 18 img: one lost day is ~1080 on average
        assert res.total_lost_samples / res.total_crashes < 3000.0

    def test_quantize_effective_matches_int_truncation(self):
        import numpy as np

        from repro.edge import quantize_effective

        e = np.array([0.0, 0.4, 1.0, 17.9, 1234.5])
        assert quantize_effective(e).tolist() == [float(int(x)) for x in e]
