"""Event-driven downlink simulator."""

import numpy as np
import pytest

from repro.mac.simulator import DownlinkSimulator, LinkLayerConfig


def run(duration=0.15, **kwargs):
    defaults = dict(n_aps=3, n_clients=3, duration_s=duration, seed=5)
    defaults.update(kwargs)
    return DownlinkSimulator(LinkLayerConfig(**defaults)).run()


class TestBacklogged:
    def test_goodput_positive_and_bounded(self):
        trace = run()
        # 3 concurrent streams at <= 27 Mbps PHY each
        assert 3e6 < trace.total_goodput_bps < 3 * 27e6

    def test_all_clients_served(self):
        trace = run()
        assert np.all(trace.per_client_goodput_bps > 0)

    def test_airtime_accounted(self):
        trace = run()
        total = sum(trace.airtime.values())
        assert total == pytest.approx(trace.config.duration_s, rel=0.15)
        assert trace.airtime["data"] > trace.airtime["sounding"]

    def test_periodic_soundings_happen(self):
        trace = run(resound_interval_s=20e-3)
        assert trace.n_soundings >= 5

    def test_failures_requeued_and_retried(self):
        # light load so a requeued packet reaches the head again quickly;
        # short coherence + sparse sounding forces some failures
        trace = run(
            arrival_rate_pps=150.0,
            duration_s=0.4,
            coherence_time_s=0.05,
            resound_interval_s=60e-3,
            seed=21,
        )
        assert trace.n_failures > 0
        retried = [d for d in trace.delivered if d.retries > 0]
        assert retried  # lost packets eventually delivered


class TestScalingWithAps:
    def test_more_aps_more_goodput(self):
        small = run(n_aps=2, n_clients=2, seed=7)
        large = run(n_aps=5, n_clients=5, seed=7)
        assert large.total_goodput_bps > 1.5 * small.total_goodput_bps


class TestStaleness:
    def test_sparser_sounding_more_failures(self):
        fresh = run(resound_interval_s=10e-3, coherence_time_s=0.08, seed=9)
        stale = run(resound_interval_s=80e-3, coherence_time_s=0.08, seed=9)
        assert stale.loss_rate > fresh.loss_rate

    def test_static_channel_rarely_fails(self):
        trace = run(coherence_time_s=10.0, resound_interval_s=50e-3, seed=11)
        assert trace.loss_rate < 0.1


class TestPoissonTraffic:
    def test_light_load_low_latency(self):
        trace = run(arrival_rate_pps=200.0, duration_s=0.3, seed=13)
        assert trace.mean_latency_s < 20e-3
        assert trace.airtime["idle"] > 0

    def test_goodput_matches_offered_load(self):
        cfg_rate = 300.0
        trace = run(arrival_rate_pps=cfg_rate, duration_s=0.4, seed=15)
        offered = 3 * cfg_rate * 1500 * 8  # 3 clients
        assert trace.total_goodput_bps == pytest.approx(offered, rel=0.35)


class TestValidation:
    def test_bad_config(self):
        with pytest.raises(ValueError):
            LinkLayerConfig(n_aps=0, n_clients=1)
        with pytest.raises(ValueError):
            LinkLayerConfig(n_aps=1, n_clients=1, duration_s=0.0)

    def test_summary_renders(self):
        trace = run(duration=0.05)
        text = trace.format_summary()
        assert "goodput" in text and "airtime" in text


class TestGroupingAndFeedbackOptions:
    def test_throughput_grouping_runs(self):
        trace = run(grouping="throughput", duration=0.1, seed=31)
        assert trace.total_goodput_bps > 0

    def test_unknown_grouping_rejected(self):
        with pytest.raises(ValueError):
            LinkLayerConfig(n_aps=2, n_clients=2, grouping="magic")

    def test_coarse_feedback_hurts(self):
        fine = run(feedback_bits=8, duration=0.12, seed=33)
        coarse = run(feedback_bits=3, duration=0.12, seed=33)
        assert coarse.total_goodput_bps < fine.total_goodput_bps

    def test_backhaul_delays_light_traffic(self):
        from repro.mac.backhaul import BackhaulConfig

        fast = run(arrival_rate_pps=150.0, duration=0.2, seed=41)
        slow = run(
            arrival_rate_pps=150.0,
            duration=0.2,
            seed=41,
            backhaul=BackhaulConfig(bandwidth_bps=5e6, latency_s=2e-3),
        )
        assert slow.mean_latency_s > fast.mean_latency_s

    def test_gige_backhaul_negligible(self):
        from repro.mac.backhaul import BackhaulConfig

        ideal = run(arrival_rate_pps=200.0, duration=0.2, seed=43)
        gige = run(
            arrival_rate_pps=200.0,
            duration=0.2,
            seed=43,
            backhaul=BackhaulConfig(),
        )
        assert abs(gige.total_goodput_bps - ideal.total_goodput_bps) < max(
            0.25 * ideal.total_goodput_bps, 2e6
        )


class TestEventTrace:
    def test_events_recorded_in_time_order(self):
        trace = run(duration=0.06, seed=51)
        times = [e.time for e in trace.events]
        assert times == sorted(times)
        kinds = {e.kind for e in trace.events}
        assert "sound" in kinds and "burst" in kinds

    def test_every_burst_has_outcomes(self):
        trace = run(duration=0.06, seed=53)
        bursts = sum(e.kind == "burst" for e in trace.events)
        outcomes = sum(e.kind in ("deliver", "fail") for e in trace.events)
        assert bursts > 0
        assert outcomes >= bursts  # >= one stream outcome per burst

    def test_deliver_fail_counts_match(self):
        trace = run(duration=0.06, seed=55)
        fails = sum(e.kind == "fail" for e in trace.events)
        delivers = sum(e.kind == "deliver" for e in trace.events)
        assert fails == trace.n_failures
        assert delivers == len(trace.delivered)


class TestPhaseErrorTelemetry:
    def test_mid_burst_floor_records_only_evaluated_packets(self):
        """Each evaluated packet records its phase error once, under mac.*.

        The golden ``mcs_floor_midburst`` config drops below the MCS floor
        mid-burst, so some drawn errors are rewound unused: they must
        leave no trace, and the MAC's draws must not count as fastsim's.
        """
        from repro.obs import metrics, timeseries

        metrics.reset()
        timeseries.reset()
        run(n_aps=4, n_clients=4, duration=0.05, coherence_time_s=0.05,
            seed=3)
        registry = metrics.get_registry()
        assert registry.get("mac.phase_error_rad").count == 37
        assert timeseries.get_store().get("mac.phase_error_rad").total == 37
        assert registry.get("fastsim.phase_error_draws").value == 0
        assert registry.get("fastsim.phase_error_rad").count == 0
