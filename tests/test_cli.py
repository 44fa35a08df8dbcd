"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import timeseries


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_range(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "5"])
        args = build_parser().parse_args(["figure", "6"])
        assert args.number == 6

    def test_ablation_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ablation", "nonsense"])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.n_aps == 4 and args.arrival_rate is None


class TestCommands:
    def test_quickstart(self, capsys):
        assert main(["quickstart"]) == 0
        out = capsys.readouterr().out
        assert "client0: ok" in out

    def test_figure6(self, capsys):
        assert main(["figure", "6", "--scale", "0.2"]) == 0
        assert "misalignment" in capsys.readouterr().out

    def test_figure7_small(self, capsys):
        assert main(["figure", "7", "--scale", "0.2"]) == 0
        assert "median" in capsys.readouterr().out

    def test_figure11_small(self, capsys):
        assert main(["figure", "11", "--scale", "0.2"]) == 0
        assert "AP(Mbps)" in capsys.readouterr().out

    def test_figure12_small(self, capsys):
        assert main(["figure", "12", "--scale", "0.2"]) == 0
        assert "gain" in capsys.readouterr().out

    def test_ablation_cfo(self, capsys):
        assert main(["ablation", "cfo"]) == 0
        assert "alpha" in capsys.readouterr().out

    def test_ablation_sounding(self, capsys):
        assert main(["ablation", "sounding"]) == 0
        assert "interleaved" in capsys.readouterr().out

    def test_simulate(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--n-aps", "2",
                    "--n-clients", "2",
                    "--duration", "0.05",
                    "--seed", "3",
                ]
            )
            == 0
        )
        assert "goodput" in capsys.readouterr().out


@pytest.fixture
def clean_store():
    """Empty the process-global time-series store around a live-serve test.

    CLI runs publish into module-global rings with wall-clock timestamps;
    without this, one test's injected sync fault would trip the §7.3
    budget rules of every later test in the same process.
    """
    timeseries.reset()
    yield timeseries.get_store()
    timeseries.reset()


class TestLiveTelemetry:
    def _probe_on_stop(self, monkeypatch, probes: dict):
        """Sample the endpoints at the moment the CLI stops its server.

        ``--serve-port`` runs stop the server right after dispatch, while
        the process is still inside ``main``; hooking stop() observes the
        endpoint exactly as a live scraper would during the run.
        """
        from repro.obs.serve import TelemetryServer, fetch_json

        orig_stop = TelemetryServer.stop

        def probing_stop(self):
            if self.running and not probes:
                import urllib.request

                with urllib.request.urlopen(self.url + "/metrics",
                                            timeout=2.0) as resp:
                    probes["metrics"] = resp.read().decode()
                    probes["content_type"] = resp.headers["Content-Type"]
                probes["timeseries"] = fetch_json(self.url + "/timeseries")
                probes["alerts"] = fetch_json(self.url + "/alerts")
            orig_stop(self)

        monkeypatch.setattr(TelemetryServer, "stop", probing_stop)

    def test_serve_port_exposes_live_endpoints_during_a_run(
        self, clean_store, capsys, monkeypatch
    ):
        from repro.obs.export import validate_openmetrics

        probes: dict = {}
        self._probe_on_stop(monkeypatch, probes)
        assert main(["figure", "6", "--scale", "0.2",
                     "--serve-port", "0"]) == 0
        assert "serving live telemetry on http://127.0.0.1:" in (
            capsys.readouterr().err
        )
        assert validate_openmetrics(probes["metrics"]) == []
        assert probes["content_type"].startswith("application/openmetrics-text")
        # the sweep's progress publications reached the live store
        assert "runtime.done_trials" in probes["timeseries"]["series"]
        assert probes["alerts"]["firing"] == []

    def test_injected_sync_fault_fails_the_run_and_lands_in_the_ledger(
        self, clean_store, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_PHASE_SIGMA_SCALE", "40")
        code = main([
            "simulate", "--n-aps", "2", "--n-clients", "2",
            "--duration", "0.05", "--seed", "3",
            "--serve-port", "0", "--fail-on-alert",
        ])
        assert code == 3  # EXIT_ALERT: distinct from regress's 1/2
        # the firing made it into the run ledger as a structured alarm
        ledger = tmp_path / "runs" / "ledger.jsonl"
        record = json.loads(ledger.read_text().splitlines()[-1])
        assert record["status"] == "alert"
        self._assert_one_alarm_per_rule(record["alarms"])

    @staticmethod
    def _assert_one_alarm_per_rule(alarms):
        # the MAC records its phase errors under mac.* only, and the
        # alert engine is the one budget verdict: two budget alarms plus
        # the critical alert's crash bundle
        assert [(a["kind"], a.get("rule"), a["severity"]) for a in alarms] == [
            ("alert_budget", "mac.phase_error_p50", "warning"),
            ("alert_budget", "mac.phase_error_p95", "critical"),
            ("crash_bundle", None, "critical"),
        ]
        p95 = alarms[1]
        assert p95["value"] > p95["threshold"]

    def test_injected_sync_fault_fails_the_run_without_a_server(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_PHASE_SIGMA_SCALE", "40")
        code = main([
            "simulate", "--n-aps", "2", "--n-clients", "2",
            "--duration", "0.05", "--seed", "3", "--fail-on-alert",
        ])
        assert code == 3
        ledger = tmp_path / "runs" / "ledger.jsonl"
        record = json.loads(ledger.read_text().splitlines()[-1])
        assert record["status"] == "alert"
        self._assert_one_alarm_per_rule(record["alarms"])

    def test_verdict_judges_each_run_alone(self, capsys, monkeypatch):
        argv = ["simulate", "--n-aps", "2", "--n-clients", "2",
                "--duration", "0.05", "--seed", "3", "--fail-on-alert"]
        monkeypatch.setenv("REPRO_PHASE_SIGMA_SCALE", "40")
        assert main(argv) == 3
        # a healthy run in the same process inherits none of the breach
        monkeypatch.delenv("REPRO_PHASE_SIGMA_SCALE")
        assert main(argv) == 0

    def test_same_fault_without_fail_on_alert_still_exits_zero(
        self, clean_store, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_PHASE_SIGMA_SCALE", "40")
        assert main([
            "simulate", "--n-aps", "2", "--n-clients", "2",
            "--duration", "0.05", "--seed", "3", "--serve-port", "0",
        ]) == 0

    def test_obs_serve_runs_for_duration_and_announces(self, capsys):
        assert main(["obs", "serve", "--port", "0", "--duration",
                     "0.05"]) == 0
        err = capsys.readouterr().err
        assert "serving live telemetry on http://127.0.0.1:" in err

    def test_obs_watch_once_against_a_live_server(self, clean_store, capsys):
        from repro.obs.serve import TelemetryServer

        clean_store.record("sim.err", 0.01)
        server = TelemetryServer(port=0, store=clean_store).start()
        try:
            assert main(["obs", "watch", server.url, "--once"]) == 0
        finally:
            server.stop()
        assert "sim.err" in capsys.readouterr().out

    def test_obs_watch_fail_on_alert_exit_code(self, clean_store, capsys):
        from repro.obs.alerts import AlertEngine, AlertRule
        from repro.obs.serve import TelemetryServer

        engine = AlertEngine([AlertRule(
            name="test.err_budget", series="sim.err", threshold=0.05,
        )])
        clean_store.record("sim.err", 0.2)
        server = TelemetryServer(port=0, store=clean_store,
                                 engine=engine).start()
        server.evaluate_once()
        try:
            assert main(["obs", "watch", server.url, "--once",
                         "--fail-on-alert"]) == 3
        finally:
            server.stop()

    def test_obs_watch_unreachable_exits_one(self, capsys):
        assert main(["obs", "watch", "http://127.0.0.1:9", "--once"]) == 1

    def test_obs_watch_events_streams_sse_lines(self, clean_store, capsys):
        from repro.obs.serve import TelemetryServer

        server = TelemetryServer(port=0, store=clean_store).start()
        try:
            assert main(["obs", "watch", server.url, "--events",
                         "--max-events", "1"]) == 0
        finally:
            server.stop()
        out = capsys.readouterr().out
        assert json.loads(out.splitlines()[0])["event"] == "hello"

    def test_obs_watch_events_no_reconnect_exits_one(self, capsys):
        assert main(["obs", "watch", "http://127.0.0.1:9", "--events",
                     "--no-reconnect"]) == 1


class TestBlackboxParser:
    def test_show_defaults_to_latest(self):
        args = build_parser().parse_args(["obs", "blackbox", "show"])
        assert args.bundle == "latest"
        assert args.records == 10 and args.as_json is False

    def test_list_and_show_parse(self):
        args = build_parser().parse_args(["obs", "blackbox", "list"])
        assert args.blackbox_command == "list"
        args = build_parser().parse_args(
            ["obs", "blackbox", "show", "abc", "--records", "3", "--json"])
        assert (args.bundle, args.records, args.as_json) == ("abc", 3, True)

    def test_watch_events_flags(self):
        args = build_parser().parse_args(
            ["obs", "watch", "u", "--events", "--no-reconnect",
             "--max-retries", "2", "--max-events", "5"])
        assert args.events and args.no_reconnect
        assert args.max_retries == 2 and args.max_events == 5
