"""Alert engine: rule validation, state machine, built-ins, run verdict, TOML."""

import sys

import pytest

from repro.core.phasesync import (
    PHASE_ERROR_BUDGET_MEDIAN_RAD,
    PHASE_ERROR_BUDGET_P95_RAD,
)
from repro.obs.alerts import (
    AlertEngine,
    AlertRule,
    builtin_rules,
    load_rules,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import DEFAULT_CAPACITY, TimeSeriesStore

HAVE_TOMLLIB = sys.version_info >= (3, 11)


def fill(store, name, values, t0=0.0, dt=1.0):
    for i, v in enumerate(values):
        store.record(name, v, ts=t0 + i * dt)


class TestAlertRule:
    def test_defaults(self):
        r = AlertRule(name="a.b", series="s.x", threshold=1.0)
        assert r.kind == "threshold" and r.stat == "last" and r.op == "above"
        assert r.clear_level() == 1.0  # no hysteresis by default

    def test_explicit_clear_level(self):
        r = AlertRule(name="a.b", series="s.x", threshold=1.0, clear=0.8)
        assert r.clear_level() == 0.8

    @pytest.mark.parametrize("kwargs", [
        {"kind": "nope"},
        {"stat": "p42"},
        {"op": "sideways"},
        {"window_s": 0.0},
        {"min_count": 0},
    ])
    def test_invalid_fields_raise(self, kwargs):
        with pytest.raises(ValueError):
            AlertRule(name="a.b", series="s.x", threshold=1.0, **kwargs)

    def test_unconventional_name_warns_but_constructs(self, caplog):
        import logging

        logging.getLogger("repro").propagate = True
        with caplog.at_level(logging.WARNING, logger="repro.obs.alerts"):
            r = AlertRule(name="BadName", series="s.x", threshold=1.0)
        assert r.name == "BadName"
        assert any("OBS004" in rec.getMessage() for rec in caplog.records)

    def test_to_dict_round_trips_fields(self):
        r = AlertRule(name="a.b", series="s.x", threshold=1.0, for_s=2.0)
        d = r.to_dict()
        assert d["name"] == "a.b" and d["for_s"] == 2.0
        assert AlertRule(**d) == r


class TestStateMachine:
    def _engine(self, **kwargs):
        defaults = dict(name="t.rule", series="s.x", threshold=1.0)
        defaults.update(kwargs)
        return AlertEngine([AlertRule(**defaults)])

    def test_immediate_fire_without_for_duration(self):
        store = TimeSeriesStore()
        engine = self._engine()
        fill(store, "s.x", [2.0], t0=10.0)
        (t,) = engine.evaluate(store, now=10.0)
        assert t["status"] == "firing" and t["previous"] == "ok"
        assert t["value"] == 2.0 and t["threshold"] == 1.0
        assert engine.state("t.rule").status == "firing"
        assert engine.firing()[0]["rule"] == "t.rule"

    def test_no_transition_while_healthy(self):
        store = TimeSeriesStore()
        engine = self._engine()
        fill(store, "s.x", [0.5], t0=10.0)
        assert engine.evaluate(store, now=10.0) == []
        assert engine.firing() == []

    def test_for_duration_debounce(self):
        store = TimeSeriesStore()
        engine = self._engine(for_s=5.0)
        fill(store, "s.x", [2.0], t0=0.0)
        (t,) = engine.evaluate(store, now=0.0)
        assert t["status"] == "pending"  # breached, but not for long enough
        store.record("s.x", 2.0, ts=3.0)
        assert engine.evaluate(store, now=3.0) == []  # still pending
        store.record("s.x", 2.0, ts=6.0)
        (t,) = engine.evaluate(store, now=6.0)
        assert t["status"] == "firing" and t["previous"] == "pending"

    def test_pending_clears_without_firing(self):
        store = TimeSeriesStore()
        engine = self._engine(for_s=5.0)
        fill(store, "s.x", [2.0], t0=0.0)
        engine.evaluate(store, now=0.0)
        store.record("s.x", 0.1, ts=2.0)
        (t,) = engine.evaluate(store, now=2.0)
        assert t["status"] == "ok" and t["previous"] == "pending"
        state = engine.state("t.rule")
        assert state.fired_count == 0

    def test_hysteresis_prevents_strobing(self):
        store = TimeSeriesStore()
        engine = self._engine(clear=0.8)
        store.record("s.x", 2.0, ts=0.0)
        engine.evaluate(store, now=0.0)
        # drops below threshold but above the clear level: stays firing
        store.record("s.x", 0.9, ts=1.0)
        assert engine.evaluate(store, now=1.0) == []
        assert engine.state("t.rule").status == "firing"
        # crosses the clear level: now it clears
        store.record("s.x", 0.7, ts=2.0)
        (t,) = engine.evaluate(store, now=2.0)
        assert t["status"] == "ok" and t["previous"] == "firing"

    def test_below_direction(self):
        store = TimeSeriesStore()
        engine = self._engine(op="below", threshold=0.5)
        store.record("s.x", 0.2, ts=0.0)
        (t,) = engine.evaluate(store, now=0.0)
        assert t["status"] == "firing"

    def test_min_count_holds_judgement(self):
        store = TimeSeriesStore()
        engine = self._engine(min_count=3)
        fill(store, "s.x", [5.0, 5.0], t0=0.0)
        assert engine.evaluate(store, now=1.0) == []  # 2 < min_count
        store.record("s.x", 5.0, ts=2.0)
        (t,) = engine.evaluate(store, now=2.0)
        assert t["status"] == "firing"

    def test_missing_series_reads_as_ok(self):
        engine = self._engine()
        assert engine.evaluate(TimeSeriesStore(), now=0.0) == []

    def test_window_excludes_stale_breaches(self):
        store = TimeSeriesStore()
        engine = self._engine(window_s=10.0, stat="max")
        store.record("s.x", 5.0, ts=0.0)  # old spike
        store.record("s.x", 0.1, ts=100.0)
        assert engine.evaluate(store, now=100.0) == []

    def test_rate_of_change_kind(self):
        store = TimeSeriesStore()
        engine = self._engine(kind="rate_of_change", threshold=0.5,
                              window_s=100.0, min_count=2)
        fill(store, "s.x", [0.0, 2.0], t0=0.0, dt=1.0)  # slope 2.0/s
        (t,) = engine.evaluate(store, now=1.0)
        assert t["status"] == "firing"
        assert t["value"] == pytest.approx(2.0)

    def test_rate_of_change_needs_two_points(self):
        store = TimeSeriesStore()
        engine = self._engine(kind="rate_of_change", threshold=0.5,
                              min_count=1)
        store.record("s.x", 9.0, ts=0.0)
        assert engine.evaluate(store, now=0.0) == []

    def test_fired_alarms_shape_and_worst_value(self):
        store = TimeSeriesStore()
        engine = self._engine(kind="budget", stat="last")
        store.record("s.x", 2.0, ts=0.0)
        engine.evaluate(store, now=0.0)
        store.record("s.x", 3.5, ts=1.0)  # worse while firing
        engine.evaluate(store, now=1.0)
        (alarm,) = engine.fired_alarms()
        assert alarm == {
            "kind": "alert_budget", "rule": "t.rule", "metric": "s.x",
            "stat": "last", "value": 3.5, "threshold": 1.0,
            "severity": "warning", "count": 1,
        }

    def test_no_alarms_when_nothing_fired(self):
        engine = self._engine()
        assert engine.fired_alarms() == []

    def test_refire_increments_count(self):
        store = TimeSeriesStore()
        engine = self._engine(window_s=5.0)
        store.record("s.x", 2.0, ts=0.0)
        engine.evaluate(store, now=0.0)
        store.record("s.x", 0.1, ts=1.0)
        engine.evaluate(store, now=1.0)  # clears
        store.record("s.x", 2.0, ts=2.0)
        engine.evaluate(store, now=2.0)  # fires again
        (alarm,) = engine.fired_alarms()
        assert alarm["count"] == 2

    def test_to_dict_view(self):
        engine = self._engine()
        view = engine.to_dict()
        assert view["t.rule"]["status"] == "ok"
        assert view["t.rule"]["series"] == "s.x"


class TestBuiltinRules:
    def test_phase_budgets_match_the_paper_constants(self):
        rules = {r.name: r for r in builtin_rules()}
        for domain in ("fastsim", "mac"):
            p50 = rules[f"{domain}.phase_error_p50"]
            p95 = rules[f"{domain}.phase_error_p95"]
            assert p50.threshold == PHASE_ERROR_BUDGET_MEDIAN_RAD
            assert p95.threshold == PHASE_ERROR_BUDGET_P95_RAD
            assert p50.kind == p95.kind == "budget"
            assert p95.severity == "critical"
            assert p50.series == p95.series == f"{domain}.phase_error_rad"
        floor = rules["runtime.worker_utilization_floor"]
        assert floor.op == "below" and floor.clear == 0.6

    def test_builtin_p95_budget_fires_on_degraded_sync(self):
        store = TimeSeriesStore()
        engine = AlertEngine(builtin_rules())
        fill(store, "fastsim.phase_error_rad", [0.2] * 10, t0=0.0)
        transitions = engine.evaluate(store, now=9.0)
        fired = {t["rule"] for t in transitions if t["status"] == "firing"}
        assert "fastsim.phase_error_p95" in fired
        assert "fastsim.phase_error_p50" in fired
        assert "mac.phase_error_p50" not in fired  # no mac data

    def test_builtin_budgets_stay_quiet_within_budget(self):
        store = TimeSeriesStore()
        engine = AlertEngine(builtin_rules())
        fill(store, "fastsim.phase_error_rad", [0.005] * 10, t0=0.0)
        assert engine.evaluate(store, now=9.0) == []


class TestRunVerdict:
    """The end-of-run pass: budget rules judge the run-wide histogram."""

    def _run(self, values):
        """A MAC run's phase-error telemetry: histogram + live series."""
        store, registry = TimeSeriesStore(), MetricsRegistry()
        hist = registry.histogram("mac.phase_error_rad")
        series = store.series("mac.phase_error_rad")
        for v in values:
            hist.observe(v)
            series.record(v)
        return store, registry

    def test_alarm_on_budget_breach(self):
        store, registry = self._run([2.0 * PHASE_ERROR_BUDGET_P95_RAD] * 25)
        alarms = AlertEngine(builtin_rules()).judge_run(store, registry)
        assert [a["rule"] for a in alarms] == [
            "mac.phase_error_p50", "mac.phase_error_p95",
        ]
        p95 = alarms[1]
        assert p95["kind"] == "alert_budget" and p95["severity"] == "critical"
        assert p95["metric"] == "mac.phase_error_rad"
        assert p95["value"] > p95["threshold"] == PHASE_ERROR_BUDGET_P95_RAD

    def test_quiet_within_budget(self):
        store, registry = self._run([0.5 * PHASE_ERROR_BUDGET_MEDIAN_RAD] * 25)
        assert AlertEngine(builtin_rules()).judge_run(store, registry) == []

    def test_quiet_with_too_few_samples(self):
        rules = builtin_rules()
        min_count = {r.name: r.min_count for r in rules}["mac.phase_error_p95"]
        store, registry = self._run(
            [10 * PHASE_ERROR_BUDGET_P95_RAD] * (min_count - 1)
        )
        assert AlertEngine(rules).judge_run(store, registry) == []

    def test_early_breach_beyond_the_series_ring_still_alarms(self):
        # the breach is the run's first 600 samples; the next full ring of
        # healthy samples overwrites every one of them in the series
        bad = [10 * PHASE_ERROR_BUDGET_P95_RAD] * 600
        good = [0.5 * PHASE_ERROR_BUDGET_MEDIAN_RAD] * DEFAULT_CAPACITY
        store, registry = self._run(bad + good)
        engine = AlertEngine(builtin_rules())
        assert engine.evaluate(store) == []  # the live window is clean
        alarms = engine.judge_run(store, registry)
        assert [a["rule"] for a in alarms] == ["mac.phase_error_p95"]
        assert alarms[0]["value"] > PHASE_ERROR_BUDGET_P95_RAD


class TestLoadRules:
    def test_missing_default_path_yields_builtins(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert load_rules() == builtin_rules()

    def test_missing_explicit_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_rules(str(tmp_path / "nope.toml"))

    def test_repo_default_rules_file_is_all_comments(self, monkeypatch):
        # runs/alerts.toml ships as documented examples only: loading it
        # must not change the built-in behavior
        import pathlib

        repo = pathlib.Path(__file__).resolve().parents[2]
        monkeypatch.chdir(repo)
        assert load_rules() == builtin_rules()

    @pytest.mark.skipif(not HAVE_TOMLLIB, reason="tomllib needs Python 3.11+")
    def test_toml_overlay_replaces_adds_and_drops(self, tmp_path):
        path = tmp_path / "alerts.toml"
        path.write_text(
            '[[rule]]\n'
            'name = "fastsim.phase_error_p95"\n'
            'series = "fastsim.phase_error_rad"\n'
            'kind = "budget"\nstat = "p95"\n'
            'threshold = 0.03\nclear = 0.02\n'
            '\n'
            '[[rule]]\n'
            'name = "custom.throughput_floor"\n'
            'series = "runtime.trials_per_s"\n'
            'op = "below"\nthreshold = 1.0\n'
            '\n'
            '[[rule]]\n'
            'name = "runtime.worker_utilization_floor"\n'
            'enabled = false\n'
        )
        rules = {r.name: r for r in load_rules(str(path))}
        assert rules["fastsim.phase_error_p95"].threshold == 0.03  # replaced
        assert rules["fastsim.phase_error_p95"].clear == 0.02
        assert rules["custom.throughput_floor"].op == "below"  # added
        assert "runtime.worker_utilization_floor" not in rules  # dropped
        assert "mac.phase_error_p95" in rules  # untouched built-in survives

    @pytest.mark.skipif(not HAVE_TOMLLIB, reason="tomllib needs Python 3.11+")
    def test_unknown_keys_raise(self, tmp_path):
        path = tmp_path / "alerts.toml"
        path.write_text(
            '[[rule]]\nname = "a.b"\nseries = "s"\nthreshold = 1.0\n'
            'treshold = 2.0\n'  # typo must not be silently ignored
        )
        with pytest.raises(ValueError, match="treshold"):
            load_rules(str(path))

    @pytest.mark.skipif(not HAVE_TOMLLIB, reason="tomllib needs Python 3.11+")
    def test_missing_required_keys_raise(self, tmp_path):
        path = tmp_path / "alerts.toml"
        path.write_text('[[rule]]\nseries = "s"\nthreshold = 1.0\n')
        with pytest.raises(ValueError, match="name"):
            load_rules(str(path))

    @pytest.mark.skipif(not HAVE_TOMLLIB, reason="tomllib needs Python 3.11+")
    def test_rule_without_threshold_raises(self, tmp_path):
        path = tmp_path / "alerts.toml"
        path.write_text('[[rule]]\nname = "a.b"\nseries = "s"\n')
        with pytest.raises(ValueError, match="threshold"):
            load_rules(str(path))
