"""Declarative alert rules evaluated live over the time-series store.

JMB's operating point degrades *quietly*: §7.3 shows joint-beamforming
gains collapse once the lead/slave phase error leaves a narrow budget, and
a sweep whose worker pool half-stalls still finishes — just late.  Both
failure modes are invisible in an exit snapshot and obvious in a live
window.  This module turns windows into verdicts.

An :class:`AlertRule` names a series in the
:class:`~repro.obs.timeseries.TimeSeriesStore`, a windowed statistic, a
comparison and a threshold.  Three rule kinds share that shape:

* ``threshold`` — plain comparison of the statistic against the bound.
* ``budget`` — the bound is a *paper budget* (the built-in §7.3
  phase-error rules use ``PHASE_ERROR_BUDGET_{MEDIAN,P95}_RAD`` from
  :mod:`repro.core.phasesync`); kept distinct so ledger alarms and
  dashboards can tell "tuning knob" from "reproduction-invalidating
  breach".  Live passes judge the series window like ``threshold``; the
  end-of-run pass (:meth:`AlertEngine.judge_run`) reads the statistic
  from the run-wide histogram of the same name, so a breach early in a
  long run still counts after the series ring has overwritten it.
* ``rate_of_change`` — per-second slope of the series over the window,
  compared against the bound (catches runaway drift before the level
  rule trips).

Two anti-flap mechanisms, both opt-in per rule:

* **for-duration debouncing** (``for_s``): a breach must persist — the
  rule sits in ``pending`` until the condition has held ``for_s``
  seconds, only then transitions to ``firing``.
* **hysteresis** (``clear``): once firing, the rule clears only when the
  statistic crosses the ``clear`` level (defaults to the threshold), so a
  value oscillating around the bound does not strobe.

:class:`AlertEngine` owns the rule set and the ok/pending/firing state
machine; every transition is emitted once as an ``obs.alert`` datum
(:func:`repro.obs.publish.emit`: flight recorder, trace, ``/events``)
and logged.  The CLI builds one engine per run command: a
``--serve-port`` server evaluates it live, and :meth:`AlertEngine
.judge_run` gives the end-of-run verdict that ledger alarms and
``--fail-on-alert`` read, with or without a server.  Rules
load from TOML (``runs/alerts.toml`` by default) layered over
:func:`builtin_rules`; TOML parsing needs :mod:`tomllib` (Python 3.11+)
and degrades to the built-ins with a warning on 3.10.
"""

from __future__ import annotations

import dataclasses
import os
import re
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.logging import get_logger
from repro.obs.metrics import Histogram, MetricsRegistry, get_registry
from repro.obs.publish import emit
from repro.obs.timeseries import TimeSeriesStore, get_store

logger = get_logger("obs.alerts")

#: Exit code for "an alert rule fired" (``--fail-on-alert`` on run
#: commands and on ``repro obs watch``).  Distinct from the regress
#: gate's 1 (breach) / 2 (no baseline).
EXIT_ALERT = 3

#: Default rules file, relative to the working directory (ledger-adjacent).
DEFAULT_RULES_PATH = os.path.join("runs", "alerts.toml")

#: Recognised rule kinds / statistics / comparison directions.
KINDS = ("threshold", "budget", "rate_of_change")
STATS = ("last", "mean", "min", "max", "p50", "p95")
OPS = ("above", "below")

#: Rule names follow the ``domain.metric`` convention that OBS002 enforces
#: for metric names (and OBS004 advises for alert rules): lowercase dotted
#: segments, so ledger alarms and exported series sort into families.
RULE_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")


@dataclasses.dataclass(frozen=True)
class AlertRule:
    """One declarative rule over a named series.

    Args:
        name: Rule identity (``domain.metric`` convention, see OBS004).
        series: Time-series name the rule watches.
        threshold: Bound the windowed statistic is compared against.
        kind: ``threshold`` | ``budget`` | ``rate_of_change``.
        stat: Windowed statistic (ignored for ``rate_of_change``).
        op: ``above`` fires when value > threshold, ``below`` when <.
        clear: Hysteresis level the value must re-cross to clear a firing
            rule; defaults to ``threshold`` (no hysteresis).
        for_s: Seconds a breach must persist before ``pending`` becomes
            ``firing`` (0 = fire immediately).
        window_s: Lookback window the statistic is computed over.
        min_count: Points required in the window before the rule judges
            at all (insufficient data reads as ``ok``).
        severity: ``warning`` or ``critical`` (advisory; ledger-visible).
        description: Human explanation shown by ``/alerts`` and ``watch``.
    """

    name: str
    series: str
    threshold: float
    kind: str = "threshold"
    stat: str = "last"
    op: str = "above"
    clear: Optional[float] = None
    for_s: float = 0.0
    window_s: float = 30.0
    min_count: int = 1
    severity: str = "warning"
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown alert kind {self.kind!r} (want {KINDS})")
        if self.stat not in STATS:
            raise ValueError(f"unknown alert stat {self.stat!r} (want {STATS})")
        if self.op not in OPS:
            raise ValueError(f"unknown alert op {self.op!r} (want {OPS})")
        if self.window_s <= 0:
            raise ValueError("window_s must be > 0")
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")
        if not RULE_NAME_RE.match(self.name):
            logger.warning(
                "alert rule %r does not follow the domain.metric naming "
                "convention (see lint rule OBS004)", self.name,
            )

    def clear_level(self) -> float:
        return self.threshold if self.clear is None else self.clear

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class AlertState:
    """Mutable evaluation state for one rule: ok -> pending -> firing."""

    __slots__ = ("rule", "status", "since", "value", "fired_count",
                 "worst_value", "last_transition_ts")

    def __init__(self, rule: AlertRule):
        self.rule = rule
        self.status = "ok"
        self.since: Optional[float] = None  # breach onset (pending/firing)
        self.value: Optional[float] = None
        self.fired_count = 0
        self.worst_value: Optional[float] = None
        self.last_transition_ts: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "rule": self.rule.name,
            "series": self.rule.series,
            "kind": self.rule.kind,
            "stat": self.rule.stat,
            "op": self.rule.op,
            "threshold": self.rule.threshold,
            "severity": self.rule.severity,
            "status": self.status,
            "since": self.since,
            "value": self.value,
            "fired_count": self.fired_count,
            "worst_value": self.worst_value,
            "description": self.rule.description,
        }


class AlertEngine:
    """Evaluates a rule set against a store; owns per-rule state machines."""

    def __init__(self, rules: Sequence[AlertRule]):
        self._states: Dict[str, AlertState] = {
            r.name: AlertState(r) for r in rules
        }

    @property
    def rules(self) -> List[AlertRule]:
        return [s.rule for s in self._states.values()]

    def state(self, name: str) -> Optional[AlertState]:
        return self._states.get(name)

    # -- evaluation ------------------------------------------------------------

    def _rule_value(
        self,
        rule: AlertRule,
        store: TimeSeriesStore,
        now: float,
        registry: Optional[MetricsRegistry],
    ) -> Optional[float]:
        """The rule's statistic; None = not enough data."""
        if registry is not None and rule.kind == "budget" and rule.stat != "last":
            hist = registry.get(rule.series)
            if isinstance(hist, Histogram):
                if hist.count < rule.min_count:
                    return None
                if rule.stat in ("p50", "p95"):
                    return float(hist.percentile(float(rule.stat[1:])))
                return float(getattr(hist, rule.stat))
        series = store.get(rule.series)
        if series is None:
            return None
        since = now - rule.window_s
        if rule.kind == "rate_of_change":
            pts = series.points(since=since)
            if len(pts) < max(rule.min_count, 2):
                return None
            (t0, v0), (t1, v1) = pts[0], pts[-1]
            if t1 <= t0:
                return None
            return (v1 - v0) / (t1 - t0)
        roll = series.rollup(since=since)
        if roll["count"] < rule.min_count:
            return None
        return float(roll[rule.stat])

    @staticmethod
    def _breached(rule: AlertRule, value: float) -> bool:
        return value > rule.threshold if rule.op == "above" else value < rule.threshold

    @staticmethod
    def _cleared(rule: AlertRule, value: float) -> bool:
        level = rule.clear_level()
        return value <= level if rule.op == "above" else value >= level

    def evaluate(
        self,
        store: TimeSeriesStore,
        now: Optional[float] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> List[dict]:
        """One evaluation pass; returns the list of state *transitions*.

        Each transition dict carries ``rule``/``series``/``status`` (the
        new state), ``previous``, the triggering ``value`` and the rule's
        threshold/severity — the exact payload the SSE ``alert`` frames
        and ledger alarms are built from.  With ``registry``, ``budget``
        rules read the run-wide histogram named by their series instead
        of the series window.
        """
        if now is None:
            now = time.time()
        transitions: List[dict] = []
        for state in self._states.values():
            rule = state.rule
            value = self._rule_value(rule, store, now, registry)
            state.value = value
            if value is None:
                continue  # insufficient data: hold current status
            if state.status in ("pending", "firing"):
                if state.worst_value is None:
                    state.worst_value = value
                elif rule.op == "above":
                    state.worst_value = max(state.worst_value, value)
                else:
                    state.worst_value = min(state.worst_value, value)
            new_status = state.status
            if state.status == "ok":
                if self._breached(rule, value):
                    new_status = "firing" if rule.for_s <= 0 else "pending"
                    state.since = now
                    state.worst_value = value
            elif state.status == "pending":
                if self._cleared(rule, value):
                    new_status = "ok"
                    state.since = None
                elif state.since is not None and now - state.since >= rule.for_s:
                    new_status = "firing"
            elif state.status == "firing":
                if self._cleared(rule, value):
                    new_status = "ok"
                    state.since = None
            if new_status == state.status:
                continue
            previous, state.status = state.status, new_status
            state.last_transition_ts = now
            if new_status == "firing":
                state.fired_count += 1
            transition = {
                "ts": now,
                "rule": rule.name,
                "series": rule.series,
                "kind": rule.kind,
                "status": new_status,
                "previous": previous,
                "value": value,
                "threshold": rule.threshold,
                "severity": rule.severity,
                "description": rule.description,
            }
            transitions.append(transition)
            emit("obs.alert", transition, ts=now)
            log = logger.warning if new_status == "firing" else logger.info
            log(
                "alert %s: %s -> %s (%s %s=%0.6g vs threshold %0.6g)",
                rule.name, previous, new_status, rule.series,
                "rate" if rule.kind == "rate_of_change" else rule.stat,
                value, rule.threshold,
            )
        return transitions

    # -- views -----------------------------------------------------------------

    def firing(self) -> List[dict]:
        return [s.to_dict() for s in self._states.values() if s.status == "firing"]

    def to_dict(self) -> dict:
        return {name: s.to_dict() for name, s in sorted(self._states.items())}

    def judge_run(
        self,
        store: Optional[TimeSeriesStore] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> List[dict]:
        """The end-of-run verdict: one pass over the whole run's telemetry.

        Samples ``registry`` into ``store`` (the process-global ones by
        default; counters such as ``runtime.watchdog_stalls`` get their
        final point), evaluates every rule once with ``budget`` rules
        reading the run-wide histograms, and returns :meth:`fired_alarms`
        — one alarm per rule that fired live or now.
        """
        store = store if store is not None else get_store()
        registry = registry if registry is not None else get_registry()
        now = time.time()
        store.sample_registry(registry, ts=now)
        self.evaluate(store, now=now, registry=registry)
        return self.fired_alarms()

    def fired_alarms(self) -> List[dict]:
        """Ledger-alarm dicts, one per rule that fired at least once."""
        alarms = []
        for state in self._states.values():
            if state.fired_count == 0:
                continue
            alarms.append({
                "kind": f"alert_{state.rule.kind}",
                "rule": state.rule.name,
                "metric": state.rule.series,
                "stat": state.rule.stat,
                "value": state.worst_value,
                "threshold": state.rule.threshold,
                "severity": state.rule.severity,
                "count": state.fired_count,
            })
        return alarms


# ---------------------------------------------------------------------------
# Rule sources: built-ins + TOML overlay
# ---------------------------------------------------------------------------


def builtin_rules() -> Tuple[AlertRule, ...]:
    """Default rules: §7.3 phase budgets, utilization floor, watchdog stalls.

    The budget thresholds come straight from
    :mod:`repro.core.phasesync` (imported lazily — this module stays
    importable without pulling the PHY stack at package-init time).
    """
    from repro.core.phasesync import (
        PHASE_ERROR_BUDGET_MEDIAN_RAD,
        PHASE_ERROR_BUDGET_P95_RAD,
    )

    rules: List[AlertRule] = []
    for domain in ("fastsim", "mac"):
        series = f"{domain}.phase_error_rad"
        rules.append(AlertRule(
            name=f"{domain}.phase_error_p50",
            series=series,
            kind="budget",
            stat="p50",
            op="above",
            threshold=PHASE_ERROR_BUDGET_MEDIAN_RAD,
            window_s=60.0,
            min_count=8,
            severity="warning",
            description=(
                "median lead/slave phase error above the paper's §7.3 "
                "median budget"
            ),
        ))
        rules.append(AlertRule(
            name=f"{domain}.phase_error_p95",
            series=series,
            kind="budget",
            stat="p95",
            op="above",
            threshold=PHASE_ERROR_BUDGET_P95_RAD,
            window_s=60.0,
            min_count=8,
            severity="critical",
            description=(
                "p95 lead/slave phase error above the §7.3 budget — "
                "joint-beamforming gains are collapsing"
            ),
        ))
    rules.append(AlertRule(
        name="runtime.watchdog_stall",
        series="runtime.watchdog_stalls",
        kind="threshold",
        stat="last",
        op="above",
        threshold=0.0,
        window_s=3600.0,
        min_count=1,
        severity="critical",
        description=(
            "the worker watchdog declared a stalled chunk — a hung "
            "worker was abandoned and its work re-run serially; see the "
            "runs/crash-<runid>/ forensics bundle"
        ),
    ))
    rules.append(AlertRule(
        name="runtime.worker_utilization_floor",
        series="runtime.worker_utilization",
        kind="threshold",
        stat="mean",
        op="below",
        threshold=0.5,
        clear=0.6,
        for_s=5.0,
        window_s=20.0,
        min_count=4,
        severity="warning",
        description=(
            "worker pool running below half busy for 5s — dispatch "
            "starvation or a straggler tail"
        ),
    ))
    return tuple(rules)


def _rule_from_toml(entry: dict) -> AlertRule:
    known = {f.name for f in dataclasses.fields(AlertRule)}
    unknown = set(entry) - known - {"enabled"}
    if unknown:
        raise ValueError(
            f"unknown alert-rule keys {sorted(unknown)} "
            f"(known: {sorted(known)})"
        )
    kwargs = {k: v for k, v in entry.items() if k in known}
    for key in ("name", "series"):
        if key not in kwargs:
            raise ValueError(f"alert rule missing required key {key!r}: {entry}")
    if "threshold" not in kwargs:
        raise ValueError(f"alert rule {kwargs['name']!r} missing 'threshold'")
    return AlertRule(**kwargs)


def load_rules(path: Optional[str] = None) -> Tuple[AlertRule, ...]:
    """Built-in rules overlaid with ``[[rule]]`` tables from a TOML file.

    TOML rules replace same-named built-ins; ``enabled = false`` drops a
    built-in without replacement.  A missing file (or a missing
    :mod:`tomllib`, i.e. Python < 3.11) yields the built-ins — with a
    warning in the latter case, since the user asked for a file we
    cannot parse.
    """
    rules = {r.name: r for r in builtin_rules()}
    explicit = path is not None
    if path is None:
        path = DEFAULT_RULES_PATH
    if not os.path.exists(path):
        if explicit:
            raise FileNotFoundError(f"alert rules file not found: {path}")
        return tuple(rules.values())
    try:
        import tomllib
    except ImportError:  # Python 3.10: stdlib TOML parser is absent
        logger.warning(
            "cannot parse %s: tomllib requires Python >= 3.11; "
            "using built-in alert rules only", path,
        )
        return tuple(rules.values())
    with open(path, "rb") as f:
        doc = tomllib.load(f)
    for entry in doc.get("rule", []):
        name = entry.get("name")
        if not name:
            raise ValueError(f"alert rule missing required key 'name': {entry}")
        if entry.get("enabled", True) is False:
            rules.pop(name, None)
            continue
        rules[name] = _rule_from_toml(entry)
    return tuple(rules.values())
