"""Regression detection: comparison semantics, exit codes, baselines."""

import json


from repro.cli import main
from repro.core.phasesync import PHASE_ERROR_BUDGET_P95_RAD
from repro.obs.regress import (
    EXIT_BREACH,
    EXIT_NO_BASELINE,
    EXIT_OK,
    compare,
    load_baseline,
    make_baseline,
    write_baseline,
)


def baseline_doc(**checks) -> dict:
    return {"schema": 1, "checks": checks}


class TestCompare:
    def test_within_tolerance_passes(self):
        report = compare(
            {"a": 1.05}, baseline_doc(a={"value": 1.0, "tol_rel": 0.1})
        )
        assert report.passed
        assert report.checks[0].status == "ok"

    def test_tolerance_is_max_of_abs_and_rel(self):
        base = baseline_doc(a={"value": 10.0, "tol_abs": 0.5, "tol_rel": 0.2})
        assert compare({"a": 11.9}, base).passed  # within 20% rel
        assert not compare({"a": 12.5}, base).passed

    def test_breach_names_the_metric(self):
        report = compare(
            {"a": 2.0}, baseline_doc(a={"value": 1.0, "tol_rel": 0.1})
        )
        assert not report.passed
        assert report.breaches[0].metric == "a"
        assert "FAILED" in report.format_table()
        assert "a" in report.format_table()

    def test_hard_max_breaches_even_within_tolerance(self):
        base = baseline_doc(
            p={"value": 0.03, "tol_rel": 5.0, "max": 0.05}
        )
        assert compare({"p": 0.04}, base).passed
        report = compare({"p": 0.06}, base)
        assert not report.passed
        assert "hard max" in report.breaches[0].detail

    def test_hard_min(self):
        base = baseline_doc(speedup={"value": 2.0, "tol_rel": 5.0, "min": 1.0})
        assert not compare({"speedup": 0.5}, base).passed

    def test_informational_never_breaches(self):
        base = baseline_doc(wall={"value": 1.0, "informational": True})
        report = compare({"wall": 99.0}, base)
        assert report.passed
        assert report.checks[0].status == "info"

    def test_missing_metric_fails_only_when_required(self):
        base = baseline_doc(a={"value": 1.0, "tol_rel": 0.1})
        strict = compare({}, base, require_all=True)
        assert not strict.passed
        assert strict.breaches[0].status == "missing"
        assert compare({}, base, require_all=False).passed

    def test_extra_current_metric_is_informational(self):
        report = compare({"new.metric": 5.0}, baseline_doc())
        assert report.passed
        assert report.checks[0].detail == "not in baseline"


class TestBaselineFiles:
    def test_write_then_load_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(str(path), {"sim.goodput_mbps": 28.5, "custom": 1.0})
        doc = load_baseline(str(path))
        assert doc["schema"] == 1
        # known metric gets its curated tolerance, unknown the fallback
        assert doc["checks"]["sim.goodput_mbps"]["tol_rel"] == 0.35
        assert doc["checks"]["custom"]["tol_rel"] == 0.25
        assert compare({"sim.goodput_mbps": 28.5, "custom": 1.0}, doc).passed

    def test_load_missing_or_malformed_is_none(self, tmp_path):
        assert load_baseline(str(tmp_path / "nope.json")) is None
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert load_baseline(str(bad)) is None
        no_checks = tmp_path / "empty.json"
        no_checks.write_text("{}")
        assert load_baseline(str(no_checks)) is None

    def test_phase_budget_is_a_hard_max(self):
        doc = make_baseline({"sync.phase_error_p95_rad": 0.03})
        spec = doc["checks"]["sync.phase_error_p95_rad"]
        assert spec["max"] == PHASE_ERROR_BUDGET_P95_RAD


class TestCliExitCodes:
    """``repro obs regress`` via the real CLI, with --current files (fast)."""

    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_pass_breach_and_missing_baseline(self, tmp_path, capsys):
        baseline = self._write(
            tmp_path, "baseline.json",
            baseline_doc(**{"sim.goodput_mbps": {"value": 28.0, "tol_rel": 0.1}}),
        )
        ok = self._write(tmp_path, "ok.json", {"sim.goodput_mbps": 28.5})
        bad = self._write(tmp_path, "bad.json", {"sim.goodput_mbps": 14.0})

        assert main(["obs", "regress", "--baseline", baseline,
                     "--current", ok]) == EXIT_OK
        assert main(["obs", "regress", "--baseline", baseline,
                     "--current", bad]) == EXIT_BREACH
        out = capsys.readouterr().out
        assert "sim.goodput_mbps" in out  # breached metric named on stdout
        assert main(["obs", "regress",
                     "--baseline", str(tmp_path / "missing.json"),
                     "--current", ok]) == EXIT_NO_BASELINE

    def test_update_baseline_writes_file(self, tmp_path):
        current = self._write(tmp_path, "cur.json", {"a": 1.0})
        baseline = tmp_path / "new_baseline.json"
        assert main(["obs", "regress", "--baseline", str(baseline),
                     "--current", current, "--update-baseline"]) == EXIT_OK
        assert load_baseline(str(baseline))["checks"]["a"]["value"] == 1.0
