"""Smoke tests of scripts/bench_sweeps.py: the record and the speedup gate.

The script times each workload in-process and on the process pool, refuses
to record a run whose two legs disagree bit for bit, and can gate the fig9
pool speedup.  Running it here keeps the record format and the gate's
failure modes from silently rotting between CI bench jobs.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def load_script():
    spec = importlib.util.spec_from_file_location(
        "bench_sweeps", REPO_ROOT / "scripts" / "bench_sweeps.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def script():
    return load_script()


class TestRecord:
    @pytest.fixture(scope="class")
    def quick_run(self, script, tmp_path_factory):
        """One quick in-process + pool run of the fastsim grid."""
        out = tmp_path_factory.mktemp("bench") / "bench.json"
        rc = script.main([
            "--quick", "--workloads", "fastsim_grid", "--no-ledger",
            "--workers", "2", "--output", str(out),
        ])
        doc = json.loads(out.read_text())
        return rc, doc["runs"][-1]["workloads"][0]

    def test_pool_leg_matches_in_process(self, quick_run):
        rc, entry = quick_run
        assert rc == 0  # a digest mismatch exits with an error instead
        assert entry["workload"] == "fastsim_grid"
        assert entry["workers"] == 2
        assert entry["serial_s"] > 0 and entry["parallel_s"] > 0
        assert entry["speedup"] == pytest.approx(
            entry["serial_s"] / entry["parallel_s"], rel=1e-2
        )
        assert entry["result_sha256"]

    def test_overhead_breakdowns(self, quick_run):
        _, entry = quick_run
        assert entry["overhead"]["sweeps"] >= 1
        assert 0 < entry["overhead"]["utilization"] <= 1.0
        assert entry["serial_overhead"]["dispatch_frac"] == pytest.approx(0.0, abs=0.05)

    def test_ledger_metrics(self, script, quick_run):
        _, entry = quick_run
        metrics = script.ledger_metrics({"workloads": [entry]})
        assert metrics["bench.fastsim_grid.serial_s"] == entry["serial_s"]
        assert metrics["bench.fastsim_grid.parallel_s"] == entry["parallel_s"]
        assert metrics["bench.fastsim_grid.speedup"] == entry["speedup"]
        assert "bench.fastsim_grid.utilization" in metrics


class TestGateFailureModes:
    def test_gate_fails_below_floor(self, script, tmp_path, monkeypatch):
        monkeypatch.setattr(script, "_usable_cpus", lambda: 2)
        rc = script.main([
            "--quick", "--workloads", "fig9", "--no-ledger", "--workers", "2",
            "--check-speedup", "--min-speedup", "1e9",
            "--output", str(tmp_path / "bench.json"),
        ])
        assert rc == 1

    def test_gate_requires_fig9_workload(self, script, tmp_path, capsys):
        rc = script.main([
            "--quick", "--workloads", "fig6", "--no-ledger",
            "--skip-parallel", "--check-speedup",
            "--output", str(tmp_path / "bench.json"),
        ])
        assert rc == 2
        assert "not run" in capsys.readouterr().err
