"""Self-test of the benchmark harness (not part of the repository's suite).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Every workload runs at its tiny size, so the whole file takes about a
minute on a 2-core box.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
NAMES = sorted(WORKLOADS)


def bench(workload, seed=3, trace=0, seconds=0.5, env=None, cwd=ROOT):
    """Run the benchmark command at tiny size; (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, env=dict(os.environ, **(env or {})),
        capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def result_of(lines):
    return json.loads(lines[-1])


@pytest.fixture(autouse=True)
def _program_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_PROGRESS", "0")
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def test_spec_workloads_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]


def test_spec_names_and_units_are_well_formed():
    entries = SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    for entry in entries:
        assert NAME.match(entry["name"]), entry
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher"), entry


def test_every_wrapped_family_has_a_prediction():
    families = set(layers.WRAPPED) | set(layers.MAC_COUNTERS) | set(layers.RUNTIME_METRICS)
    families.add("mac.delivery_ratio")
    assert families <= set(layers.PREDICTIONS)
    for family in layers.WRAPPED:
        assert layers.layer_of(family) in layers.LAYERS


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_spec_metric_is_emitted_with_its_unit(workload, trace):
    code, lines, err = bench(workload, trace=trace)
    assert code == 0, err
    result = result_of(lines)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, err
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    stamp = json.loads(lines[-2].split(" ", 1)[1])
    for key in ("nproc", "python", "numpy", "blas", "git_sha", "seed"):
        assert key in stamp


@pytest.mark.parametrize("workload", NAMES)
def test_same_seed_gives_identical_counts(workload):
    runs = []
    for _ in range(2):
        code, lines, err = bench(workload, trace=1)
        assert code == 0, err
        runs.append(result_of(lines)["metrics"])
    counted = [
        name for name in runs[0]
        if name.endswith(".calls") or name in layers.MAC_COUNTERS
        or name == "runtime.chunks"
    ]
    assert counted
    assert {n: runs[0][n]["value"] for n in counted} == {
        n: runs[1][n]["value"] for n in counted
    }


@pytest.mark.parametrize("workload", NAMES)
def test_wrapper_calls_equal_cprofile_calls(workload, tmp_path):
    """A missed binding site shows up as a wrapper count below cProfile's."""
    w = WORKLOADS[workload]
    size = SIZES["tiny"][workload]
    seeds = [measure.sub_seed(5, k) for k in range(2)]
    w.run_pass(size, seeds[0])  # warm caches and lazy imports

    def passes():
        for s in seeds:
            w.run_pass(size, s)

    expected = tracing.profile_counts(passes, str(tmp_path))
    col = tracing.Collector(shard_dir=str(tmp_path))
    patches = tracing.install(col)
    try:
        passes()
    finally:
        patches.restore()
    col.merge_shards()
    got = dict(zip(col.names, col.calls))
    assert got == expected
    assert sum(got.values()) > 0


def test_restore_leaves_no_wrapper_behind(tmp_path):
    import repro.mac.simulator as simulator
    import repro.sim.fastsim as fastsim

    original = fastsim.zero_forcing_precoder_wideband
    patches = tracing.install(tracing.Collector(shard_dir=str(tmp_path)))
    assert simulator.zero_forcing_precoder_wideband is not original
    patches.restore()
    assert fastsim.zero_forcing_precoder_wideband is original
    assert simulator.zero_forcing_precoder_wideband is original


@pytest.mark.parametrize("trace", [0, 1])
def test_injected_failure_is_counted_not_fatal(trace):
    code, lines, err = bench(
        "phy_joint_tx", trace=trace, env={measure.INJECT_ENV: "0"}
    )
    assert code == 0, err
    result = result_of(lines)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    if trace:
        assert result["metrics"]["failed_frac"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, _ = bench("fig9_sweep", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_tail_percentile_keeps_ten_samples_beyond():
    p50, tail_value, pct = measure.tail([float(i) for i in range(40)])
    assert tail_value == 29.0 and pct == 75.0
    assert p50 == 19.5
    assert measure.tail([1.0] * 10)[1:] == (0.0, 0.0)
