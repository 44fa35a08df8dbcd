"""Differential harness: every sweep kernel in-process, rechunked, pooled.

Each workload below is a tiny configuration of one of the sweep runners.
The reference is the in-process run at the engine's default chunk size;
for each (workload, mode) pair we assert that the mode reproduces it **bit
for bit** — equality is checked on a SHA-256 digest of the canonical-JSON
rendering of the full result payload, so a single ULP of drift anywhere
fails the pair.  The modes are ``chunk1`` (in-process, one trial per
kernel call) and ``process`` (the process pool with two workers).

The stacked kernels of fig6, fig9 and the SINR grid are also checked
against per-seed scalar oracles kept in this file: running the sweep with
the kernel replaced by its oracle, mapped over the chunk's seeds, must
give the same digest.

Cross-machine stability is pinned separately: a scalar aggregate of each
serial payload is compared against ``tests/data/golden.json`` at rel=1e-9
(digests themselves are compared only within one process, where BLAS/FFT
bitwise reproducibility is guaranteed).
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.channel.models import random_channel_matrix
from repro.constants import MAC_EFFICIENCY
from repro.core.beamforming import (
    snr_reduction_from_misalignment,
    zero_forcing_precoder_wideband,
)
from repro.mac.rate import EffectiveSnrRateSelector
from repro.obs.events import jsonable
from repro.runtime import engine
from repro.sim import experiments, fastsim
from repro.sim.ablations import run_sync_strategy_ablation
from repro.sim.experiments import run_fig6, run_fig8, run_fig9, run_fig11
from repro.sim.fastsim import (
    build_channel_tensor,
    draw_band_snrs,
    joint_zf_sinr_db,
    run_sinr_grid,
    unicast_snr_db,
)
from repro.utils.rng import ensure_rng
from repro.utils.units import db_to_linear, linear_to_db

GOLDEN = json.loads(
    (Path(__file__).parent.parent / "data" / "golden.json").read_text()
)


def digest(payload) -> str:
    """SHA-256 over the canonical JSON rendering of a result payload."""
    canon = json.dumps(jsonable(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _flatten(obj):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _flatten(obj[key])
    elif isinstance(obj, list):
        for item in obj:
            yield from _flatten(item)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield float(obj)


def aggregate(payload) -> float:
    """Mean of every number in the payload — the cross-machine fingerprint."""
    values = list(_flatten(jsonable(payload)))
    return sum(values) / len(values)


# ---------------------------------------------------------------------------
# Workload registry: name -> runner(**runtime_kwargs) -> jsonable payload.
# Configurations are deliberately tiny; the point is coverage of every
# registered sweep kernel, not statistical power.
# ---------------------------------------------------------------------------


def _sinr_grid(**kw):
    return run_sinr_grid(seed=12, sizes=(2, 3), n_trials=6, **kw)


def _fig6(**kw):
    res = run_fig6(seed=1, n_channels=8, **kw)
    return {str(s): list(curve) for s, curve in res.reduction_db.items()}


def _fig8(**kw):
    res = run_fig8(seed=3, n_receivers=(2, 3), n_topologies=3, n_packets=2, **kw)
    return {band: list(curve) for band, curve in res.inr_db.items()}


def _fig9(**kw):
    res = run_fig9(seed=4, n_aps=(2, 3), n_topologies=4, **kw)
    return {
        f"{band}/{n}": {
            "megamimo_bps": list(cell.megamimo_bps),
            "baseline_bps": list(cell.baseline_bps),
            "gains": list(cell.per_client_gains),
        }
        for (band, n), cell in sorted(res.cells.items())
    }


def _fig11(**kw):
    res = run_fig11(seed=5, n_aps_list=(2,), snr_db=(0.0, 10.0), n_draws=4, **kw)
    return {str(n): list(curve) for n, curve in res.throughput_mbps.items()}


def _sync_ablation(**kw):
    res = run_sync_strategy_ablation(
        seed=7,
        strategies=("megamimo", "none"),
        delays_s=(2e-3, 50e-3),
        n_systems=2,
        **kw,
    )
    return {s: list(curve) for s, curve in res.misalignment_rad.items()}


WORKLOADS = {
    "sinr_grid": _sinr_grid,
    "fig6": _fig6,
    "fig8": _fig8,
    "fig9": _fig9,
    "fig11": _fig11,
    "sync_ablation": _sync_ablation,
}

# Modes: name -> (runner kwargs, engine default chunk size or None).
MODES = {
    "chunk1": ({}, 1),
    "process": ({"workers": 2}, None),
}

PAIRS = [(workload, mode) for workload in WORKLOADS for mode in MODES]

_serial_cache: dict = {}


def serial_payload(workload: str):
    if workload not in _serial_cache:
        _serial_cache[workload] = WORKLOADS[workload]()
    return _serial_cache[workload]


@pytest.mark.parametrize(
    "workload,mode", PAIRS, ids=[f"{w}-{m}" for w, m in PAIRS]
)
def test_backend_reproduces_serial_digest(workload, mode, monkeypatch):
    reference = digest(serial_payload(workload))
    kwargs, chunk_size = MODES[mode]
    if chunk_size is not None:
        monkeypatch.setattr(engine, "DEFAULT_CHUNK_SIZE", chunk_size)
    assert digest(WORKLOADS[workload](**kwargs)) == reference


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_serial_aggregate_matches_golden(workload):
    expected = GOLDEN["backend_equivalence"][workload]
    assert aggregate(serial_payload(workload)) == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------------------
# Scalar oracles: one trial per seed, per-subcarrier and per-client loops.
# ---------------------------------------------------------------------------


def sinr_grid_oracle(params, seed):
    rng = ensure_rng(seed)
    n = params["n"]
    error_model = params["error_model"]
    snrs = draw_band_snrs(tuple(params["band"]), n, n, rng)
    channels = build_channel_tensor(snrs, rng)
    est = error_model.corrupt_estimate(channels, snrs, rng)
    errors = error_model.phase_errors(n, rng)
    sinr_db = joint_zf_sinr_db(channels, phase_errors=errors, est_channels=est)
    return {
        "mean_sinr_db": float(np.mean(sinr_db)),
        "min_sinr_db": float(np.min(sinr_db)),
        "max_sinr_db": float(np.max(sinr_db)),
    }


def fig6_oracle(params, seed):
    h = random_channel_matrix(params["n_rx"], params["n_tx"], rng=ensure_rng(seed))
    return [
        [float(np.mean(snr_reduction_from_misalignment(h, m, snr)))
         for m in params["misalignments"]]
        for snr in params["snrs_db"]
    ]


def _screened_channels_oracle(n, rng, max_penalty_db, max_attempts=100):
    best_channels, best_penalty = None, np.inf
    for _ in range(max_attempts):
        channels = build_channel_tensor(draw_band_snrs((19.0, 21.0), n, n, rng), rng)
        if max_penalty_db is None:
            return channels
        _, k = zero_forcing_precoder_wideband(channels)
        best = float(np.mean(np.max(np.mean(np.abs(channels) ** 2, axis=0), axis=1)))
        penalty = float(linear_to_db(best) - linear_to_db(k**2))
        if penalty <= max_penalty_db:
            return channels
        if penalty < best_penalty:
            best_channels, best_penalty = channels, penalty
    return best_channels


def fig9_oracle(params, seed):
    rng = ensure_rng(seed)
    n = params["n"]
    band = params["band"]
    error_model = params["error_model"]
    selector = EffectiveSnrRateSelector(
        params["sample_rate"], mac_efficiency=MAC_EFFICIENCY
    )
    channels = _screened_channels_oracle(n, rng, params["max_penalty_db"])
    _, k = zero_forcing_precoder_wideband(channels)
    target_db = float(rng.uniform(band[0], band[1]))
    channels = channels * np.sqrt(db_to_linear(target_db) / k**2)
    link_snrs_db = linear_to_db(np.mean(np.abs(channels) ** 2, axis=0))
    est = error_model.corrupt_estimate(channels, link_snrs_db, rng)
    errors = error_model.phase_errors(n, rng)
    sinr_db = joint_zf_sinr_db(channels, phase_errors=errors, est_channels=est)
    stream_rates = np.array([selector.goodput(sinr_db[c]) for c in range(n)])
    best_ap = np.argmax(link_snrs_db, axis=1)
    unicast_rates = np.array(
        [selector.goodput(unicast_snr_db(channels, c, int(best_ap[c])))
         for c in range(n)]
    )
    baseline_per_client = unicast_rates / n
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(
            baseline_per_client > 0,
            stream_rates / np.maximum(baseline_per_client, 1e-9),
            np.nan,
        )
    return {
        "megamimo_bps": float(np.sum(stream_rates)),
        "baseline_bps": float(np.mean(unicast_rates)),
        "gains": g[np.isfinite(g)].tolist(),
    }


# workload -> (module, kernel name, per-seed oracle)
ORACLES = {
    "sinr_grid": (fastsim, "sinr_grid_kernel", sinr_grid_oracle),
    "fig6": (experiments, "fig6_kernel", fig6_oracle),
    "fig9": (experiments, "fig9_kernel", fig9_oracle),
}


@pytest.mark.parametrize("workload", sorted(ORACLES))
def test_kernel_matches_scalar_oracle(workload, monkeypatch):
    reference = digest(serial_payload(workload))
    module, name, oracle = ORACLES[workload]
    monkeypatch.setattr(
        module, name, lambda params, seeds: [oracle(params, s) for s in seeds]
    )
    assert digest(WORKLOADS[workload]()) == reference


def test_batched_checkpoint_resume_mid_sweep(tmp_path):
    """Kill a sweep mid-flight; the resume must be bit-identical."""
    ck = tmp_path / "grid.jsonl"
    fresh = _sinr_grid(checkpoint=str(ck))
    lines = ck.read_text().splitlines()
    assert len(lines) > 2  # header + at least two chunk records
    ck.write_text("\n".join(lines[:2]) + "\n")
    resumed = _sinr_grid(checkpoint=str(ck), resume=True)
    assert digest(resumed) == digest(fresh) == digest(serial_payload("sinr_grid"))


def test_in_process_checkpoint_resumes_on_the_pool(tmp_path):
    """Chunk geometry does not depend on ``workers``, so checkpoints transfer."""
    ck = tmp_path / "grid.jsonl"
    _sinr_grid(checkpoint=str(ck))
    lines = ck.read_text().splitlines()
    ck.write_text("\n".join(lines[:2]) + "\n")
    resumed = _sinr_grid(workers=2, checkpoint=str(ck), resume=True)
    assert digest(resumed) == digest(serial_payload("sinr_grid"))
