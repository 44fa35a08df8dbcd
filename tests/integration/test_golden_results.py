"""Golden-result regression: fixed-seed experiment outputs must not drift.

The experiment runners are fully seeded, so any change to the PHY, channel
models, error calibration or rate tables shows up here as an exact-value
drift — the earliest possible signal that a refactor changed the physics.
Reference values live in tests/data/golden.json; regenerate them
deliberately (with justification in the commit) when behaviour is *meant*
to change.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.mac.backhaul import BackhaulConfig
from repro.mac.simulator import DownlinkSimulator, LinkLayerConfig
from repro.sim.experiments import run_fig6, run_fig8, run_fig9, run_fig12

GOLDEN = json.loads((Path(__file__).parent.parent / "data" / "golden.json").read_text())


class TestGolden:
    def test_fig6(self):
        r = run_fig6(seed=1, n_channels=50)
        assert r.reduction_at(20.0, 0.35) == pytest.approx(
            GOLDEN["fig6_loss_035_20db"], rel=1e-9
        )
        assert r.reduction_at(10.0, 0.35) == pytest.approx(
            GOLDEN["fig6_loss_035_10db"], rel=1e-9
        )

    def test_fig8(self):
        r = run_fig8(seed=3, n_receivers=(2, 6, 10), n_topologies=4, n_packets=3)
        assert np.allclose(r.inr_db["high"], GOLDEN["fig8_inr_high"], rtol=1e-9)

    def test_fig9(self):
        r = run_fig9(seed=4, n_aps=(2, 6, 10), n_topologies=4)
        gains = [r.median_gain("high", n) for n in (2, 6, 10)]
        assert np.allclose(gains, GOLDEN["fig9_gain_high"], rtol=1e-9)
        assert np.allclose(
            r.mean_baseline_mbps("high"),
            GOLDEN["fig9_baseline_high_mbps"],
            rtol=1e-9,
        )

    def test_fig12(self):
        r = run_fig12(seed=6, n_topologies=6)
        for band, expected in GOLDEN["fig12_gains"].items():
            assert r.mean_gain(band) == pytest.approx(expected, rel=1e-9)


#: fixed-seed DownlinkSimulator configs pinned by ``mac_trace_digests``
MAC_CONFIGS = {
    "backlogged": dict(n_aps=4, n_clients=4, duration_s=0.05, seed=11),
    "poisson_backhaul": dict(
        n_aps=4, n_clients=4, duration_s=0.1, arrival_rate_pps=800.0,
        coherence_time_s=0.05, backhaul=BackhaulConfig(), seed=12,
    ),
    # three straight failures push the rate below the MCS floor mid-burst
    "mcs_floor_midburst": dict(
        n_aps=4, n_clients=4, duration_s=0.05, coherence_time_s=0.05, seed=3,
    ),
    "throughput_grouping": dict(
        n_aps=4, n_clients=4, duration_s=0.05, grouping="throughput", seed=14,
    ),
}


def mac_trace_digest(trace) -> str:
    """SHA-256 over a trace's counters, delivery log, goodput and airtime.

    Floats enter as ``float.hex`` so the digest pins them bit for bit.
    """
    rows = [
        [trace.n_transmissions, trace.n_failures, trace.n_soundings],
        [
            [d.client, d.arrival_time.hex(), d.delivery_time.hex(), d.retries]
            for d in trace.delivered
        ],
        [float(g).hex() for g in trace.per_client_goodput_bps],
        [[kind, float(s).hex()] for kind, s in sorted(trace.airtime.items())],
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


class TestGoldenMac:
    @pytest.mark.parametrize("name", sorted(MAC_CONFIGS))
    def test_trace_digest(self, name):
        trace = DownlinkSimulator(LinkLayerConfig(**MAC_CONFIGS[name])).run()
        assert trace.n_transmissions > 0
        if name == "poisson_backhaul":
            assert trace.n_failures > 0  # requeues are exercised
        assert mac_trace_digest(trace) == GOLDEN["mac_trace_digests"][name]


#: fixed-seed sample-level systems pinned by ``phy_joint_digests``; each
#: entry builds a system, sounds once and runs ``calls`` transmissions
PHY_CONFIGS = {
    # the benchmark's phy_joint_tx system: 4x4, Rician K=8, 25 dB, MCS 2
    **{
        f"rician4x4_seed{seed}": dict(
            system=dict(n_aps=4, n_clients=4, seed=seed), snr_db=25.0,
            mcs=2, payload_bytes=400, calls=2,
        )
        for seed in (1, 2, 3)
    },
    # some CRCs fail, some pass
    "low_snr_mixed": dict(
        system=dict(n_aps=3, n_clients=3, seed=5), snr_db=10.0,
        mcs=2, payload_bytes=200, calls=3,
    ),
    # every CRC fails and one SIGNAL field does not parse
    "low_snr_signal_loss": dict(
        system=dict(n_aps=3, n_clients=3, seed=5), snr_db=8.0,
        mcs=2, payload_bytes=200, calls=1,
    ),
    "detection": dict(
        system=dict(n_aps=2, n_clients=2, seed=8, use_detection=True),
        snr_db=20.0, mcs=2, payload_bytes=200, calls=2,
    ),
    # 64QAM-3/4: the rate-3/4 puncturing path
    "mcs7_2x2": dict(
        system=dict(n_aps=2, n_clients=2, seed=9), snr_db=32.0,
        mcs=7, payload_bytes=300, calls=2,
    ),
    "diversity": dict(
        system=dict(n_aps=3, n_clients=1, seed=10), snr_db=12.0,
        mcs=1, payload_bytes=100, calls=1, diversity=True,
    ),
    # without in-packet CFO tracking the slaves drift: some frames fail
    "no_tracking": dict(
        system=dict(n_aps=2, n_clients=2, seed=11,
                    sync_strategy="megamimo-no-tracking"),
        snr_db=25.0, mcs=0, payload_bytes=20, calls=2,
    ),
}


def phy_reports(name: str):
    """Run one ``PHY_CONFIGS`` entry; returns its JointTransmissionReports."""
    from repro import MegaMimoSystem, SystemConfig, get_mcs
    from repro.channel.models import RicianChannel

    spec = PHY_CONFIGS[name]
    system = MegaMimoSystem.create(
        SystemConfig(**spec["system"]),
        client_snr_db=spec["snr_db"],
        channel_model=RicianChannel(k_factor=8.0),
    )
    system.run_sounding(0.0)
    mcs = get_mcs(spec["mcs"])
    rng = np.random.default_rng(spec["system"]["seed"])
    reports = []
    for k in range(spec["calls"]):
        start = 1e-3 + k * 2e-3
        if spec.get("diversity"):
            payload = rng.bytes(spec["payload_bytes"])
            reports.append(system.diversity_transmit(payload, mcs, 0, start))
        else:
            payloads = [
                rng.bytes(spec["payload_bytes"])
                for _ in range(spec["system"]["n_clients"])
            ]
            reports.append(system.joint_transmit(payloads, mcs, start_time=start))
    return reports


def phy_reports_digest(reports) -> str:
    """SHA-256 over each reception's outcome and each slave's misalignment.

    Floats enter as ``float.hex`` so the digest pins them bit for bit.
    """
    rows = []
    for report in reports:
        rows.append([
            [
                [
                    bool(r.decoded.crc_ok),
                    r.decoded.payload.hex() if r.decoded.payload is not None else None,
                    float(r.effective_snr_db).hex(),
                    float(r.evm_db).hex(),
                ]
                for r in report.receptions
            ],
            [[ap, float(v).hex()] for ap, v in sorted(report.misalignment_rad.items())],
        ])
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


class TestGoldenPhy:
    @pytest.mark.parametrize("name", sorted(PHY_CONFIGS))
    def test_joint_digest(self, name):
        reports = phy_reports(name)
        outcomes = [r.decoded.crc_ok for rep in reports for r in rep.receptions]
        if name == "low_snr_mixed":
            assert any(outcomes) and not all(outcomes)
        if name == "low_snr_signal_loss":
            assert any(
                r.decoded.mcs is None for rep in reports for r in rep.receptions
            )
        assert phy_reports_digest(reports) == GOLDEN["phy_joint_digests"][name]
