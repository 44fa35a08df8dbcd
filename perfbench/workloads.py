"""The benchmark's workloads: inputs, one closed-loop pass, output checks.

Every workload drives the program only through public entry points.  A
*pass* is one unit of client work built from a sub-seed; the client issues
each call after the previous one returns.  Each pass returns a
:class:`PassResult` with the work it carried (for the throughput), the
operations it attempted and failed (for ``failed``/``attempted``), a
digest of its outputs and, on ``phy_joint_tx``, each call's latency.

Imports of the program happen inside functions, so importing this module
costs nothing that ``setup_s`` should see.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

#: sizes per workload; "tiny" is for the self-test only
SIZES = {
    "full": {
        "fig9_sweep": {"n_aps": (2, 4, 6, 8, 10), "n_topologies": 2},
        "mac_downlink": {"n_aps": 4, "n_clients": 4, "duration_s": 0.5},
        "phy_joint_tx": {"n_aps": 4, "n_clients": 4, "calls": 8,
                         "payload_bytes": 400, "mcs": 2},
        "grid_pool": {"sizes": (2, 4, 8), "n_trials": 512},
    },
    "tiny": {
        "fig9_sweep": {"n_aps": (2, 4), "n_topologies": 1},
        "mac_downlink": {"n_aps": 4, "n_clients": 4, "duration_s": 0.01},
        "phy_joint_tx": {"n_aps": 2, "n_clients": 2, "calls": 2,
                         "payload_bytes": 60, "mcs": 2},
        "grid_pool": {"sizes": (2, 4), "n_trials": 6},
    },
}

#: host seconds of one untraced full-size pass on the reference box
#: (2-core x86, Python 3.11); sizes the traced run's fixed pass list
NOMINAL_PASS_S = {
    "fig9_sweep": 1.3,
    "mac_downlink": 3.8,
    "phy_joint_tx": 1.4,
    "grid_pool": 1.7,
}


@dataclass
class PassResult:
    work: int  # units counted by the throughput
    attempted: int  # operations, for failed/attempted
    failed: int = 0
    digest: str = ""
    call_s: List[float] = field(default_factory=list)  # joint_transmit latencies
    problems: List[str] = field(default_factory=list)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _hash(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def _finite_positive(value: float) -> bool:
    return math.isfinite(value) and value > 0


# -- fig9_sweep ----------------------------------------------------------------


def fig9_setup(size: dict, seed: int):
    from repro.sim.experiments import SyncErrorModel, run_fig9  # noqa: F401

    return SyncErrorModel()


def fig9_pass(size: dict, seed: int) -> PassResult:
    import numpy as np

    from repro.sim.experiments import BAND_ORDER, run_fig9

    n_aps = tuple(size["n_aps"])
    n_top = size["n_topologies"]
    result = run_fig9(seed=seed, n_aps=n_aps, n_topologies=n_top)
    out = PassResult(work=len(BAND_ORDER) * len(n_aps) * n_top,
                     attempted=len(BAND_ORDER) * len(n_aps) * n_top)
    parts = []
    for band in BAND_ORDER:
        for n in n_aps:
            cell = result.cells[(band, n)]
            parts += [band, n, cell.megamimo_bps.tobytes(),
                      cell.baseline_bps.tobytes(), cell.per_client_gains.tobytes()]
            checks = (
                float(np.mean(cell.megamimo_bps)),
                float(np.mean(cell.baseline_bps)),
                result.median_gain(band, n),
            )
            if not all(_finite_positive(v) for v in checks):
                out.failed += len(cell.megamimo_bps)
                out.problems.append(f"fig9 cell ({band}, {n}): {checks}")
    out.digest = _hash(*parts)
    return out


# -- mac_downlink ----------------------------------------------------------------


def _mac_config(size: dict, seed: int):
    from repro.mac.simulator import LinkLayerConfig

    return LinkLayerConfig(
        n_aps=size["n_aps"], n_clients=size["n_clients"],
        duration_s=size["duration_s"], seed=seed,
    )


def mac_setup(size: dict, seed: int):
    from repro.mac.simulator import DownlinkSimulator

    return DownlinkSimulator(_mac_config(size, seed))


def mac_pass(size: dict, seed: int) -> PassResult:
    import numpy as np

    from repro.mac.simulator import DownlinkSimulator

    trace = DownlinkSimulator(_mac_config(size, seed)).run()
    out = PassResult(work=trace.n_transmissions, attempted=1)
    cfg = trace.config
    problems = []
    if len(trace.delivered) + trace.n_failures != trace.n_transmissions:
        problems.append("deliveries + failures != transmissions")
    if trace.n_soundings < 1:
        problems.append("no sounding")
    bits = np.zeros(cfg.n_clients)
    for d in trace.delivered:
        if not (0 <= d.client < cfg.n_clients) or d.latency_s < 0:
            problems.append(f"bad delivery {d}")
            break
        bits[d.client] += cfg.packet_bytes * 8
    if not np.array_equal(bits / cfg.duration_s, trace.per_client_goodput_bps):
        problems.append("goodput does not match the delivery log")
    if not all(math.isfinite(v) and v >= 0 for v in trace.airtime.values()):
        problems.append(f"bad airtime {trace.airtime}")
    if problems:
        out.failed = 1
        out.problems = problems
    out.digest = _hash(
        trace.n_transmissions, trace.n_failures, trace.n_soundings,
        [(d.client, d.delivery_time, d.retries) for d in trace.delivered],
        trace.per_client_goodput_bps.tobytes(), sorted(trace.airtime.items()),
    )
    return out


# -- phy_joint_tx ----------------------------------------------------------------


def _phy_system(size: dict, seed: int):
    from repro import MegaMimoSystem, SystemConfig
    from repro.channel.models import RicianChannel

    system = MegaMimoSystem.create(
        SystemConfig(n_aps=size["n_aps"], n_clients=size["n_clients"], seed=seed),
        client_snr_db=25.0,
        channel_model=RicianChannel(k_factor=8.0),
    )
    system.run_sounding(0.0)
    return system


def phy_setup(size: dict, seed: int):
    return _phy_system(size, seed)


def phy_pass(size: dict, seed: int) -> PassResult:
    import numpy as np

    from repro import get_mcs

    system = _phy_system(size, seed)
    mcs = get_mcs(size["mcs"])
    rng = np.random.default_rng(seed)
    n_streams = size["n_clients"]
    out = PassResult(work=0, attempted=0)
    parts = []
    for k in range(size["calls"]):
        payloads = [rng.bytes(size["payload_bytes"]) for _ in range(n_streams)]
        t0 = time.perf_counter()
        report = system.joint_transmit(payloads, mcs, start_time=1e-3 + k * 2e-3)
        out.call_s.append(time.perf_counter() - t0)
        out.attempted += 1
        out.work += n_streams
        bad = False
        for sent, rx in zip(payloads, report.receptions):
            ok = rx.decoded is not None and rx.decoded.crc_ok
            if ok and rx.decoded.payload != sent:
                bad = True
            parts += [ok, rx.decoded.payload if ok else b"", rx.effective_snr_db]
        if bad or len(report.receptions) != n_streams:
            out.failed += 1
            out.problems.append(f"call {k}: a crc_ok reception differs from its payload")
    out.digest = _hash(*parts)
    return out


# -- grid_pool -------------------------------------------------------------------


def grid_setup(size: dict, seed: int):
    from repro.runtime import run_sweep  # noqa: F401
    from repro.sim.fastsim import SyncErrorModel, run_sinr_grid  # noqa: F401

    return SyncErrorModel()


def _grid_digest(result: dict) -> str:
    return _hash(sorted((n, sorted(v.items())) for n, v in result.items()))


def grid_run(size: dict, seed: int, workers: int) -> dict:
    from repro.sim.fastsim import run_sinr_grid

    return run_sinr_grid(
        seed=seed, sizes=tuple(size["sizes"]), n_trials=size["n_trials"],
        workers=workers,
    )


def grid_pass(size: dict, seed: int) -> PassResult:
    result = grid_run(size, seed, workers=nproc())
    trials = len(size["sizes"]) * size["n_trials"]
    out = PassResult(work=trials, attempted=trials)
    for n, cell in result.items():
        values = (cell["min_sinr_db"], cell["mean_sinr_db"], cell["max_sinr_db"])
        if not (all(math.isfinite(v) for v in values) and values[0] <= values[1] <= values[2]):
            out.failed += size["n_trials"]
            out.problems.append(f"grid size {n}: {values}")
    out.digest = _grid_digest(result)
    return out


def grid_reference(size: dict, seed: int) -> str:
    """Digest of the same grid run in-process (``workers=1``)."""
    return _grid_digest(grid_run(size, seed, workers=1))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[dict, int], object]
    run_pass: Callable[[dict, int], PassResult]
    reference: Callable[[dict, int], str] = None


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "fig9_sweep",
            "run_fig9, N=2..10 APs x 3 SNR bands, 2 topologies a pass, workers=1 "
            "and the default backend: the headline figure; ZF screening in core, "
            "sim and channel, no PHY or MAC loop",
            fig9_setup, fig9_pass,
        ),
        Workload(
            "mac_downlink",
            "DownlinkSimulator, 4 APs x 4 clients, backlogged, 0.5 s simulated a "
            "pass: the link-layer loop (queue scan, per-packet channel rebuild, "
            "phase_sync span); no PHY, no sweep",
            mac_setup, mac_pass,
        ),
        Workload(
            "phy_joint_tx",
            "MegaMimoSystem 4x4, Rician K=8, one sounding, then 8 joint_transmit "
            "calls of 4 x 400 B at MCS 2 a pass: the only workload reaching phy, "
            "the medium and phase sync",
            phy_setup, phy_pass,
        ),
        Workload(
            "grid_pool",
            "run_sinr_grid, sizes 2,4,8 x 512 trials on the process pool with "
            "workers=nproc: worker start-up, pickling and chunk dispatch, a path "
            "no other workload reaches",
            grid_setup, grid_pass, grid_reference,
        ),
    )
}
