"""Import-time dependency guards, each run in a subprocess behind a blocker.

CI's lint job installs only ruff and runs ``python -m repro.analysis``, so
importing ``repro.analysis`` — including the parent ``repro`` package
``__init__`` it triggers — must never pull in numpy or scipy (regression
test for the eager package ``__init__`` that once dragged numpy into the
lint job and failed every CI run).

The simulation itself needs numpy only: scipy is the test suite's oracle,
not a runtime dependency, so the paper system must import and run with
scipy blocked.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

BLOCKER = """\
import sys


class BlockRuntimeDeps:
    def __init__(self, *blocked):
        self.blocked = blocked

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in self.blocked:
            raise ImportError(f"blocked dependency imported: {name}")
        return None


"""

LINT_DRIVER = BLOCKER + """\
sys.meta_path.insert(0, BlockRuntimeDeps("numpy", "scipy"))

from repro.analysis.cli import main

sys.exit(main(["src", "--strict", "--format", "json"]))
"""

SIMULATION_DRIVER = BLOCKER + """\
sys.meta_path.insert(0, BlockRuntimeDeps("scipy"))

import json

import repro.cli
import repro.core.system
import repro.mac.simulator
import repro.sim.experiments

import numpy as np

from repro.channel.timevarying import channel_correlation
from repro.mac.rate import EffectiveSnrRateSelector
from repro.mac.simulator import DownlinkSimulator, LinkLayerConfig

rho = channel_correlation(0.25, 0.25)
decision = EffectiveSnrRateSelector(10e6).select(np.full(52, 20.0))
run = DownlinkSimulator(
    LinkLayerConfig(n_aps=2, n_clients=2, duration_s=0.01, seed=1)
).run()
print(json.dumps({
    "rho": rho,
    "mcs": decision.mcs.name,
    "transmissions": run.n_transmissions,
    "scipy_modules": sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"),
}))
"""


def _run(driver, cwd):
    return subprocess.run(
        [sys.executable, "-c", driver],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
    )


def test_lint_runs_with_numpy_and_scipy_blocked(tmp_path):
    mod = tmp_path / "src" / "repro" / "core" / "mod.py"
    mod.parent.mkdir(parents=True)
    mod.write_text("ok = True\n")
    proc = _run(LINT_DRIVER, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_paper_system_runs_with_scipy_blocked(tmp_path):
    proc = _run(SIMULATION_DRIVER, tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert abs(out["rho"] - 0.5) < 0.02  # Clarke J0 at the 50% coherence time
    assert out["mcs"] == "64QAM-2/3"  # flat 20 dB clears 64QAM-2/3's threshold
    assert out["transmissions"] > 0
    assert out["scipy_modules"] == []
