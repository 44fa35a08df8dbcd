"""One measurement process: set up, run a workload's passes, report JSON.

Started by ``run.py`` with BLAS threads pinned to 1, ``REPRO_PROGRESS=0``
and ``REPRO_RUNS_DIR`` pointed at a scratch directory.  Two modes:

``--setup-probe``
    Time import plus first-object construction in this fresh interpreter.

``--trace 0``
    A warm-up pass, then timed passes (fresh sub-seed each, the first one
    repeating the warm-up's inputs) until ``--seconds`` is used up.  Reports
    the end-to-end metrics.  ``ops_per_s`` is total work over total pass
    time, which weights each pass by its work (pass sizes vary by seed);
    ``ref_ops_per_s`` scales it by the calibration kernel's speed in the
    same run, relative to :data:`CAL_REF_RATE`.

``--trace 1``
    A warm-up pass, then a fixed list of passes run twice: untraced, then
    with the layer wrappers installed (see ``tracing.py``).  Reports the
    per-layer metrics.

The last line of standard output is one JSON object.
"""

import time

_T0 = time.perf_counter()  # before any program import: setup_s starts here

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from workloads import NOMINAL_PASS_S, SIZES, WORKLOADS, nproc  # noqa: E402

#: environment variable naming a timed pass (0-based) to fail on purpose
INJECT_ENV = "PERFBENCH_INJECT_FAILURE"
MIN_TIMED_PASSES = 3
#: calibration units per second on the reference box (2-core x86 VM,
#: Python 3.11, numpy 2.4); ``ref_ops_per_s`` is scaled to this host speed
CAL_REF_RATE = 2500.0


def sub_seed(seed: int, k: int) -> int:
    """The input seed of pass ``k`` of a run seeded with ``seed``."""
    digest = hashlib.sha256(f"perfbench:{seed}:{k}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


class Ledger:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def note(self, attempted: int, failed: int, problems) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems[: max(0, 20 - len(self.problems))])


def run_pass(workload, size, seed, ledger, nominal_ops, inject=False):
    """One checked pass; returns (PassResult or None, seconds)."""
    t0 = time.perf_counter()
    try:
        if inject:
            raise RuntimeError("injected failure")
        result = workload.run_pass(size, seed)
    except Exception as exc:  # a failed operation must not end the run
        elapsed = time.perf_counter() - t0
        ledger.note(nominal_ops, nominal_ops, [
            f"seed {seed}: {type(exc).__name__}: {exc}",
            traceback.format_exc(limit=3),
        ])
        return None, elapsed
    elapsed = time.perf_counter() - t0
    ledger.note(result.attempted, result.failed, result.problems)
    return result, elapsed


def check_repeat(first, again, ledger, what: str) -> None:
    if first is not None and again is not None and first.digest != again.digest:
        ledger.note(0, again.attempted, [f"{what}: digest {again.digest} != {first.digest}"])


def peak_rss_mb(workers: int) -> float:
    """Own peak RSS plus ``workers`` x the largest child's (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def tail(values):
    """(p50, tail value, tail percentile) with >= 10 samples beyond the tail."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return (statistics.median(xs) if xs else 0.0), 0.0, 0.0
    return statistics.median(xs), xs[n - 11], 100.0 * (n - 10) / n


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def counter_values(names):
    from repro.obs import metrics

    registry = metrics.get_registry()
    out = {}
    for name in names:
        metric = registry.get(name)
        out[name] = float(getattr(metric, "value", 0.0)) if metric is not None else 0.0
    return out


class Calibration:
    """A fixed numpy + Python kernel that runs no program code.

    Timed before every pass; its throughput over the run tracks the host's
    speed, which drifts by up to 1.8x over minutes on a shared box.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.mats = rng.standard_normal((52, 4, 4)) + 1j * rng.standard_normal((52, 4, 4))
        self.rows = rng.standard_normal((8, 64)) + 0j
        self.units = 0
        self.seconds = 0.0

    def run(self, reps: int = 150) -> None:
        np = self.np
        gc.collect()  # the previous pass's garbage is not the host's speed
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(reps):
            acc += float(np.abs(np.linalg.inv(self.mats)).sum())
            for _ in range(10):
                acc += float(np.abs(np.fft.fft(self.rows, axis=-1)).max())
            table = {}
            for j in range(600):
                table[j % 17] = table.get(j % 17, 0) + j * 3
        self.seconds += time.perf_counter() - t0
        self.units += reps

    @property
    def rate(self) -> float:
        return self.units / self.seconds if self.seconds else 0.0


# -- modes -------------------------------------------------------------------------


def setup_probe(workload, size, seed) -> dict:
    workload.setup(size, seed)
    return {"setup_s": time.perf_counter() - _T0}


def timed(workload, size, seed, seconds, ledger) -> dict:
    workload.setup(size, seed)
    inject_at = os.environ.get(INJECT_ENV)
    warm, _ = run_pass(workload, size, sub_seed(seed, 0), ledger, 1)
    nominal = warm.attempted if warm is not None else 1
    work = busy = 0.0
    cal = Calibration()
    durations, t_start, k = [], time.perf_counter(), 0
    while True:
        cal.run()
        inject = inject_at is not None and int(inject_at) == k
        result, dur = run_pass(workload, size, sub_seed(seed, k), ledger, nominal, inject)
        if k == 0:
            check_repeat(warm, result, ledger, "repeat of the warm-up pass")
        if result is not None:
            work += result.work
            busy += dur
        durations.append(dur)
        k += 1
        elapsed = time.perf_counter() - t_start
        if k >= MIN_TIMED_PASSES and (
            elapsed >= seconds or elapsed + statistics.median(durations) > seconds
        ):
            break
    if workload.reference is not None and warm is not None:
        ref = workload.reference(size, sub_seed(seed, 0))
        if ref != warm.digest:
            ledger.note(0, warm.attempted, [f"in-process digest {ref} != pool {warm.digest}"])
    workers = nproc() if workload.name == "grid_pool" else 0
    ops_per_s = work / busy if busy else 0.0
    return {
        "metrics": {
            "ref_ops_per_s": ops_per_s * CAL_REF_RATE / cal.rate,
            "peak_rss_mb": peak_rss_mb(workers),
        },
        "info": {
            "ops_per_s": ops_per_s,
            "cal_rate": cal.rate,
            "timed_passes": k,
            "timed_s": time.perf_counter() - t_start,
        },
    }


def traced(workload, size, seed, seconds, ledger, spans_path, shard_dir) -> dict:
    import tracing
    from layers import MAC_COUNTERS
    from repro.runtime import drain_overheads

    workload.setup(size, seed)
    warm, _ = run_pass(workload, size, sub_seed(seed, 0), ledger, 1)
    nominal = warm.attempted if warm is not None else 1
    n_passes = max(1, round(seconds / 3.0 / NOMINAL_PASS_S[workload.name]))
    seeds = [sub_seed(seed, k) for k in range(n_passes)]
    inject_at = os.environ.get(INJECT_ENV)

    # untraced leg: the baseline for overhead_frac and the program's own counts
    drain_overheads()
    counters = ("runtime.serial_retries", "runtime.watchdog_stalls", *MAC_COUNTERS.values())
    before = counter_values(counters)
    plain, plain_s, calls = [], [], []
    for k, s in enumerate(seeds):
        inject = inject_at is not None and int(inject_at) == k
        result, dur = run_pass(workload, size, s, ledger, nominal, inject)
        plain.append(result)
        plain_s.append(dur)
        if result is not None:
            calls.extend(result.call_s)
    check_repeat(warm, plain[0], ledger, "repeat of the warm-up pass")
    after = counter_values(counters)
    delta = {name: after[name] - before[name] for name in counters}
    overheads = drain_overheads()

    # traced leg: the same passes under the layer wrappers
    col = tracing.Collector(shard_dir=shard_dir)
    patches = tracing.install(col)
    traced_s = []
    try:
        for k, s in enumerate(seeds):
            with col.root():
                result, dur = run_pass(workload, size, s, ledger, nominal)
            traced_s.append(dur)
            check_repeat(plain[k], result, ledger, f"traced pass {k}")
    finally:
        patches.restore()
    col.merge_shards()
    drain_overheads()
    n_spans = col.write_spans(spans_path)

    out = col.metrics()
    out["trace.overhead_frac"] = sum(traced_s) / sum(plain_s) - 1.0
    for name, registry_name in MAC_COUNTERS.items():
        out[name] = delta[registry_name]
    sent = out["mac.deliveries"] + out["mac.stream_failures"]
    out["mac.delivery_ratio"] = out["mac.deliveries"] / sent if sent else 0.0
    compute = sum(o["compute_s"] for o in overheads)
    capacity = sum(o["workers"] * o["wall_s"] for o in overheads)
    out.update({
        "runtime.compute_s": compute,
        "runtime.dispatch_s": sum(o["dispatch_s"] for o in overheads),
        "runtime.serialization_s": sum(o["serialization_s"] for o in overheads),
        "runtime.idle_s": sum(o["idle_s"] for o in overheads),
        "runtime.utilization": compute / capacity if capacity else 0.0,
        "runtime.chunks": sum(o["chunks"] for o in overheads),
        "runtime.chunk_retries": delta["runtime.serial_retries"],
        "runtime.watchdog_stalls": delta["runtime.watchdog_stalls"],
    })
    if workload.name == "phy_joint_tx":
        p50, tail_s, tail_pct = tail(calls)
    else:
        p50 = tail_s = tail_pct = 0.0
    out["core.joint_transmit.p50_ms"] = p50 * 1e3
    out["core.joint_transmit.tail_ms"] = tail_s * 1e3
    out["core.joint_transmit.tail_pct"] = tail_pct
    out["wall_s"] = statistics.median(plain_s)
    out["failed_frac"] = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    return {"metrics": out, "info": {"traced_passes": n_passes, "spans": n_spans}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--setup-probe", action="store_true")
    parser.add_argument("--spans", default=None, help="span output file (--trace 1)")
    parser.add_argument("--shard-dir", default=None, help="worker shard directory")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.abspath("src"))
    workload = WORKLOADS[args.workload]
    size = SIZES[args.size][args.workload]
    if args.setup_probe:
        print(json.dumps(setup_probe(workload, size, args.seed)))
        return 0
    ledger = Ledger()
    if args.trace:
        report = traced(workload, size, args.seed, args.seconds, ledger,
                        args.spans, args.shard_dir)
    else:
        report = timed(workload, size, args.seed, args.seconds, ledger)
    report.update(
        attempted=ledger.attempted, failed=ledger.failed,
        problems=ledger.problems, env=environment(),
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
