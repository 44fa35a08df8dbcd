"""Repository benchmark: one command, every metric by name with its unit.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig9_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics from a separate traced run.
The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
stamps the run with its environment.  Workloads, metrics and the load
model are described in ``perfbench/README.md``.

This process only orchestrates (standard library only): it measures
``setup_s`` in fresh interpreters and runs the workload in a measurement
process (``measure.py``) with BLAS threads pinned to 1, so that the
measurement process plus its pool workers stay within ``nproc``.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
MEASURE = HERE / "measure.py"
SPEC = Path("BENCHMARK.json")
WORK_DIR = Path(".perfbench")
SETUP_REPEATS = 5
DEADLINE_S = 170.0

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "REPRO_PROGRESS": "0",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result here."""


def run_child(argv, env, timeout_s: float) -> dict:
    """Run one child in its own session; return its last stdout line as JSON.

    On timeout the whole process group (pool workers included) is killed
    and reaped before the error propagates.
    """
    proc = subprocess.Popen(
        argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout_s, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{Path(argv[1]).name} timed out after {timeout_s:.0f}s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray grandchildren, if any
        except ProcessLookupError:
            pass
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"measurement exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(lines[-1])


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; or None."""
    head = Path(".git/HEAD")
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = Path(".git") / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def src_digest() -> str:
    """Content hash of the program's sources (identifies a non-git checkout)."""
    h = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        h.update(str(path).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Repository benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the self-test")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not Path("src/repro/__init__.py").is_file():
        print("error: run from the root of a repro checkout (src/repro is missing)",
              file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print("error: BENCHMARK.json is missing", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; expected one of {names}",
              file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    env = dict(os.environ, **PINNED_ENV, REPRO_RUNS_DIR=str(scratch / "runs"))
    base = [sys.executable, str(MEASURE), "--workload", args.workload,
            "--seed", str(args.seed), "--size", args.size]
    try:
        metrics = {}
        if not args.trace:
            setups = [
                run_child(base + ["--setup-probe"], env, 60.0)["setup_s"]
                for _ in range(SETUP_REPEATS)
            ]
            metrics["setup_s"] = statistics.median(setups)
        shard_dir = scratch / "shards"
        shard_dir.mkdir()
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--shard-dir", str(shard_dir),
                 "--spans", str(WORK_DIR / f"spans-{args.workload}.jsonl")]
        remaining = DEADLINE_S - (time.perf_counter() - started)
        report = run_child(base + extra, env, remaining)
        metrics.update(report["metrics"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    for problem in report["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    stamp = dict(report["env"], git_sha=git_sha(), src_digest=src_digest(),
                 workload=args.workload, seed=args.seed, seconds=args.seconds,
                 trace=args.trace, size=args.size)
    stamp.update(report["info"])
    print("perfbench-stamp " + json.dumps(stamp))
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
