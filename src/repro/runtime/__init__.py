"""Deterministic parallel sweep runtime.

Public surface:

* :func:`run_sweep` / :class:`CellSpec` / :class:`SweepResult` — the
  sweep engine (:mod:`repro.runtime.engine`): every kernel takes a chunk's
  seed batch, ``(params, seeds) -> [result per seed]``, and chunks run
  in-process (``workers == 1``) or on a process pool (``workers > 1``).
* :func:`seed_sequence` / :func:`task_rng` / :func:`spawn_key` — per-task
  seed derivation (:mod:`repro.runtime.seeding`).
* Checkpoint plumbing (:mod:`repro.runtime.checkpoint`).
* :class:`ChunkWatchdog` — parent-side stall monitor that abandons hung
  workers and reroutes their chunks through the serial-retry path
  (:mod:`repro.runtime.watchdog`); env-gated fault injection for
  exercising it lives in :mod:`repro.runtime.faults`.

See ``docs/parallelism.md`` for the determinism guarantees, the
in-process/pool choice and the checkpoint file format.
"""

from repro.runtime.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointMismatch,
    load_completed,
    sweep_header,
)
from repro.runtime.engine import (
    DEFAULT_CHUNK_SIZE,
    MEMORY_ENV_FLAG,
    WORKER_ENV_FLAG,
    CellSpec,
    SweepError,
    SweepResult,
    assemble_results,
    drain_overheads,
    iter_chunks,
    run_chunk,
    run_chunk_instrumented,
    run_sweep,
)
from repro.runtime.faults import HANG_CHUNK_ENV, HangCancelled
from repro.runtime.seeding import seed_sequence, spawn_key, task_rng
from repro.runtime.watchdog import (
    TIMEOUT_ENV,
    WATCHDOG_ENV,
    ChunkWatchdog,
    watchdog_enabled,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointMismatch",
    "CellSpec",
    "ChunkWatchdog",
    "DEFAULT_CHUNK_SIZE",
    "HANG_CHUNK_ENV",
    "HangCancelled",
    "MEMORY_ENV_FLAG",
    "SweepError",
    "SweepResult",
    "TIMEOUT_ENV",
    "WATCHDOG_ENV",
    "WORKER_ENV_FLAG",
    "watchdog_enabled",
    "assemble_results",
    "drain_overheads",
    "iter_chunks",
    "load_completed",
    "run_chunk",
    "run_chunk_instrumented",
    "run_sweep",
    "seed_sequence",
    "spawn_key",
    "sweep_header",
    "task_rng",
]
