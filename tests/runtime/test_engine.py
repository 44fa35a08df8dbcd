"""Unit tests of the sweep engine: chunking, assembly, checkpointing,
batched chunk execution and the in-process/pool choice."""

import json
import os

import numpy as np
import pytest

from repro.runtime import (
    CellSpec,
    CheckpointMismatch,
    SweepError,
    assemble_results,
    iter_chunks,
    load_completed,
    run_chunk,
    run_sweep,
    seed_sequence,
    sweep_header,
)


def draw(params, seed):
    """One trial of the toy sweep: a seeded draw scaled by the cell's params."""
    rng = np.random.default_rng(seed)
    return float(params["scale"] * rng.standard_normal())


def mean_kernel(params, seeds):
    """Picklable toy kernel: one :func:`draw` per seed."""
    return [draw(params, s) for s in seeds]


CELLS = [
    CellSpec(key="a", params={"scale": 1.0}, n_trials=7),
    CellSpec(key=("b", 2), params={"scale": 2.0}, n_trials=5),
]


class TestChunking:
    def test_iter_chunks_covers_exactly_once(self):
        chunks = list(iter_chunks(10, 4))
        assert chunks == [(0, 0, 4), (1, 4, 8), (2, 8, 10)]

    def test_zero_trials(self):
        assert list(iter_chunks(0, 4)) == []

    def test_bad_args_rejected(self):
        with pytest.raises(ValueError):
            list(iter_chunks(-1, 4))
        with pytest.raises(ValueError):
            list(iter_chunks(4, 0))


class TestAssembly:
    def _chunks(self):
        out = {}
        for cell_index, cell in enumerate(CELLS):
            for chunk_index, start, stop in iter_chunks(cell.n_trials, 3):
                out[(cell_index, chunk_index)] = run_chunk(
                    mean_kernel, "unit", 0, cell.params, cell_index, start, stop
                )
        return out

    def test_duplicate_trial_rejected(self):
        chunks = self._chunks()
        chunks[(0, 99)] = [[0, 0.0]]  # trial 0 of cell 0 again
        with pytest.raises(SweepError, match="twice"):
            assemble_results(CELLS, chunks)

    def test_missing_trial_rejected(self):
        chunks = self._chunks()
        del chunks[(1, 0)]
        with pytest.raises(SweepError, match="missing"):
            assemble_results(CELLS, chunks)

    def test_cell_results_lookup(self):
        r = run_sweep("unit", mean_kernel, CELLS, master_seed=0)
        assert r.cell_results("a") == r.results[0]
        assert r.cell_results(("b", 2)) == r.results[1]
        # keys are compared after jsonable-normalization: lists match tuples
        assert r.cell_results(["b", 2]) == r.results[1]
        with pytest.raises(KeyError):
            r.cell_results("nope")


class TestCheckpoint:
    def test_checkpoint_roundtrip(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        r = run_sweep("unit", mean_kernel, CELLS, master_seed=3,
                      chunk_size=3, checkpoint=str(ck))
        header = sweep_header("unit", 3, 3, CELLS)
        completed = load_completed(str(ck), header)
        assert assemble_results(CELLS, completed) == r.results

    def test_resume_skips_completed_chunks(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        run_sweep("unit", mean_kernel, CELLS, master_seed=3,
                  chunk_size=3, checkpoint=str(ck))
        r = run_sweep("unit", mean_kernel, CELLS, master_seed=3,
                      chunk_size=3, checkpoint=str(ck), resume=True)
        assert r.resumed_chunks == len(
            [c for cell in CELLS for c in iter_chunks(cell.n_trials, 3)]
        )

    def test_truncated_trailing_line_dropped(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        run_sweep("unit", mean_kernel, CELLS, master_seed=3,
                  chunk_size=3, checkpoint=str(ck))
        lines = ck.read_text().splitlines()
        ck.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])
        header = sweep_header("unit", 3, 3, CELLS)
        completed = load_completed(str(ck), header)
        assert len(completed) == len(lines) - 2  # header + dropped tail

    def test_header_mismatch_rejected(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        run_sweep("unit", mean_kernel, CELLS, master_seed=3,
                  chunk_size=3, checkpoint=str(ck))
        with pytest.raises(CheckpointMismatch):
            run_sweep("unit", mean_kernel, CELLS, master_seed=4,
                      chunk_size=3, checkpoint=str(ck), resume=True)
        with pytest.raises(CheckpointMismatch):
            run_sweep("other", mean_kernel, CELLS, master_seed=3,
                      chunk_size=3, checkpoint=str(ck), resume=True)

    def test_checkpoint_is_jsonl(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        run_sweep("unit", mean_kernel, CELLS, master_seed=3, checkpoint=str(ck))
        records = [json.loads(line) for line in ck.read_text().splitlines()]
        assert records[0]["type"] == "header"
        assert records[0]["sweep"] == "unit"
        assert all(rec["type"] == "chunk" for rec in records[1:])


def short_kernel(params, seeds):
    return mean_kernel(params, seeds)[:-1]


def worker_pid_kernel(params, seeds):
    """Reports the process each trial ran in."""
    return [os.getpid() for _ in seeds]


class TestBatchedExecution:
    def test_matches_serial(self):
        """Chunks of any size reproduce drawing each trial's seed alone."""
        expected = [
            [draw(cell.params, seed_sequence(5, "unit", c, t))
             for t in range(cell.n_trials)]
            for c, cell in enumerate(CELLS)
        ]
        for chunk_size in (1, 3, 32):
            r = run_sweep("unit", mean_kernel, CELLS, master_seed=5,
                          chunk_size=chunk_size)
            assert r.results == expected
            assert r.chunk_failures == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(SweepError, match="3 results for 4 seeds"):
            run_chunk(short_kernel, "unit", 0, {"scale": 1.0}, 0, 0, 4)

    def test_failed_chunk_retries_serially(self):
        calls = []

        def flaky_kernel(params, seeds):
            """Fails on its first call, then behaves."""
            calls.append(len(seeds))
            if len(calls) == 1:
                raise FloatingPointError("stacked matrix went singular")
            return mean_kernel(params, seeds)

        serial = run_sweep("unit", mean_kernel, CELLS, master_seed=5)
        degraded = run_sweep("unit", flaky_kernel, CELLS, master_seed=5,
                             chunk_size=4)
        assert degraded.results == serial.results
        assert degraded.chunk_failures == 1


class TestWorkersSelectExecution:
    def test_one_worker_runs_in_process(self):
        r = run_sweep("unit", worker_pid_kernel, CELLS, master_seed=5)
        assert {pid for cell in r.results for pid in cell} == {os.getpid()}
        assert set(r.overhead["modes"]) == {"serial"}

    def test_many_workers_use_the_pool(self):
        r = run_sweep("unit", worker_pid_kernel, CELLS, master_seed=5,
                      workers=2, chunk_size=2)
        pids = {pid for cell in r.results for pid in cell}
        assert os.getpid() not in pids
        assert set(r.overhead["modes"]) == {"pool"}
        assert r.overhead["workers"] == 2

    def test_pool_matches_in_process(self):
        serial = run_sweep("unit", mean_kernel, CELLS, master_seed=5)
        pooled = run_sweep("unit", mean_kernel, CELLS, master_seed=5,
                           workers=2)
        assert pooled.results == serial.results
        assert pooled.chunk_failures == 0


class TestValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            run_sweep("unit", mean_kernel, CELLS, master_seed=0, workers=0)

    def test_resume_without_checkpoint_is_fresh_run(self):
        r = run_sweep("unit", mean_kernel, CELLS, master_seed=0, resume=True)
        assert r.resumed_chunks == 0
        assert r.results == run_sweep("unit", mean_kernel, CELLS,
                                      master_seed=0).results
