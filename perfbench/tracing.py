"""Per-layer tracing from outside the program.

The traced run patches the public functions listed in
:data:`layers.WRAPPED` with thin timing wrappers, runs the same passes as
the untimed leg, and restores the originals.  Nothing inside the program
changes; the wrappers are installed only for the traced leg.

Spans are kept in memory and aggregated online: each closing span adds its
duration to its family's ``busy_s`` and to the enclosing span's child time,
so a family's self time is its span time minus the time its child spans
cover.  Only the client (main) thread is traced: background threads such
as the sweep watchdog call straight through, so counts repeat exactly.

Pool workers inherit the wrappers when the pool forks.  The
``runtime.chunk`` wrapper resets a worker's copy of the collector on its
first chunk and appends the worker's aggregates and spans to a per-process
shard file after every chunk; :meth:`Collector.merge_shards` folds them
back into the parent's totals.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import importlib
import json
import os
import pstats
import sys
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

from layers import WRAPPED, layer_of

_perf = time.perf_counter
_get_ident = threading.get_ident

FAMILIES = tuple(WRAPPED)
_ROOT = -1  # family id of a client pass span


class Collector:
    """In-memory span sink with online self-time aggregation."""

    def __init__(self, shard_dir: Optional[str] = None):
        self.shard_dir = shard_dir
        self.origin_pid = os.getpid()  # pool workers see a different pid
        self.names = FAMILIES
        self._reset()

    def _reset(self) -> None:
        n = len(self.names)
        self.pid = os.getpid()
        self.main_ident = _get_ident()
        self.stack: List[list] = []
        self.calls = [0] * n
        self.busy = [0.0] * n
        self.self_s = [0.0] * n
        self.root_s = 0.0
        self.root_self_s = 0.0
        self.extra: Dict[str, float] = {}
        self.screening: List[Optional[float]] = []
        self.span_fid = array("i")
        self.span_depth = array("i")
        self.span_start = array("d")
        self.span_dur = array("d")
        self.worker_lines: List[dict] = []

    # -- span bookkeeping (hot path) -----------------------------------------

    def open(self, fid: int) -> list:
        frame = [_perf(), 0.0, fid]
        self.stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = _perf()
        dur = end - frame[0]
        stack = self.stack
        if stack and stack[-1] is frame:
            stack.pop()
        else:  # an exception unwound past inner frames
            while stack and stack.pop() is not frame:
                pass
        fid = frame[2]
        if fid == _ROOT:
            self.root_s += dur
            self.root_self_s += dur - frame[1]
        else:
            self.calls[fid] += 1
            self.busy[fid] += dur
            self.self_s[fid] += dur - frame[1]
        if stack:
            stack[-1][1] += dur
        self.span_fid.append(fid)
        self.span_depth.append(len(stack))
        self.span_start.append(frame[0])
        self.span_dur.append(dur)

    def add(self, key: str, amount: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + amount

    @contextlib.contextmanager
    def root(self):
        """Time one client pass: the root that coverage is measured against."""
        frame = self.open(_ROOT)
        try:
            yield
        finally:
            self.close(frame)

    # -- pool workers --------------------------------------------------------

    def enter_worker(self) -> None:
        """First traced call in a forked worker: drop the parent's state."""
        if os.getpid() != self.pid:
            self._reset()

    def flush_worker(self) -> None:
        """Append this worker's aggregates and spans to its shard file."""
        if self.shard_dir is None or self.stack:
            return
        line = {
            "pid": self.pid,
            "calls": self.calls,
            "busy": self.busy,
            "self_s": self.self_s,
            "extra": self.extra,
            "spans": self._span_rows(),
        }
        path = os.path.join(self.shard_dir, f"worker-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(line) + "\n")
        self._reset()

    def merge_shards(self) -> int:
        """Fold every worker shard into this (parent) collector."""
        if self.shard_dir is None or not os.path.isdir(self.shard_dir):
            return 0
        merged = 0
        for name in sorted(os.listdir(self.shard_dir)):
            with open(os.path.join(self.shard_dir, name), encoding="utf-8") as fh:
                for raw in fh:
                    line = json.loads(raw)
                    for i in range(len(self.names)):
                        self.calls[i] += line["calls"][i]
                        self.busy[i] += line["busy"][i]
                        self.self_s[i] += line["self_s"][i]
                    for key, value in line["extra"].items():
                        self.add(key, value)
                    self.worker_lines.append(line)
                    merged += 1
            os.remove(os.path.join(self.shard_dir, name))
        return merged

    # -- reporting -----------------------------------------------------------

    def _span_rows(self) -> List[list]:
        return [
            [self.names[f] if f != _ROOT else "client.pass", d, round(s, 9), round(u, 9)]
            for f, d, s, u in zip(
                self.span_fid, self.span_depth, self.span_start, self.span_dur
            )
        ]

    def write_spans(self, path: str) -> int:
        """Write every kept span (parent, then workers) as JSON lines."""
        rows = 0
        with open(path, "w", encoding="utf-8") as fh:
            for pid, spans in [(self.pid, self._span_rows())] + [
                (line["pid"], line["spans"]) for line in self.worker_lines
            ]:
                for name, depth, start, dur in spans:
                    fh.write(json.dumps(
                        {"pid": pid, "name": name, "depth": depth,
                         "start_s": start, "dur_s": dur}) + "\n")
                    rows += 1
        return rows

    def metrics(self) -> Dict[str, float]:
        """Per-family calls/busy, per-layer self time and trace coverage."""
        out: Dict[str, float] = {}
        layer_self: Dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.busy_s"] = self.busy[i]
            layer = layer_of(name)
            layer_self[layer] = layer_self.get(layer, 0.0) + self.self_s[i]
        for layer, value in layer_self.items():
            out[f"{layer}.self_s"] = value
        busy = self.busy[FAMILIES.index("phy.viterbi")]
        out["phy.viterbi.bits_per_s"] = (
            self.extra.get("phy.viterbi.bits", 0.0) / busy if busy > 0 else 0.0
        )
        attempts = self.extra.get("sim.screening.attempts", 0.0)
        out["sim.screening.accept_ratio"] = (
            self.extra.get("sim.screening.accepted", 0.0) / attempts
            if attempts else 0.0
        )
        out["trace.coverage_frac"] = (
            (self.root_s - self.root_self_s) / self.root_s if self.root_s else 0.0
        )
        out["trace.unattributed_s"] = self.root_self_s
        return out


# -- wrappers ------------------------------------------------------------------


def _arg(args, kwargs, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _hooks(family: str, col: Collector):
    """(before(args, kwargs), after(result), finish()) extras of one family."""
    before = after = finish = None
    if family == "phy.viterbi":
        def before(args, kwargs):
            col.add("phy.viterbi.bits", float(_arg(args, kwargs, 2, "n_info_bits")))
    elif family == "sim.screening":
        def before(args, kwargs):
            col.screening.append(_arg(args, kwargs, 2, "max_penalty_db"))
        finish = col.screening.pop
    elif family == "sim.zf_penalty":
        def after(penalty):
            if col.screening and col.screening[-1] is not None:
                col.add("sim.screening.attempts", 1.0)
                if penalty <= col.screening[-1]:
                    col.add("sim.screening.accepted", 1.0)
    elif family == "runtime.chunk":
        def before(args, kwargs):
            col.enter_worker()

        def finish():
            if os.getpid() != col.origin_pid:
                col.flush_worker()
    return before, after, finish


def _make_wrapper(fn: Callable, family: str, col: Collector) -> Callable:
    fid = FAMILIES.index(family)
    open_, close = col.open, col.close
    before, after, finish = _hooks(family, col)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if _get_ident() != col.main_ident:
            return fn(*args, **kwargs)
        if before is not None:
            before(args, kwargs)
        frame = open_(fid)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(frame)
            if finish is not None:
                finish()
        if after is not None:
            after(result)
        return result

    return wrapper


def _resolve(target: str):
    """(owner, attribute, raw object) of one ``module:qualname`` target."""
    modname, qualname = target.split(":")
    module = importlib.import_module(modname)
    if "." in qualname:
        clsname, attr = qualname.split(".")
        owner = getattr(module, clsname)
        if attr not in owner.__dict__:
            raise LookupError(f"{target}: not defined on {clsname}")
        return owner, attr, owner.__dict__[attr]
    return module, qualname, getattr(module, qualname)


def _repro_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]


def target_functions() -> Dict[str, List[Callable]]:
    """family -> the plain function objects it wraps (for profiling)."""
    out: Dict[str, List[Callable]] = {}
    for family, targets in WRAPPED.items():
        fns = []
        for target in targets:
            _, _, raw = _resolve(target)
            fns.append(raw.__func__ if isinstance(raw, classmethod) else raw)
        out[family] = fns
    return out


class Patches:
    """Installed wrappers, restorable in one call."""

    def __init__(self):
        self.undo: List[Tuple[object, str, object]] = []
        self.functions: Dict[int, Tuple[Callable, Callable]] = {}

    def restore(self) -> None:
        for owner, attr, original in reversed(self.undo):
            setattr(owner, attr, original)
        # modules imported while patched bound the wrapper by name too
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                pair = self.functions.get(id(value))
                if pair is not None and value is pair[1]:
                    setattr(module, attr, pair[0])
        self.undo.clear()
        self.functions.clear()


def install(col: Collector) -> Patches:
    """Patch every target in :data:`WRAPPED`; returns the undo record."""
    patches = Patches()
    for family, targets in WRAPPED.items():
        for target in targets:
            owner, attr, raw = _resolve(target)
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    new = classmethod(_make_wrapper(raw.__func__, family, col))
                else:
                    new = _make_wrapper(raw, family, col)
                setattr(owner, attr, new)
                patches.undo.append((owner, attr, raw))
                continue
            wrapper = _make_wrapper(raw, family, col)
            patches.functions[id(wrapper)] = (raw, wrapper)
            for module in _repro_modules():
                for name, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, name, wrapper)
                        patches.undo.append((module, name, raw))
    return patches


# -- cProfile reference counts (self-test) ---------------------------------------


def profile_counts(run: Callable[[], None], shard_dir: str) -> Dict[str, int]:
    """Call counts of every wrapped family under cProfile, no wrappers.

    Pool workers are profiled too: the chunk runner is swapped for one that
    profiles each chunk inside the worker and dumps the stats to
    ``shard_dir``; the parent then sums parent and worker stats.
    """
    from repro.runtime import engine

    original = engine.run_chunk_instrumented
    parent = os.getpid()
    counter = [0]

    @functools.wraps(original)
    def profiled_chunk(*args, **kwargs):
        if os.getpid() == parent:
            return original(*args, **kwargs)
        prof = cProfile.Profile()
        prof.enable()
        try:
            return original(*args, **kwargs)
        finally:
            prof.disable()
            counter[0] += 1
            prof.dump_stats(
                os.path.join(shard_dir, f"prof-{os.getpid()}-{counter[0]}.prof")
            )

    swapped = []
    for module in _repro_modules():
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, profiled_chunk)
                swapped.append((module, name))
    prof = cProfile.Profile()
    try:
        prof.enable()
        try:
            run()
        finally:
            prof.disable()
    finally:
        for module, name in swapped:
            setattr(module, name, original)
    stats = pstats.Stats(prof)
    for name in sorted(os.listdir(shard_dir)):
        if name.startswith("prof-"):
            stats.add(os.path.join(shard_dir, name))
            os.remove(os.path.join(shard_dir, name))
    table = stats.stats  # {(file, line, func): (cc, nc, tt, ct, callers)}
    out: Dict[str, int] = {}
    for family, fns in target_functions().items():
        total = 0
        for fn in fns:
            code = fn.__code__
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            if key in table:
                total += table[key][1]
        out[family] = total
    return out
