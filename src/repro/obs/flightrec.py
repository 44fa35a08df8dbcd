"""Black-box flight recorder: a bounded in-memory ring of recent telemetry.

Traces answer "what happened" only when a sink was configured *before*
the run; the time-series store keeps numeric history but drops the
qualitative frames (which chunk, which alert, which progress tick)
around it.  Neither helps when a sweep crashes, hangs, or is killed —
the moments where the recent past matters most and nothing was asked to
keep it.

The :class:`FlightRecorder` is the always-on answer: a process-global,
bounded ``deque`` of ``{"ts", "kind", "data"}`` records.  Two paths
feed it:

* :func:`repro.obs.publish.emit` — one record per event-shaped datum:
  chunk envelopes, progress ticks, watchdog stalls, alert transitions,
  server lifecycle and crash bundles;
* the tracer's span opens/closes (only while a trace sink is live).

Metric samples and time-series points never land here, so the ring's
:data:`DEFAULT_CAPACITY` records cover the run's recent *events* rather
than being flooded by sampling.

Appends are a lock + ``deque.append`` — the same "negligible until you
need it" bar the null tracer holds (<5% overhead, enforced by
``tests/obs/test_flightrec.py``).  The ring is snapshot-able at any
moment; crash-forensics bundles (:mod:`repro.obs.blackbox`) dump it to
``runs/crash-<runid>/flightrec.json``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Union

#: Records retained in the ring (oldest evicted first).
DEFAULT_CAPACITY = 4096

#: Version stamped into dumps; bump on breaking record-shape changes.
DUMP_SCHEMA = 1


class FlightRecorder:
    """Bounded ring buffer of recent ``(ts, kind, data)`` telemetry records.

    Thread-safe: producers append from the engine, watchdog, evaluator
    and HTTP threads concurrently.  ``total`` counts every record ever
    accepted, so consumers can tell how much history the ring evicted
    (``dropped = total - len(ring)``).
    """

    __slots__ = ("capacity", "total", "_ring", "_lock")

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self.total = 0
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=self.capacity)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._ring)

    # -- recording -------------------------------------------------------------

    def record(
        self,
        kind: str,
        data: Optional[dict] = None,
        ts: Optional[float] = None,
    ) -> None:
        """Append one record."""
        rec: Dict[str, Any] = {
            "ts": time.time() if ts is None else ts,
            "kind": kind,
        }
        if data:
            rec["data"] = data
        with self._lock:
            self._ring.append(rec)
            self.total += 1

    # -- reading ---------------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Records evicted from the ring so far."""
        return self.total - len(self._ring)

    def snapshot(self, kind: Optional[str] = None) -> List[Dict[str, Any]]:
        """Copies of the retained records, oldest first."""
        with self._lock:
            records = list(self._ring)
        if kind is not None:
            records = [r for r in records if r["kind"] == kind]
        return records

    def last(self, kind: Optional[str] = None) -> Optional[Dict[str, Any]]:
        """The newest retained record (of ``kind``, when given), or None."""
        records = self.snapshot(kind=kind)
        return records[-1] if records else None

    def dump(self) -> Dict[str, Any]:
        """JSON-ready dump: meta header + the retained records."""
        with self._lock:
            records = list(self._ring)
            total = self.total
        return {
            "schema": DUMP_SCHEMA,
            "ts": time.time(),
            "pid": os.getpid(),
            "capacity": self.capacity,
            "total": total,
            "dropped": total - len(records),
            "records": records,
        }

    def dump_json(self, path: Union[str, Path]) -> Path:
        """Write :meth:`dump` to ``path`` as indented JSON; returns the path."""
        from repro.obs.events import jsonable

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump(jsonable(self.dump()), f, indent=2, sort_keys=True)
            f.write("\n")
        return path

    def clear(self) -> None:
        """Drop all retained records and reset the counters."""
        with self._lock:
            self._ring.clear()
            self.total = 0


#: The process-global recorder :func:`repro.obs.publish.emit` feeds.
_RECORDER = FlightRecorder()


def get_recorder() -> FlightRecorder:
    """The process-global flight recorder."""
    return _RECORDER


def record(kind: str, data: Optional[dict] = None, ts: Optional[float] = None) -> None:
    """Append one record to the process-global recorder."""
    _RECORDER.record(kind, data, ts=ts)
