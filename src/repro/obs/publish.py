"""One publication call for event-shaped telemetry: :func:`emit`.

Chunk envelopes, progress ticks, watchdog stalls, alert transitions,
server lifecycle and crash bundles are each published by exactly one
``emit(kind, fields, ...)`` call, which fans the datum out once:

* one flight-recorder record (:mod:`repro.obs.flightrec`, always on);
* a JSONL ``event`` record named ``kind`` while a trace sink is open;
* the time-series points the caller names in ``series``;
* every ``/events`` subscriber queue, as an SSE frame named after the
  kind's last dotted segment (``runtime.progress`` -> ``progress``).

Subscriber queues are bounded and a full queue drops the frame for that
subscriber only, so a slow SSE client never stalls a producer; drops are
counted on the ``obs.events.dropped`` metric, which the evaluator's
registry sampling turns into a time series like any other counter.
Spans keep their own path through :mod:`repro.obs.tracer`.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.obs.flightrec import get_recorder
from repro.obs.metrics import counter
from repro.obs.timeseries import get_store
from repro.obs.tracer import trace

#: Frames a subscriber queue holds before new frames are dropped for it.
SUBSCRIBER_QUEUE_SIZE = 256

Frame = Tuple[str, dict]

_EVENTS_DROPPED = counter("obs.events.dropped")
_SUBSCRIBERS: List["queue.Queue[Frame]"] = []
_LOCK = threading.Lock()


def subscribe(maxsize: int = SUBSCRIBER_QUEUE_SIZE) -> "queue.Queue[Frame]":
    """A new bounded queue receiving every emitted ``(frame_kind, fields)``."""
    q: "queue.Queue[Frame]" = queue.Queue(maxsize=maxsize)
    with _LOCK:
        _SUBSCRIBERS.append(q)
    return q


def unsubscribe(q: "queue.Queue[Frame]") -> None:
    with _LOCK:
        if q in _SUBSCRIBERS:
            _SUBSCRIBERS.remove(q)


def emit(
    kind: str,
    fields: dict,
    ts: Optional[float] = None,
    series: Optional[Dict[str, float]] = None,
) -> None:
    """Publish one datum to the ring, the trace, the store and subscribers."""
    if ts is None:
        ts = time.time()
    get_recorder().record(kind, fields, ts=ts)
    if trace.enabled:
        trace.event(kind, **fields)
    if series:
        store = get_store()
        for name, value in series.items():
            store.record(name, value, ts=ts)
    if _SUBSCRIBERS:
        with _LOCK:
            subscribers = list(_SUBSCRIBERS)
        frame_kind = kind.rpartition(".")[2]
        dropped = 0
        for q in subscribers:
            try:
                q.put_nowait((frame_kind, dict(fields)))
            except queue.Full:
                dropped += 1
        if dropped:
            _EVENTS_DROPPED.inc(dropped)
