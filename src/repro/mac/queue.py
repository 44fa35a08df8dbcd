"""The shared downlink queue over the wired backend (§9).

"In MegaMIMO, all downlink packets are sent on the Ethernet to all MegaMIMO
APs.  Thus, all APs in the network have the same downlink queue.  Each
packet in the queue has a designated AP, which is the AP with the strongest
SNR to the client to which that packet is destined."
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Deque, Iterator, List, Optional, Tuple

import numpy as np

from repro.utils.validation import require

_sequence = itertools.count()
_stamp = itemgetter(0)


@dataclass
class Packet:
    """One downlink packet.

    Attributes:
        client: Destination client index.
        size_bytes: Payload size.
        designated_ap: AP index with the strongest SNR to the client.
        seqno: Monotonic enqueue order (FIFO key).
        retries: Times this packet has been (re)transmitted.
    """

    client: int
    size_bytes: int
    designated_ap: int
    seqno: int = field(default_factory=lambda: next(_sequence))
    retries: int = 0


class DownlinkQueue:
    """FIFO downlink queue replicated at every AP via the backend.

    Stored as one FIFO per client whose entries carry a global insertion
    stamp, so the head, the scheduler's per-client fronts and removal of a
    front packet cost O(clients) or less instead of a scan of the whole
    queue.  Iteration merges the client FIFOs back into global order.

    Args:
        client_ap_snr_db: (n_clients, n_aps) SNR map used to designate APs.
    """

    def __init__(self, client_ap_snr_db: np.ndarray):
        snr = np.asarray(client_ap_snr_db, dtype=float)
        require(snr.ndim == 2, "need an (n_clients, n_aps) SNR map")
        self.client_ap_snr_db = snr
        self.n_clients, self.n_aps = snr.shape
        self._fifos: List[Deque[Tuple[int, Packet]]] = [
            deque() for _ in range(self.n_clients)
        ]
        self._stamps = itertools.count()

    def designated_ap(self, client: int) -> int:
        """AP with the strongest SNR to ``client``."""
        return int(np.argmax(self.client_ap_snr_db[client]))

    def _push(self, packet: Packet) -> None:
        self._fifos[packet.client].append((next(self._stamps), packet))

    def enqueue(self, client: int, size_bytes: int = 1500) -> Packet:
        """Add one packet for ``client``; designation happens here."""
        require(0 <= client < self.n_clients, "unknown client")
        packet = Packet(
            client=client,
            size_bytes=size_bytes,
            designated_ap=self.designated_ap(client),
        )
        self._push(packet)
        return packet

    def requeue(self, packet: Packet) -> None:
        """Return an unACKed packet for a future joint transmission (§9).

        It takes a fresh stamp, so it goes to the back of the queue.
        """
        require(0 <= packet.client < self.n_clients, "unknown client")
        packet.retries += 1
        self._push(packet)

    def fronts(self, limit: Optional[int] = None) -> List[Packet]:
        """Each client's oldest packet, earliest first (at most ``limit``)."""
        entries = sorted((fifo[0] for fifo in self._fifos if fifo), key=_stamp)
        return [packet for _, packet in entries[:limit]]

    def head(self) -> Optional[Packet]:
        """The packet MegaMIMO always transmits next (head of the queue)."""
        fronts = self.fronts(1)
        return fronts[0] if fronts else None

    def remove(self, packet: Packet) -> None:
        """Drop the earliest queued packet equal to ``packet``.

        O(1) for a client's front packet; raises ValueError when no equal
        packet is queued.
        """
        fifo = self._fifos[packet.client] if 0 <= packet.client < self.n_clients else ()
        if fifo and fifo[0][1] is packet:
            fifo.popleft()
            return
        for index, (_, queued) in enumerate(fifo):
            if queued == packet:
                del fifo[index]
                return
        raise ValueError("packet is not queued")

    def pending_for(self, client: int) -> List[Packet]:
        if not 0 <= client < self.n_clients:
            return []
        return [packet for _, packet in self._fifos[client]]

    def __len__(self) -> int:
        return sum(map(len, self._fifos))

    def __iter__(self) -> Iterator[Packet]:
        return (packet for _, packet in heapq.merge(*self._fifos, key=_stamp))
