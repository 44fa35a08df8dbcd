"""Joint-transmission scheduling (§9).

"MegaMIMO always uses the packet at the head of the queue for transmission,
and nominates the designated AP of this packet as the lead AP for this
transmission.  The lead AP then chooses additional packets for joint
transmission with this packet in order to maximize the network throughput."

The paper leaves the grouping heuristic open ([43, 33, 42]); we implement
the natural greedy rule — walk the queue in FIFO order and admit the first
packet of each distinct client until the stream budget (total AP antennas)
is filled, i.e. the ``max_streams`` earliest per-client fronts — plus a
hook for custom heuristics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.mac.queue import DownlinkQueue, Packet
from repro.utils.validation import require


@dataclass
class TransmissionGroup:
    """One joint transmission's worth of packets.

    Attributes:
        lead_ap: AP index elected lead (designated AP of the head packet).
        packets: Packets sent concurrently, one per distinct client.
    """

    lead_ap: int
    packets: List[Packet]

    @property
    def n_streams(self) -> int:
        return len(self.packets)

    @property
    def clients(self) -> List[int]:
        return [p.client for p in self.packets]


class JointScheduler:
    """Builds transmission groups from the shared downlink queue.

    Args:
        queue: The shared downlink queue.
        max_streams: Stream budget — the total number of AP antennas in the
            joint transmission (N single-antenna APs -> N streams).
        grouping: Optional custom heuristic ``f(head, candidates, budget) ->
            packets`` replacing the greedy FIFO rule.
    """

    def __init__(
        self,
        queue: DownlinkQueue,
        max_streams: int,
        grouping: Optional[Callable] = None,
    ):
        require(max_streams >= 1, "need at least one stream")
        self.queue = queue
        self.max_streams = max_streams
        self.grouping = grouping

    def next_group(self) -> Optional[TransmissionGroup]:
        """Form the next joint transmission; None if the queue is empty.

        The selected packets are removed from the queue; unACKed packets
        should be handed back via ``queue.requeue``.
        """
        fronts = self.queue.fronts(self.max_streams)
        if not fronts:
            return None
        head = fronts[0]
        if self.grouping is not None:
            candidates = [p for p in self.queue if p is not head]
            chosen = self.grouping(head, candidates, self.max_streams)
            require(head in chosen, "grouping must include the head packet")
        else:
            chosen = fronts
        for packet in chosen:
            self.queue.remove(packet)
        return TransmissionGroup(lead_ap=head.designated_ap, packets=chosen)
