"""Property-based tests of the link-layer invariants."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mac.grouping import GreedyFifoGrouping
from repro.mac.queue import DownlinkQueue
from repro.mac.rate import EffectiveSnrRateSelector, select_mcs_for_snr
from repro.mac.scheduler import JointScheduler
from repro.phy.mcs import ALL_MCS

client_sequences = st.lists(st.integers(0, 5), min_size=1, max_size=20)


def fresh_queue(n_clients=6, n_aps=4, seed=0):
    rng = np.random.default_rng(seed)
    return DownlinkQueue(rng.uniform(5, 25, (n_clients, n_aps)))


class TestQueueInvariants:
    @given(clients=client_sequences)
    @settings(max_examples=40, deadline=None)
    def test_fifo_head_is_first_enqueued(self, clients):
        q = fresh_queue()
        packets = [q.enqueue(c) for c in clients]
        assert q.head() is packets[0]

    @given(clients=client_sequences)
    @settings(max_examples=40, deadline=None)
    def test_designation_always_strongest(self, clients):
        q = fresh_queue(seed=3)
        for c in clients:
            p = q.enqueue(c)
            assert p.designated_ap == int(np.argmax(q.client_ap_snr_db[c]))

    @given(clients=client_sequences)
    @settings(max_examples=40, deadline=None)
    def test_length_bookkeeping(self, clients):
        q = fresh_queue()
        packets = [q.enqueue(c) for c in clients]
        assert len(q) == len(clients)
        for p in packets:
            q.remove(p)
        assert len(q) == 0


class TestSchedulerInvariants:
    @given(clients=client_sequences, budget=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_group_structure(self, clients, budget):
        """Every group: head first, one packet per client, within budget,
        and repeated scheduling drains the queue completely."""
        q = fresh_queue(seed=1)
        for c in clients:
            q.enqueue(c)
        scheduler = JointScheduler(q, max_streams=budget)
        total = 0
        while True:
            before_head = q.head()
            group = scheduler.next_group()
            if group is None:
                break
            assert group.packets[0] is before_head
            assert len(group.packets) <= budget
            assert len({p.client for p in group.packets}) == len(group.packets)
            assert group.lead_ap == before_head.designated_ap
            total += len(group.packets)
        assert total == len(clients)
        assert len(q) == 0


class ListQueueModel:
    """The shared queue as one list: the deque semantics it replaces."""

    def __init__(self):
        self.items = []

    def remove(self, packet):
        self.items.remove(packet)  # first equal packet, else ValueError

    def pending_for(self, client):
        return [p for p in self.items if p.client == client]

    def next_group(self, budget, grouping):
        if not self.items:
            return None
        head = self.items[0]
        candidates = [p for p in self.items if p is not head]
        if grouping is not None:
            chosen = grouping(head, candidates, budget)
        else:
            chosen, seen = [head], {head.client}
            for packet in candidates:
                if len(chosen) >= budget:
                    break
                if packet.client not in seen:
                    chosen.append(packet)
                    seen.add(packet.client)
        for packet in chosen:
            self.remove(packet)
        return head.designated_ap, chosen


def tail_grouping(head, candidates, budget):
    """Head plus the newest queued packet: removes from a FIFO's middle."""
    return [head] + candidates[-1:] if budget > 1 else [head]


N_MODEL_CLIENTS = 4
operations = st.lists(
    st.tuples(
        st.sampled_from(
            ["enqueue", "requeue", "remove", "remove_copy", "next_group"]
        ),
        st.integers(0, 10_000),
    ),
    max_size=60,
)


class TestQueueMatchesListModel:
    @given(
        ops=operations,
        budget=st.integers(1, 5),
        grouping=st.sampled_from([None, "fifo", "tail"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_observable_behaviour(self, ops, budget, grouping):
        rule = {None: None, "fifo": GreedyFifoGrouping(), "tail": tail_grouping}
        q = fresh_queue(n_clients=N_MODEL_CLIENTS, seed=5)
        scheduler = JointScheduler(q, max_streams=budget, grouping=rule[grouping])
        model = ListQueueModel()
        known = []  # every packet ever created, queued or not
        for op, pick in ops:
            if op == "enqueue":
                packet = q.enqueue(pick % N_MODEL_CLIENTS)
                model.items.append(packet)
                known.append(packet)
            elif op == "requeue" and known:
                packet = known[pick % len(known)]
                retries = packet.retries
                q.requeue(packet)  # may duplicate a still-queued packet
                assert packet.retries == retries + 1
                model.items.append(packet)
            elif op in ("remove", "remove_copy") and known:
                packet = known[pick % len(known)]
                if op == "remove_copy":
                    packet = dataclasses.replace(packet)  # equal, not identical
                if packet in model.items:
                    model.remove(packet)
                    q.remove(packet)
                else:
                    with pytest.raises(ValueError):
                        q.remove(packet)
            elif op == "next_group":
                expected = model.next_group(budget, rule[grouping])
                group = scheduler.next_group()
                if expected is None:
                    assert group is None
                else:
                    lead_ap, chosen = expected
                    assert group.lead_ap == lead_ap
                    assert len(group.packets) == len(chosen)
                    assert all(a is b for a, b in zip(group.packets, chosen))
            assert len(q) == len(model.items)
            assert all(a is b for a, b in zip(q, model.items))
            assert q.head() is (model.items[0] if model.items else None)
            for client in range(N_MODEL_CLIENTS):
                got = q.pending_for(client)
                want = model.pending_for(client)
                assert len(got) == len(want)
                assert all(a is b for a, b in zip(got, want))


class TestRateSelectorInvariants:
    @given(snr=st.floats(-10.0, 40.0))
    @settings(max_examples=60, deadline=None)
    def test_selected_mcs_threshold_respected(self, snr):
        mcs = select_mcs_for_snr(snr)
        if mcs is None:
            assert snr < ALL_MCS[0].min_snr_db
        else:
            assert snr >= mcs.min_snr_db
            # and nothing faster qualifies
            if mcs.index < 7:
                assert snr < ALL_MCS[mcs.index + 1].min_snr_db

    @given(
        seed=st.integers(0, 2**31),
        shift_db=st.floats(0.5, 6.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_rate_monotone_under_uniform_improvement(self, seed, shift_db):
        """Raising every subcarrier's SNR can never lower the chosen rate."""
        rng = np.random.default_rng(seed)
        sel = EffectiveSnrRateSelector(10e6)
        snrs = rng.uniform(0.0, 25.0, 48)
        base = sel.select(snrs).bitrate
        better = sel.select(snrs + shift_db).bitrate
        assert better >= base
