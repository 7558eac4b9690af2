"""Unit tests for the fixed-sequencer (GM) atomic broadcast."""

import pytest

from repro import QoSConfig, SystemConfig, build_system
from repro.core.types import BroadcastID, View
from repro.scenarios.runner import ScenarioRunner, SteadyStateSpec
from tests.conftest import assert_no_duplicates, assert_prefix_consistent


def gm_system(n=3, seed=13, algorithm="gm", **overrides):
    return build_system(SystemConfig(n=n, stack=algorithm, seed=seed, **overrides))


class TestNormalOperation:
    def test_single_message_delivered_everywhere(self):
        system = gm_system()
        system.start()
        system.broadcast_at(1.0, 1, "hello")
        system.run(until=100.0)
        for pid in range(3):
            assert system.abcast(pid).delivered == [((1, 1), "hello")]

    def test_total_order_with_concurrent_senders(self):
        system = gm_system()
        system.start()
        for i in range(12):
            system.broadcast_at(1.0 + 0.4 * i, i % 3, f"m{i}")
        system.run(until=1000.0)
        sequences = system.delivery_sequences()
        assert_prefix_consistent(sequences)
        assert_no_duplicates(sequences)
        assert all(len(seq) == 12 for seq in sequences.values())

    def test_sequencer_is_first_view_member(self):
        system = gm_system()
        system.start()
        assert system.membership(0).is_sequencer()
        assert not system.membership(1).is_sequencer()

    def test_sequencer_delivers_first(self):
        system = gm_system()
        system.start()
        deliveries = []
        system.add_delivery_listener(
            lambda pid, bid, payload: deliveries.append((system.sim.now, pid))
        )
        system.broadcast_at(1.0, 2, "x")
        system.run(until=100.0)
        first_time, first_pid = min(deliveries)
        assert first_pid == 0

    def test_batching_under_burst(self):
        system = gm_system()
        system.start()
        for i in range(20):
            system.broadcast_at(1.0 + 0.1 * i, i % 3, f"m{i}")
        system.run(until=1000.0)
        sequencer = system.abcasts[0]
        assert sequencer.batches_sequenced <= 12
        assert all(len(seq) == 20 for seq in system.delivery_sequences().values())

    def test_invalid_pipeline_depth_rejected(self):
        from repro.core.sequencer_broadcast import SequencerAtomicBroadcast

        system = gm_system()
        with pytest.raises(ValueError):
            SequencerAtomicBroadcast(
                system.processes[1], system.memberships[1], pipeline_depth=0
            )


class TestNonUniformVariant:
    def test_delivers_with_fewer_messages(self):
        uniform = gm_system(algorithm="gm")
        nonuniform = gm_system(algorithm="gm-nonuniform")
        for system in (uniform, nonuniform):
            system.start()
            system.broadcast_at(1.0, 1, "x")
            system.run(until=100.0)
        assert (
            nonuniform.message_stats()["messages_sent"]
            < uniform.message_stats()["messages_sent"]
        )
        assert [p for _b, p in nonuniform.abcast(2).delivered] == ["x"]

    def test_total_order_preserved(self):
        system = gm_system(algorithm="gm-nonuniform")
        system.start()
        for i in range(10):
            system.broadcast_at(1.0 + 0.5 * i, i % 3, f"m{i}")
        system.run(until=500.0)
        sequences = system.delivery_sequences()
        assert_prefix_consistent(sequences)
        assert all(len(seq) == 10 for seq in sequences.values())

    def test_non_sequencer_delivery_is_faster_than_uniform(self):
        def first_delivery_at(system, pid):
            times = {}
            system.add_delivery_listener(
                lambda p, bid, payload: times.setdefault(p, system.sim.now)
            )
            system.start()
            system.broadcast_at(1.0, 1, "x")
            system.run(until=100.0)
            return times[pid]

        uniform_time = first_delivery_at(gm_system(algorithm="gm"), 2)
        nonuniform_time = first_delivery_at(gm_system(algorithm="gm-nonuniform"), 2)
        assert nonuniform_time < uniform_time


class TestSequencerCrash:
    def test_view_change_resumes_delivery(self):
        system = gm_system(fd=QoSConfig(detection_time=10.0))
        system.start()
        system.broadcast_at(1.0, 1, "before")
        system.crash_at(30.0, 0)
        system.broadcast_at(40.0, 1, "during")
        system.broadcast_at(200.0, 2, "after")
        system.run(until=3000.0)
        sequences = system.delivery_sequences()
        assert_prefix_consistent(sequences, processes=[1, 2])
        assert len(sequences[1]) == 3
        assert system.membership(1).view.sequencer == 1

    def test_messages_in_flight_at_crash_not_lost(self):
        system = gm_system(fd=QoSConfig(detection_time=15.0))
        system.start()
        # Broadcast right before the sequencer crashes: the message must be
        # delivered through the view change (view synchrony) or re-sent.
        system.crash_at(10.0, 0)
        system.broadcast_at(10.0, 2, "in-flight")
        system.run(until=3000.0)
        for pid in (1, 2):
            payloads = [p for _b, p in system.abcast(pid).delivered]
            assert "in-flight" in payloads

    def test_uniformity_across_sequencer_crash(self):
        system = gm_system(fd=QoSConfig(detection_time=10.0))
        system.start()
        for i in range(8):
            system.broadcast_at(1.0 + 4 * i, 1 + i % 2, f"m{i}")
        system.crash_at(17.0, 0)
        system.run(until=3000.0)
        assert_prefix_consistent(system.delivery_sequences())

    def test_two_crashes_tolerated_n7(self):
        system = gm_system(n=7, fd=QoSConfig(detection_time=10.0))
        system.start()
        system.crash_at(20.0, 0)
        system.crash_at(120.0, 1)
        for i in range(10):
            system.broadcast_at(1.0 + 30 * i, 2 + i % 5, f"m{i}")
        system.run(until=10_000.0)
        alive = [2, 3, 4, 5, 6]
        sequences = system.delivery_sequences()
        assert_prefix_consistent(sequences, processes=alive)
        assert all(len(sequences[pid]) == 10 for pid in alive)
        assert system.membership(2).view.sequencer == 2


class TestBroadcastWhileNotOperational:
    def test_broadcast_during_view_change_is_buffered_and_delivered(self):
        system = gm_system(fd=QoSConfig(detection_time=5.0))
        system.start()
        system.crash_at(10.0, 0)
        # Right after detection the group is in a view change; broadcasts
        # issued then must still be delivered eventually.
        system.broadcast_at(16.0, 1, "during-view-change")
        system.run(until=3000.0)
        payloads = [p for _b, p in system.abcast(2).delivered]
        assert payloads == ["during-view-change"]


# --------------------------------------------------------------------------
# Protocol paths driven message by message.  The process under test receives
# hand-made messages of view (0, 0) from the sequencer (process 0) and the
# other members; its own sends are recorded instead of hitting the network.

VID = (0, 0)


def recorded(system, pid):
    """Record what ``pid`` sends: a list of (destinations, body)."""
    sent = []
    system.processes[pid].send = lambda _protocol, destinations, body: sent.append(
        (tuple(destinations), body)
    )
    return sent


def of_kind(sent, kind):
    return [(dest, body) for dest, body in sent if body[0] == kind]


def data(abcast, sender, broadcast_id, payload):
    abcast.on_message(sender, ("DATA", VID, broadcast_id, payload))


def seq(abcast, batch_id, ids, watermark=0, first_seqnum=None):
    first = batch_id if first_seqnum is None else first_seqnum
    entries = tuple((first + i, b) for i, b in enumerate(ids))
    abcast.on_message(0, ("SEQ", VID, batch_id, entries, watermark))


class TestAckFrontier:
    def test_seq_before_data_waits_for_retransmission(self):
        system = gm_system()
        member = system.abcast(1)
        sent = recorded(system, 1)
        a = BroadcastID(2, 1)
        seq(member, 1, [a])
        assert of_kind(sent, "ACK") == []
        assert of_kind(sent, "RETR_REQ") == [((0,), ("RETR_REQ", VID, (a,)))]
        assert member._unacked == {1}
        # Another pass over the unacked batches asks nobody again.
        data(member, 2, BroadcastID(2, 2), "other")
        assert len(of_kind(sent, "RETR_REQ")) == 1
        member.on_message(0, ("RETR_RESP", VID, ((a, "a"),)))
        assert of_kind(sent, "ACK") == [((0,), ("ACK", VID, 1))]
        assert member._unacked == set()

    def test_missing_payload_does_not_block_later_batch(self):
        system = gm_system()
        member = system.abcast(1)
        sent = recorded(system, 1)
        a, b = BroadcastID(2, 1), BroadcastID(2, 2)
        data(member, 2, b, "b")
        seq(member, 1, [a])
        seq(member, 2, [b])
        assert of_kind(sent, "ACK") == [((0,), ("ACK", VID, 2))]
        assert member._unacked == {1}
        data(member, 2, a, "a")
        assert [body[2] for _dest, body in of_kind(sent, "ACK")] == [2, 1]
        assert member._unacked == set()

    def test_nonuniform_keeps_no_unacked_batches(self):
        system = gm_system(algorithm="gm-nonuniform")
        member = system.abcast(1)
        sent = recorded(system, 1)
        a = BroadcastID(2, 1)
        data(member, 2, a, "a")
        seq(member, 1, [a])
        assert member._unacked == set()
        assert of_kind(sent, "ACK") == []
        assert member.delivered == [(a, "a")]


class TestStability:
    def test_all_acks_advance_watermark_and_drain_unstable(self):
        system = gm_system()
        sequencer = system.abcast(0)
        sent = recorded(system, 0)
        a = BroadcastID(2, 1)
        data(sequencer, 2, a, "a")
        assert of_kind(sent, "SEQ") == [((1, 2), ("SEQ", VID, 1, ((1, a),), 0))]
        assert sequencer._unstable == {a: 1}
        # A majority completes the batch; stability needs every member.
        sequencer.on_message(1, ("ACK", VID, 1))
        assert sequencer.delivered == [(a, "a")]
        assert sequencer._stable_watermark == 0
        assert sequencer._unstable == {a: 1}
        sequencer.on_message(2, ("ACK", VID, 1))
        assert sequencer._stable_watermark == 1
        assert sequencer._unstable == {}

    def test_watermark_from_sequencer_drains_member(self):
        system = gm_system()
        member = system.abcast(1)
        recorded(system, 1)
        a, b = BroadcastID(2, 1), BroadcastID(2, 2)
        data(member, 2, a, "a")
        data(member, 2, b, "b")
        seq(member, 1, [a])
        seq(member, 2, [b])
        assert set(member._unstable) == {a, b}
        member.on_message(0, ("DELIVER", VID, 1, 1))
        assert member._stable_watermark == 1
        assert member._unstable == {b: 2}

    def test_overtaken_seq_leaves_unstable_at_next_sweep(self):
        system = gm_system()
        member = system.abcast(1)
        recorded(system, 1)
        a, b, c = BroadcastID(2, 1), BroadcastID(2, 2), BroadcastID(2, 3)
        for broadcast_id, payload in ((a, "a"), (b, "b"), (c, "c")):
            data(member, 2, broadcast_id, payload)
        seq(member, 2, [b], watermark=1)
        assert member._stable_watermark == 1
        # The SEQ of batch 1 arrives after the news that batch 1 is stable.
        # It carries no watermark, so no sweep runs and ``a`` waits, exactly
        # as a full rescan on every watermark message would leave it.
        seq(member, 1, [a], watermark=0)
        assert a in member._unstable
        assert member._stale_unstable == [a]
        seq(member, 3, [c], watermark=1)
        assert set(member._unstable) == {b, c}
        assert member._stale_unstable == []

    def test_late_data_of_stable_batch_leaves_at_next_sweep(self):
        system = gm_system()
        member = system.abcast(1)
        recorded(system, 1)
        a, b = BroadcastID(2, 1), BroadcastID(2, 2)
        seq(member, 1, [a])
        member.on_message(0, ("RETR_RESP", VID, ((a, "a"),)))
        data(member, 2, b, "b")
        seq(member, 2, [b], watermark=1)
        assert a not in member._unstable
        # The original DATA of ``a`` arrives after its batch became stable
        # but before its DELIVER: it is unstable again until the next sweep.
        data(member, 2, a, "a")
        assert member._unstable[a] == 1
        member.on_message(0, ("DELIVER", VID, 1, 1))
        assert member.delivered == [(a, "a")]
        assert member._unstable == {b: 2}

    def test_collect_unstable_lists_the_unstable_messages(self):
        system = gm_system()
        member = system.abcast(1)
        recorded(system, 1)
        a, b, c, d = BroadcastID(2, 1), BroadcastID(2, 2), BroadcastID(1, 1), BroadcastID(2, 3)
        data(member, 2, a, "a")
        data(member, 2, b, "b")
        data(member, 1, c, "c")
        data(member, 2, d, "d")
        seq(member, 1, [a])
        seq(member, 2, [b, c], first_seqnum=2)
        # Batch 1 becomes stable; ``d`` is known but not sequenced yet.
        member.on_message(0, ("DELIVER", VID, 1, 1))
        member.on_view_change_started()
        assert member.collect_unstable() == ((c, "c", 3), (b, "b", 2), (d, "d", None))

    def test_view_installation_resets_the_indexes(self):
        system = gm_system()
        member = system.abcast(1)
        recorded(system, 1)
        a, b = BroadcastID(2, 1), BroadcastID(2, 2)
        data(member, 2, b, "b")
        seq(member, 2, [b], watermark=1)
        seq(member, 1, [a])  # payload missing: stays unacked
        assert member._unacked == {1}
        assert member._stale_unstable == [a]
        member.on_view_change_started()
        member.on_view_installed(View(1, (1, 2)))
        assert member._unacked == set()
        assert member._stale_unstable == []
        assert member._unstable == {}
        assert member._stable_watermark == 0
        assert member._leads_view
        assert member._sequencer_pid == 1
        assert member._member_set == frozenset({1, 2})
        assert member._others == (2,)
        assert member._majority == 2


class TestIndexInvariantsAfterRuns:
    """After a run has settled, the incremental indexes agree with a full scan.

    Only processes operating normally at the end are checked: a frozen or
    excluded process legitimately holds batches it may not acknowledge.
    """

    @staticmethod
    def settled(spec):
        system = build_system(spec.config)
        ScenarioRunner().run_steady_on(system, spec)
        system.run(until=system.sim.now + 2000.0)
        return system

    @staticmethod
    def assert_indexes_consistent(system):
        checked = 0
        for pid, abcast in enumerate(system.abcasts):
            if system.membership(pid).status != "member":
                continue
            checked += 1
            if not abcast._leads_view:
                assert abcast._unacked == set(), pid
            stale = [
                broadcast_id
                for broadcast_id in abcast._unstable
                if abcast._batch_of.get(broadcast_id, abcast._stable_watermark + 1)
                <= abcast._stable_watermark
            ]
            assert stale == [], pid
        assert checked >= system.config.n // 2 + 1

    def test_normal_steady(self):
        spec = SteadyStateSpec(
            scenario="normal-steady",
            config=SystemConfig(n=7, stack="gm", seed=3, fd=QoSConfig()),
            throughput=300.0,
            num_messages=300,
        )
        system = self.settled(spec)
        assert all(len(seq) >= 300 for seq in system.delivery_sequences().values())
        self.assert_indexes_consistent(system)

    def test_suspicion_steady(self):
        fd = QoSConfig(detection_time=0.0, mistake_recurrence_time=1000.0, mistake_duration=5.0)
        spec = SteadyStateSpec(
            scenario="suspicion-steady",
            config=SystemConfig(n=5, stack="gm", seed=5, fd=fd),
            throughput=100.0,
            num_messages=200,
        )
        system = self.settled(spec)
        assert sum(m.views_installed for m in system.memberships) > 0
        self.assert_indexes_consistent(system)
