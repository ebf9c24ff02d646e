"""Membership flows: quorums, replica convergence, expiry, Sybil defenses."""

from dataclasses import replace
from random import Random

import pytest
from cycle_solver import SolvingProver, overheard_graph
from hypothesis import given, strategies as st

from gasman.graph import (
    Graph,
    HamiltonianCycle,
    InvalidSplice,
    build_initial_graph,
    is_hamiltonian_cycle,
    neighbor_set_for_insert,
)
from gasman.protocol import (
    AccessGrant,
    AccessRequest,
    Aborted,
    CycleTransfer,
    DeletionRecord,
    Denied,
    DuplicateIdError,
    Granted,
    InsertCommitted,
    InsertionAnnounce,
    InsertionRecord,
    MESSAGE_TYPES,
    NeighborSetBroadcast,
    NodeState,
    PolAnswer,
    PolAbortedOutcome,
    PolCompleted,
    PolRecord,
    ProtocolConfig,
    access_control,
    apply_catch_up,
    apply_deletion_update,
    apply_insertion_update,
    authenticator_insert,
    check_termination,
    detect_sybil,
    encode_record,
    proof_of_life_cycle,
)
from gasman.zkp import HonestProver

CFG = ProtocolConfig(T=100.0, l=8)


def make_network(n=11, m=22, seed=1, now=0.0):
    """All-online replicas sharing one dealt instance."""
    graph, cycle = build_initial_graph(n, m, Random(seed))
    return {v: NodeState.initial(v, graph, cycle, now) for v in sorted(graph.vertices)}


def answers_from(ids, window=1, now=1.0):
    return [
        PolAnswer(sender=v, stage=0, sent_at=now, claimed_id=v, window=window)
        for v in ids
    ]


# ---------------------------------------------------------------------------
# Insertion
# ---------------------------------------------------------------------------

def test_insertion_quorum_boundaries_for_eleven_nodes():
    nodes = make_network()
    below = authenticator_insert(nodes[0], 5, Random(1), 1.0, CFG)
    assert isinstance(below, Aborted)
    assert nodes[0].stage == 0

    at = authenticator_insert(nodes[1], 6, Random(1), 1.0, CFG)
    assert isinstance(at, InsertCommitted)
    assert at.broadcast.node == 11  # lowest unassigned id
    assert nodes[1].stage == 1


def test_committed_insert_replays_identically_on_replicas():
    nodes = make_network()
    outcome = authenticator_insert(nodes[0], 9, Random(2), 1.0, CFG)
    assert isinstance(outcome, InsertCommitted)
    for v in (1, 2, 3):
        apply_insertion_update(nodes[v], outcome.broadcast, CFG, 1.0)
        assert nodes[v].fingerprint() == nodes[0].fingerprint()
    assert is_hamiltonian_cycle(nodes[1].graph, nodes[1].cycle)


def test_recorded_trace_splice_through_update_handler():
    order = (8, 3, 9, 7, 4, 2, 6, 5, 1, 10, 0)
    cycle = HamiltonianCycle(order)
    edges = frozenset(
        tuple(sorted((order[i], order[(i + 1) % 11]))) for i in range(11)
    )
    from gasman.graph import Graph

    state = NodeState.initial(0, Graph(frozenset(order), edges), cycle)
    broadcast = NeighborSetBroadcast(
        sender=4, stage=1, sent_at=1.29, node=14, neighbors=frozenset({4, 2})
    )
    apply_insertion_update(state, broadcast, CFG, 1.29)
    assert state.cycle == HamiltonianCycle((8, 3, 9, 7, 4, 14, 2, 6, 5, 1, 10, 0))


def test_duplicate_id_insertion_is_rejected_and_flagged():
    nodes = make_network()
    broadcast = NeighborSetBroadcast(
        sender=3, stage=1, sent_at=1.0, node=7, neighbors=frozenset({0, 1})
    )
    with pytest.raises(DuplicateIdError):
        apply_insertion_update(nodes[2], broadcast, CFG, 1.0)
    assert 3 in nodes[2].sybil_flags
    assert nodes[2].stage == 0


def test_an_unencodable_insertion_id_leaves_the_replica_unchanged():
    graph, cycle = build_initial_graph(8, 16, Random(1))
    state = NodeState.initial(0, graph, cycle)

    def replica():
        return (state.graph, state.cycle, state.stage, list(state.fifo),
                dict(state.stage_history), set(state.online_view))

    before = replica()
    neighbors = neighbor_set_for_insert(graph, cycle, 3, Random(2))
    broadcast = NeighborSetBroadcast(
        sender=3, stage=1, sent_at=1.0, node=2**32, neighbors=neighbors
    )
    with pytest.raises(InvalidSplice):
        apply_insertion_update(state, broadcast, CFG, 1.0)
    assert replica() == before
    assert state.graph is graph and state.cycle is cycle


@pytest.mark.parametrize("seed", range(5))
def test_random_conforming_broadcasts_keep_invariants(seed):
    nodes = make_network(seed=seed)
    rng = Random(seed)
    for step in range(5):
        outcome = authenticator_insert(nodes[0], 11, rng, float(step + 1), CFG)
        assert isinstance(outcome, InsertCommitted)
        apply_insertion_update(nodes[1], outcome.broadcast, CFG, float(step + 1))
        assert is_hamiltonian_cycle(nodes[1].graph, nodes[1].cycle)
        assert nodes[1].fingerprint() == nodes[0].fingerprint()


# ---------------------------------------------------------------------------
# Access control
# ---------------------------------------------------------------------------

def leave_out_of_view(state, node_id):
    """Give ``state`` a replica whose on-line view lacks ``node_id``."""
    state.replica = replace(state.replica, online_view=state.online_view - {node_id})


def offline_copy(nodes, node_id, when):
    """Detach one replica as an off-line supplicant snapshot."""
    return nodes[node_id]


def drive_updates(nodes, skip, count, start_time, rng):
    """Apply ``count`` insertions to every replica except ``skip``."""
    live = [v for v in sorted(nodes) if v != skip]
    for i in range(count):
        now = start_time + i
        outcome = authenticator_insert(nodes[live[0]], 99, rng, now, CFG)
        assert isinstance(outcome, InsertCommitted)
        for v in live[1:]:
            apply_insertion_update(nodes[v], outcome.broadcast, CFG, now)


def test_expiry_boundary_is_inclusive_at_T():
    nodes = make_network()
    supplicant = offline_copy(nodes, 5, when=0.0)
    verifier = nodes[0]
    leave_out_of_view(verifier, 5)
    req = AccessRequest(
        sender=5, stage=supplicant.stage, sent_at=0.0,
        claimed_id=5, claimed_graph=supplicant.graph,
    )
    prover = HonestProver(supplicant.graph, supplicant.cycle, Random(3))
    decision = access_control(verifier, req, prover, CFG, Random(4), now=CFG.T)
    assert isinstance(decision, Granted)

    leave_out_of_view(verifier, 5)
    prover = HonestProver(supplicant.graph, supplicant.cycle, Random(3))
    decision = access_control(
        verifier, req, prover, CFG, Random(4), now=CFG.T + 1e-6
    )
    assert isinstance(decision, Denied)
    assert decision.reason == "expired membership"


def test_duplicate_identity_denied_before_any_proof():
    nodes = make_network()
    verifier = nodes[0]

    class ExplodingProver:
        def next_commitment(self):
            raise AssertionError("proof must not start")

        def answer(self, challenge):
            raise AssertionError("proof must not start")

    req = AccessRequest(
        sender=77, stage=0, sent_at=1.0, claimed_id=3, claimed_graph=verifier.graph
    )
    decision = access_control(verifier, req, ExplodingProver(), CFG, Random(1), 1.0)
    assert isinstance(decision, Denied) and decision.reason == "duplicate identity"
    assert detect_sybil(verifier, [req]) == {77}


def test_catch_up_reconverges_after_three_inserts_and_one_delete():
    nodes = make_network()
    supplicant = offline_copy(nodes, 5, when=0.0)
    rng = Random(8)
    drive_updates(nodes, skip=5, count=3, start_time=1.0, rng=rng)

    # One deletion, announced through a summary every on-line replica applies.
    live = [v for v in sorted(nodes) if v != 5 and v != 7]
    summary_author = nodes[live[0]]
    summary = proof_of_life_cycle(
        summary_author, answers_from(live[1:], now=20.0), CFG, 20.0
    )
    assert isinstance(summary, PolCompleted)
    assert 7 not in summary.summary.alive
    for v in live:
        apply_deletion_update(nodes[v], summary.summary, CFG, 20.0)

    verifier = nodes[live[0]]
    assert supplicant.fingerprint() != verifier.fingerprint()
    req = AccessRequest(
        sender=5, stage=supplicant.stage, sent_at=21.0,
        claimed_id=5, claimed_graph=supplicant.graph,
    )
    prover = HonestProver(supplicant.graph, supplicant.cycle, Random(5))
    decision = access_control(verifier, req, prover, CFG, Random(6), now=21.0)
    assert isinstance(decision, Granted)
    apply_catch_up(supplicant, decision.grant, CFG)
    assert supplicant.id in supplicant.online_view
    assert supplicant.fingerprint() == verifier.fingerprint()


def test_an_outsider_that_overheard_one_graph_transfer_is_granted():
    # The public graph gives a cycle away.  An outsider that never held the
    # secret hears the open-channel GraphTransfer of one insertion (n = 30,
    # m = 60), solves that graph by rotation-extension (0.2-1.1 ms over five
    # seeds at this size, 40-90 ms at n = 1000) and passes the access proof
    # under the id of a member that fell silent.
    cfg = ProtocolConfig(T=10.0, l=20)
    nodes = make_network(n=30, m=60, seed=11)
    verifier = nodes[0]
    outcome = authenticator_insert(verifier, 29, Random(1), 1.0, cfg)
    assert isinstance(outcome, InsertCommitted)
    transfer = outcome.graph_transfer
    heard = overheard_graph(transfer.payload_bytes())
    assert (heard.vertices, heard.edges) == (transfer.graph.vertices, transfer.graph.edges)
    alive = [v for v in range(1, 31) if v != 7]
    done = proof_of_life_cycle(verifier, answers_from(alive, now=2.0), cfg, 2.0)
    assert isinstance(done, PolCompleted)
    apply_deletion_update(verifier, done.summary, cfg, 2.0)
    assert 7 in verifier.graph.vertices and 7 not in verifier.online_view
    outsider = SolvingProver(heard, Random(2), budget_s=1.0)
    request = AccessRequest(
        sender=1000, stage=transfer.stage, sent_at=3.0, claimed_id=7, claimed_graph=heard,
    )
    decision = access_control(verifier, request, outsider, cfg, Random(3), now=3.0)
    assert isinstance(decision, Granted)


def test_failed_proof_is_denied_and_flagged():
    nodes = make_network()
    supplicant = offline_copy(nodes, 5, when=0.0)
    verifier = nodes[0]
    leave_out_of_view(verifier, 5)

    class WrongWitnessProver:
        """Claims node 5's place with a fabricated instance."""

        def __init__(self):
            g, hc = build_initial_graph(11, 22, Random(99))
            self._inner = HonestProver(g, hc, Random(100))

        def next_commitment(self):
            return self._inner.next_commitment()

        def answer(self, challenge):
            return self._inner.answer(challenge)

    req = AccessRequest(
        sender=5, stage=supplicant.stage, sent_at=1.0,
        claimed_id=5, claimed_graph=supplicant.graph,
    )
    decision = access_control(verifier, req, WrongWitnessProver(), CFG, Random(2), 1.0)
    assert isinstance(decision, Denied) and decision.reason == "zkp failed"
    assert 5 in verifier.sybil_flags


def test_fabricated_history_graph_is_rejected():
    nodes = make_network()
    offline_copy(nodes, 5, when=0.0)
    verifier = nodes[0]
    leave_out_of_view(verifier, 5)
    fake_graph, fake_cycle = build_initial_graph(11, 22, Random(50))
    req = AccessRequest(
        sender=5, stage=0, sent_at=1.0, claimed_id=5, claimed_graph=fake_graph
    )
    prover = HonestProver(fake_graph, fake_cycle, Random(51))
    decision = access_control(verifier, req, prover, CFG, Random(52), 1.0)
    assert isinstance(decision, Denied) and decision.reason == "graph mismatch"


def test_unencodable_claimed_graph_is_a_mismatch_not_an_error():
    nodes = make_network(n=8, m=16, seed=1)
    offline_copy(nodes, 5, when=0.0)
    verifier = nodes[0]
    leave_out_of_view(verifier, 5)
    flags, view = set(verifier.sybil_flags), set(verifier.online_view)
    # Ids travel as 32-bit unsigned integers, so no encoding carries 2**32.
    claimed = Graph(verifier.graph.vertices | {2**32}, verifier.graph.edges)
    req = AccessRequest(sender=5, stage=0, sent_at=1.0, claimed_id=5, claimed_graph=claimed)
    prover = HonestProver(nodes[5].graph, nodes[5].cycle, Random(51))
    decision = access_control(verifier, req, prover, CFG, Random(52), 1.0)
    assert isinstance(decision, Denied) and decision.reason == "graph mismatch"
    assert verifier.sybil_flags == flags and verifier.online_view == view


def test_transport_failure_aborts_the_protocol():
    nodes = make_network()
    offline_copy(nodes, 5, when=0.0)
    verifier = nodes[0]
    leave_out_of_view(verifier, 5)

    class DyingTransport:
        def next_commitment(self):
            raise ConnectionError("supplicant out of range")

        def answer(self, challenge):
            raise ConnectionError("supplicant out of range")

    req = AccessRequest(
        sender=5, stage=0, sent_at=1.0, claimed_id=5, claimed_graph=nodes[5].graph
    )
    decision = access_control(verifier, req, DyingTransport(), CFG, Random(1), 1.0)
    assert isinstance(decision, Denied) and decision.reason == "protocol aborted"


# ---------------------------------------------------------------------------
# Proof of life and deletion
# ---------------------------------------------------------------------------

def test_pol_quorum_boundaries_for_eleven_nodes():
    nodes = make_network()
    initiator = nodes[0]

    aborted = proof_of_life_cycle(initiator, answers_from(range(1, 6)), CFG, 200.0)
    assert isinstance(aborted, PolAbortedOutcome)

    done = proof_of_life_cycle(initiator, answers_from(range(1, 7)), CFG, 200.0)
    assert isinstance(done, PolCompleted)
    assert len(done.summary.alive) == 7


def test_summary_with_everyone_alive_changes_nothing_but_the_fifo():
    nodes = make_network()
    initiator = nodes[0]
    done = proof_of_life_cycle(initiator, answers_from(range(1, 11)), CFG, 150.0)
    assert isinstance(done, PolCompleted)
    assert done.summary.deletions == frozenset()
    before = nodes[1].fingerprint()
    fifo_len = len(nodes[1].fifo)
    apply_deletion_update(nodes[1], done.summary, CFG, 150.0)
    assert nodes[1].fingerprint() == before
    assert len(nodes[1].fifo) == fifo_len + 1


def test_a_summary_applied_live_or_in_catch_up_leaves_the_same_record():
    # One record rule: a summary heard live and the same proof-of-life record
    # replayed from a grant re-stamp the current stage and join the FIFO alike.
    nodes = make_network()
    drive_updates(nodes, skip=None, count=1, start_time=1.0, rng=Random(3))
    live, caught_up = nodes[1], nodes[2]
    assert live.stage_history == caught_up.stage_history and live.fifo == caught_up.fifo
    done = proof_of_life_cycle(nodes[0], answers_from(range(1, 11), now=30.0), CFG, 30.0)
    assert isinstance(done, PolCompleted)
    assert apply_deletion_update(live, done.summary, CFG, 30.0) == []
    record = PolRecord(caught_up.stage, done.summary.alive, done.summary.sender, 30.0)
    grant = AccessGrant(sender=0, stage=1, sent_at=30.0, records=(record,), current_stage=1, window=0)
    apply_catch_up(caught_up, grant, CFG)
    assert live.stage_history == caught_up.stage_history
    assert live.stage_history[1][1] == 30.0 and live.stage_history[0][1] == 0.0
    assert live.fifo == caught_up.fifo and live.fifo[-1] == record


def test_silent_node_is_deleted_and_replicas_converge():
    nodes = make_network()
    live = [v for v in sorted(nodes) if v != 5]
    now = 2 * CFG.T  # far past node 5's last sign of life at time 0
    done = proof_of_life_cycle(nodes[0], answers_from(live[1:], now=now), CFG, now)
    assert isinstance(done, PolCompleted)
    assert done.summary.deletions == frozenset({5})
    prints = set()
    for v in live:
        removed = apply_deletion_update(nodes[v], done.summary, CFG, now)
        assert removed == [5]
        prints.add(nodes[v].fingerprint())
    assert len(prints) == 1
    assert 5 not in nodes[0].graph.vertices


def test_deletion_waits_out_a_full_window():
    nodes = make_network()
    live = [v for v in sorted(nodes) if v != 5]
    # Node 5's setup-time evidence is still inside the window: keep it.
    done = proof_of_life_cycle(
        nodes[0], answers_from(live[1:], now=CFG.T / 2), CFG, CFG.T / 2
    )
    assert isinstance(done, PolCompleted)
    assert done.summary.deletions == frozenset()


def test_fifo_prunes_beyond_the_retention_window():
    nodes = make_network()
    rng = Random(6)
    short = ProtocolConfig(T=5.0, l=8)  # retention 10s
    for step in range(12):
        outcome = authenticator_insert(nodes[0], 11, rng, float(step * 2), short)
        assert isinstance(outcome, InsertCommitted)
    times = [r.timestamp for r in nodes[0].fifo]
    assert times == sorted(times)
    assert all(t >= 22.0 - short.retention for t in times)
    # Stage history is pruned on the same horizon, except the live stage.
    assert nodes[0].stage in nodes[0].stage_history
    assert all(
        t >= 22.0 - short.retention
        for s, (_, t) in nodes[0].stage_history.items()
        if s != nodes[0].stage
    )


def test_membership_matches_vertices_after_updates():
    nodes = make_network()
    rng = Random(4)
    drive_updates(nodes, skip=None, count=2, start_time=1.0, rng=rng)
    for v in sorted(nodes):
        assert nodes[v].id in nodes[v].graph.vertices
        assert nodes[v].graph.vertices == nodes[0].graph.vertices


# ---------------------------------------------------------------------------
# Termination, Sybil, wire typing
# ---------------------------------------------------------------------------

def test_termination_boundaries():
    cfg = ProtocolConfig(T=10.0, termination_threshold=3)
    assert not check_termination(3, cfg)
    assert check_termination(2, cfg)


def test_detect_sybil_multi_id_pol_answers():
    nodes = make_network()
    stream = [
        PolAnswer(sender=42, stage=0, sent_at=1.0, claimed_id=3, window=7),
        PolAnswer(sender=42, stage=0, sent_at=1.1, claimed_id=7, window=7),
        PolAnswer(sender=9, stage=0, sent_at=1.2, claimed_id=9, window=7),
    ]
    assert detect_sybil(nodes[0], stream) == {42}
    assert 42 in nodes[0].sybil_flags


def test_detect_sybil_duplicate_access_and_insertion():
    nodes = make_network()
    stream = [
        AccessRequest(sender=50, stage=0, sent_at=1.0, claimed_id=3,
                      claimed_graph=nodes[0].graph),
        InsertionAnnounce(sender=51, stage=0, sent_at=1.0, proposed_id=7),
        InsertionAnnounce(sender=52, stage=0, sent_at=1.0, proposed_id=11),
        NeighborSetBroadcast(sender=53, stage=1, sent_at=1.0, node=7, neighbors=frozenset({0, 1})),
        NeighborSetBroadcast(sender=54, stage=1, sent_at=1.0, node=11, neighbors=frozenset({0, 1})),
    ]
    assert detect_sybil(nodes[0], stream) == {50, 51, 53}


def test_detect_sybil_ignores_benign_streams():
    nodes = make_network()
    stream = [
        PolAnswer(sender=v, stage=0, sent_at=1.0, claimed_id=v, window=3)
        for v in range(11)
    ] + [
        InsertionAnnounce(sender=0, stage=0, sent_at=2.0, proposed_id=11),
    ]
    assert detect_sybil(nodes[0], stream) == set()


def test_only_the_cycle_transfer_is_secure_and_carries_the_cycle():
    for cls in MESSAGE_TYPES:
        fields = set(cls.__dataclass_fields__)
        if cls is CycleTransfer:
            assert cls.secure_channel
            assert "cycle" in fields
        else:
            assert not cls.secure_channel
            assert "cycle" not in fields


# ---------------------------------------------------------------------------
# Update records
# ---------------------------------------------------------------------------

def test_record_encodings_are_pinned():
    # A catch-up grant carries these bytes: the tag, stage and time, then the
    # ids, each id set sorted behind its count.
    pinned = {
        InsertionRecord(7, 12, frozenset({3, 1, 9}), 4, 35.25):
            "01000000074041a000000000000000000c0000000400000003000000010000000300000009",
        DeletionRecord(8, 3, 4, 40.5): "020000000840444000000000000000000300000004",
        PolRecord(8, frozenset({4, 1, 12}), 12, 41.125):
            "030000000840449000000000000000000c0000000300000001000000040000000c",
    }
    for record, encoding in pinned.items():
        assert encode_record(record).hex() == encoding


@given(st.integers(0, 2**31), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
       st.floats(0, 1e6))
def test_records_of_different_kinds_never_compare_equal(stage, node, author, timestamp):
    # Replica values are interned by their FIFO, so a record of one kind must
    # never stand in for another that carries the same values.
    records = [
        InsertionRecord(stage, node, frozenset({author}), author, timestamp),
        DeletionRecord(stage, node, author, timestamp),
        PolRecord(stage, frozenset({node}), author, timestamp),
        PolRecord(stage, frozenset(), author, timestamp),
    ]
    for i, a in enumerate(records):
        for b in records[i + 1:]:
            assert a != b


# ---------------------------------------------------------------------------
# Replica convergence (randomized mini version of the acceptance criterion)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_replicas_converge_under_mixed_churn(seed):
    from gasman.protocol import PolSummary

    nodes = make_network(n=8, m=16, seed=seed)
    rng = Random(seed + 100)
    now = 1.0
    for _ in range(40):
        authors = sorted(nodes)
        author = nodes[authors[rng.randrange(len(authors))]]
        if author.graph.order <= 4 or rng.random() < 0.55:
            outcome = authenticator_insert(author, 99, rng, now, CFG)
            assert isinstance(outcome, InsertCommitted)
            for v in sorted(nodes):
                if v != author.id:
                    apply_insertion_update(nodes[v], outcome.broadcast, CFG, now)
            new_id = outcome.broadcast.node
            nodes[new_id] = NodeState.initial(
                new_id, author.graph, author.cycle, now, stage=author.stage
            )
        else:
            candidates = [v for v in sorted(nodes) if v != author.id]
            victim = candidates[rng.randrange(len(candidates))]
            summary = PolSummary(
                sender=author.id, stage=author.stage, sent_at=now,
                window=int(now // CFG.T),
                alive=frozenset(v for v in nodes if v != victim),
                deletions=frozenset({victim}),
            )
            for v in sorted(nodes):
                apply_deletion_update(nodes[v], summary, CFG, now)
            del nodes[victim]
        now += 1.0
        prints = {nodes[v].fingerprint() for v in sorted(nodes)}
        assert len(prints) == 1
        anchor = nodes[min(nodes)]
        assert is_hamiltonian_cycle(anchor.graph, anchor.cycle)
        assert anchor.graph.vertices == frozenset(nodes)
