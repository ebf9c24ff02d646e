"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
and the measured values as they complete.
"""

import functools
import math
import time
from dataclasses import replace
from random import Random

from conftest import record_air
from gasman.graph import (
    Graph,
    HamiltonianCycle,
    build_initial_graph,
    is_hamiltonian_cycle,
    splice_delete,
    splice_insert,
)
from gasman.protocol import (
    Aborted,
    AccessRequest,
    Denied,
    DuplicateIdError,
    Granted,
    InsertCommitted,
    NeighborSetBroadcast,
    NodeState,
    PolAnswer,
    PolAbortedOutcome,
    PolCompleted,
    PolSummary,
    ProtocolConfig,
    access_control,
    apply_catch_up,
    apply_deletion_update,
    apply_insertion_update,
    authenticator_insert,
    detect_sybil,
    proof_of_life_cycle,
)
from gasman.simulator import ChurnConfig, ScenarioConfig, _Engine, run_scenario
from gasman.zkp import HonestProver, OneBranchCheater, run_proof


def criterion(number: int, name: str, budget: float):
    """Print one verdict line per criterion, pass or fail, and enforce its
    time budget.  The wrapped test returns a short detail string."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            started = time.time()
            try:
                detail = fn()
                elapsed = time.time() - started
                assert elapsed < budget, f"exceeded {budget}s ({elapsed:.1f}s)"
            except BaseException as exc:
                summary = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
                print(f"ACCEPTANCE {number} FAIL: {name} ({summary})")
                raise
            print(f"ACCEPTANCE {number} PASS: {name} ({detail}; {elapsed:.1f}s)")

        return wrapper

    return decorate


# ---------------------------------------------------------------------------
# 1. Recorded splice reproduction
# ---------------------------------------------------------------------------

@criterion(1, "recorded splice sequence reproduced", budget=1.0)
def test_criterion_1_recorded_splice_sequence():
    initial = (8, 3, 9, 7, 4, 2, 6, 5, 1, 10, 0)
    expected = [
        (8, 3, 9, 7, 4, 14, 2, 6, 5, 1, 10, 0),
        (8, 3, 9, 7, 4, 14, 2, 6, 1, 10, 0),
        (8, 3, 9, 7, 4, 14, 2, 13, 6, 1, 10, 0),
    ]
    edges = frozenset(
        tuple(sorted((initial[i], initial[(i + 1) % 11]))) for i in range(11)
    )
    g = Graph(frozenset(initial), edges)
    hc = HamiltonianCycle(initial)
    seen = []
    g, hc = splice_insert(g, hc, 14, {4, 2})
    seen.append(hc)
    g, hc = splice_delete(g, hc, 5)
    seen.append(hc)
    g, hc = splice_insert(g, hc, 13, {2, 6})
    seen.append(hc)
    assert seen == [HamiltonianCycle(e) for e in expected]
    assert is_hamiltonian_cycle(g, hc)
    return "3 snapshots exact"


# ---------------------------------------------------------------------------
# 2. Proof completeness
# ---------------------------------------------------------------------------

@criterion(2, "1000 honest proofs all accept", budget=30.0)
def test_criterion_2_completeness_thousand_proofs():
    rng = Random(2024)
    failures = 0
    for _ in range(1000):
        n = rng.randrange(8, 65)
        g, hc = build_initial_graph(n, 2 * n, rng)
        result = run_proof(g, HonestProver(g, hc, rng), 20, rng)
        failures += not result.accepted
    assert failures == 0
    return "n in [8,64], 20 rounds, zero failures"


# ---------------------------------------------------------------------------
# 3. Proof soundness
# ---------------------------------------------------------------------------

@criterion(3, "one-branch cheater rates match", budget=300.0)
def test_criterion_3_soundness_rates():
    rng = Random(31337)
    g, _ = build_initial_graph(6, 6, rng)
    cheater = OneBranchCheater(g, rng)

    single = sum(run_proof(g, cheater, 1, rng).accepted for _ in range(10_000))
    rate_1 = single / 10_000
    assert abs(rate_1 - 0.50) <= 0.02, rate_1

    trials = 1_000_000
    ten = sum(run_proof(g, cheater, 10, rng).accepted for _ in range(trials))
    p = 0.5 ** 10
    sigma = math.sqrt(trials * p * (1 - p))
    assert abs(ten - trials * p) <= 3 * sigma, (ten, trials * p, sigma)
    return f"1 round: {rate_1:.4f}; 10 rounds: {ten}/1e6 vs {trials * p:.0f}+-{3 * sigma:.0f}"


# ---------------------------------------------------------------------------
# 4. Replica convergence
# ---------------------------------------------------------------------------

def _converged_sequence(seed: int, cfg: ProtocolConfig) -> None:
    rng = Random(seed)
    graph, cycle = build_initial_graph(8, 16, Random(seed))
    replica_ids = sorted(graph.vertices)[:5]
    nodes = {v: NodeState.initial(v, graph, cycle, 0.0) for v in replica_ids}
    now = 1.0
    for _ in range(rng.randrange(20, 201)):
        anchor = nodes[replica_ids[0]]
        members = sorted(anchor.graph.vertices)
        if anchor.graph.order <= 5 or rng.random() < 0.5:
            author = nodes[replica_ids[rng.randrange(5)]]
            outcome = authenticator_insert(author, 999, rng, now, cfg)
            if isinstance(outcome, Aborted):
                now += 1.0
                continue
            for v in replica_ids:
                if v != author.id:
                    apply_insertion_update(nodes[v], outcome.broadcast, cfg, now)
        else:
            candidates = [v for v in members if v not in replica_ids]
            if not candidates:
                now += 1.0
                continue
            victim = candidates[rng.randrange(len(candidates))]
            summary = PolSummary(
                sender=replica_ids[0], stage=anchor.stage, sent_at=now, window=0,
                alive=frozenset(members) - {victim}, deletions=frozenset({victim}),
            )
            for v in replica_ids:
                apply_deletion_update(nodes[v], summary, cfg, now)
        prints = {nodes[v].fingerprint() for v in replica_ids}
        assert len(prints) == 1, f"replicas diverged (seed {seed})"
        now += 1.0
    assert is_hamiltonian_cycle(nodes[replica_ids[0]].graph, nodes[replica_ids[0]].cycle)


@criterion(4, "500 mixed op sequences, 5 replicas byte-identical", budget=120.0)
def test_criterion_4_replica_convergence_500_sequences():
    cfg = ProtocolConfig(T=10_000.0, l=8)
    for seed in range(500):
        _converged_sequence(seed, cfg)
    return "every op checked"


# ---------------------------------------------------------------------------
# 5. Expiry boundary
# ---------------------------------------------------------------------------

@criterion(5, "staleness boundary exact", budget=1.0)
def test_criterion_5_expiry_boundary():
    cfg = ProtocolConfig(T=10.0, l=8)
    graph, cycle = build_initial_graph(11, 22, Random(5))
    nodes = {v: NodeState.initial(v, graph, cycle, 0.0) for v in sorted(graph.vertices)}
    supplicant = nodes[5]
    verifier = nodes[0]
    verifier.replica = replace(verifier.replica, online_view=verifier.online_view - {5})
    rng = Random(55)
    for step in (1, 2):  # two insertions the supplicant will have to catch up on
        outcome = authenticator_insert(nodes[1], 9, rng, float(step), cfg)
        assert isinstance(outcome, InsertCommitted)
        apply_insertion_update(verifier, outcome.broadcast, cfg, float(step))

    stage_time = verifier.stage_history[supplicant.stage][1]
    req = AccessRequest(
        sender=5, stage=supplicant.stage, sent_at=stage_time,
        claimed_id=5, claimed_graph=supplicant.graph,
    )
    at_T = access_control(
        verifier, req, HonestProver(supplicant.graph, supplicant.cycle, Random(1)),
        cfg, Random(2), now=stage_time + cfg.T,
    )
    assert isinstance(at_T, Granted)
    apply_catch_up(supplicant, at_T.grant, cfg)
    assert supplicant.fingerprint() == verifier.fingerprint()
    assert supplicant.id in supplicant.online_view

    verifier.replica = replace(verifier.replica, online_view=verifier.online_view - {5})
    req = AccessRequest(
        sender=5, stage=supplicant.stage, sent_at=stage_time,
        claimed_id=5, claimed_graph=supplicant.graph,
    )
    stage_time = verifier.stage_history[supplicant.stage][1]
    past_T = access_control(
        verifier, req, HonestProver(supplicant.graph, supplicant.cycle, Random(1)),
        cfg, Random(2), now=stage_time + cfg.T + 1e-6,
    )
    assert isinstance(past_T, Denied) and past_T.reason == "expired membership"
    return "T grants + converges, T+1e-6 denies"


# ---------------------------------------------------------------------------
# 6. Quorum boundaries
# ---------------------------------------------------------------------------

@criterion(6, "insertion and proof-of-life quorum boundaries", budget=1.0)
def test_criterion_6_quorum_boundaries():
    cfg = ProtocolConfig(T=10.0, l=8)
    for n in (10, 11):
        graph, cycle = build_initial_graph(n, 2 * n, Random(n))
        quorum = math.ceil(n / 2)

        below = NodeState.initial(0, graph, cycle, 0.0)
        outcome = authenticator_insert(below, quorum - 1, Random(1), 1.0, cfg)
        assert isinstance(outcome, Aborted), n
        assert below.stage == 0

        at = NodeState.initial(0, graph, cycle, 0.0)
        outcome = authenticator_insert(at, quorum, Random(1), 1.0, cfg)
        assert isinstance(outcome, InsertCommitted), n

        answers = [
            PolAnswer(sender=v, stage=0, sent_at=1.0, claimed_id=v, window=1)
            for v in range(1, quorum)
        ]
        pol_below = NodeState.initial(0, graph, cycle, 0.0)
        res = proof_of_life_cycle(pol_below, answers, cfg, 30.0)
        assert isinstance(res, PolAbortedOutcome), n

        pol_at = NodeState.initial(0, graph, cycle, 0.0)
        res = proof_of_life_cycle(
            pol_at,
            answers + [PolAnswer(sender=quorum, stage=0, sent_at=1.0,
                                 claimed_id=quorum, window=1)],
            cfg, 30.0,
        )
        assert isinstance(res, PolCompleted), n
        assert len(res.summary.alive) == quorum + 1
    return "n=10 and n=11, both flows"


# ---------------------------------------------------------------------------
# 7. Traffic shares
# ---------------------------------------------------------------------------

DEFAULT_SCENARIO = ScenarioConfig(
    n_initial=30, m=60, T=10.0, l=20, duration=200.0, seed=11,
    churn=ChurnConfig(insertion_request=0.10, node_turn_off=0.10, node_turn_on=0.10),
    connectivity="full_mesh",
)


@criterion(7, "traffic shares in range", budget=60.0)
def test_criterion_7_traffic_shares():
    result = run_scenario(DEFAULT_SCENARIO)
    shares = result.metrics.shares()
    assert shares["zkp"] < 0.15, shares
    assert shares["proof_of_life"] > 0.60, shares
    return f"zkp={shares['zkp']:.4f} pol={shares['proof_of_life']:.4f}"


# ---------------------------------------------------------------------------
# 8. Determinism
# ---------------------------------------------------------------------------

@criterion(8, "same seed, byte-identical outputs", budget=60.0)
def test_criterion_8_byte_identical_reruns():
    first = run_scenario(DEFAULT_SCENARIO)
    second = run_scenario(DEFAULT_SCENARIO)
    assert first.trace_text().encode() == second.trace_text().encode()
    assert first.metrics.to_json().encode() == second.metrics.to_json().encode()
    return "trace and metrics"


# ---------------------------------------------------------------------------
# 9. Sybil detection
# ---------------------------------------------------------------------------

@criterion(9, "attacks flagged, benign run clean", budget=30.0)
def test_criterion_9_sybil_detection_and_benign_baseline():
    cfg = ProtocolConfig(T=10.0, l=8)
    graph, cycle = build_initial_graph(11, 22, Random(9))
    defender = NodeState.initial(0, graph, cycle, 0.0)

    # Attack 1: access request under an id that is in use on-line.
    req = AccessRequest(sender=66, stage=0, sent_at=1.0, claimed_id=3, claimed_graph=graph)

    class NeverRuns:
        def next_commitment(self):
            raise AssertionError("flagged flow must not reach the proof")

        def answer(self, challenge):
            raise AssertionError("flagged flow must not reach the proof")

    decision = access_control(defender, req, NeverRuns(), cfg, Random(1), 1.0)
    assert isinstance(decision, Denied) and decision.reason == "duplicate identity"
    assert detect_sybil(defender, [req]) == {66}

    # Attack 2: insertion broadcast proposing an already assigned id.
    broadcast = NeighborSetBroadcast(
        sender=67, stage=1, sent_at=2.0, node=7, neighbors=frozenset({0, 1})
    )
    try:
        apply_insertion_update(defender, broadcast, cfg, 2.0)
        raise AssertionError("duplicate insertion must be rejected")
    except DuplicateIdError:
        pass
    assert 67 in defender.sybil_flags

    # Attack 3: one sender answering proofs of life under two ids.
    stream = [
        PolAnswer(sender=68, stage=0, sent_at=3.0, claimed_id=3, window=4),
        PolAnswer(sender=68, stage=0, sent_at=3.1, claimed_id=7, window=4),
    ]
    assert detect_sybil(defender, stream) == {68}

    # Benign baseline: a full churny run produces zero flags anywhere.
    engine = _Engine(
        ScenarioConfig(
            n_initial=15, m=30, T=8.0, l=10, duration=150.0, seed=6,
            churn=ChurnConfig(0.10, 0.10, 0.10),
        )
    )
    air = record_air(engine)
    engine.run()
    assert len(air) >= 200, "need at least a 200-event scenario"
    flags = set()
    for state in engine.nodes.values():
        flags |= state.sybil_flags
    assert flags == set(), flags
    observer = next(iter(engine.nodes.values()))
    pol_answers = [m for m in air if isinstance(m, PolAnswer)]
    assert detect_sybil(observer, pol_answers) == set()
    return f"3 attacks caught; {len(air)} benign messages, zero flags"
