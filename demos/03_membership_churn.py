"""Membership maintenance: quorums, catch-up, expiry, duplicate identities.

Drives the per-node state machine directly (no simulator) through the life of
one member: the network grows while it sleeps, it returns in time and catches
up, and an attacker trying to borrow an on-line identity is flagged.
"""

from dataclasses import replace
from random import Random

from gasman import build_initial_graph
from gasman.protocol import (
    AccessRequest,
    Denied,
    Granted,
    InsertCommitted,
    NodeState,
    PolAnswer,
    ProtocolConfig,
    access_control,
    apply_catch_up,
    apply_insertion_update,
    authenticator_insert,
    proof_of_life_cycle,
)
from gasman.zkp import HonestProver

cfg = ProtocolConfig(T=10.0, l=20)
rng = Random(42)

graph, cycle = build_initial_graph(11, 22, Random(1))
nodes = {v: NodeState.initial(v, graph, cycle, now=0.0) for v in sorted(graph.vertices)}
print("members:", sorted(nodes))

# --- quorum rule -------------------------------------------------------------

# 11 members: fewer than half the network acknowledging an insertion stops it.
stopped = authenticator_insert(nodes[0], acks_received=5, rng=rng, now=1.0, cfg=cfg)
print("\ninsert with 5 of 11 acks ->", type(stopped).__name__)
committed = authenticator_insert(nodes[0], acks_received=6, rng=rng, now=1.0, cfg=cfg)
assert isinstance(committed, InsertCommitted)
print("insert with 6 of 11 acks -> committed, new id", committed.broadcast.node)

# --- a member sleeps through updates ----------------------------------------

sleeper = nodes[5]
print("\nnode 5 goes off-line at stage", sleeper.stage)

for v in sorted(nodes):
    if v not in (0, 5):
        apply_insertion_update(nodes[v], committed.broadcast, cfg, now=1.0)

verifier = nodes[3]
# Node 5 is off-line: the verifier holds a replica whose view lacks it.
verifier.replica = replace(verifier.replica, online_view=verifier.online_view - {5})
print("network is now at stage", verifier.stage, "with", verifier.graph.order, "members")

# --- it returns within the window and catches up -----------------------------

request = AccessRequest(
    sender=5, stage=sleeper.stage, sent_at=6.0,
    claimed_id=5, claimed_graph=sleeper.graph,
)
prover = HonestProver(sleeper.graph, sleeper.cycle, rng)
decision = access_control(verifier, request, prover, cfg, rng, now=6.0)
assert isinstance(decision, Granted)
print("\nnode 5 re-authenticates: granted,", len(decision.grant.records), "catch-up records")
apply_catch_up(sleeper, decision.grant, cfg)
print("replicas byte-identical after replay:",
      sleeper.fingerprint() == verifier.fingerprint())

# --- proofs of life feed the deletion rule ------------------------------------

initiator = nodes[1]
answers = [
    PolAnswer(sender=v, stage=initiator.stage, sent_at=12.0, claimed_id=v, window=1)
    for v in sorted(nodes) if v != 1
]
outcome = proof_of_life_cycle(initiator, answers, cfg, now=12.0)
print("\nproof-of-life window closes:", len(outcome.summary.alive), "alive,",
      len(outcome.summary.deletions), "deletions")

# --- a borrowed identity is refused -------------------------------------------

thief = AccessRequest(
    sender=99, stage=verifier.stage, sent_at=13.0,
    claimed_id=3, claimed_graph=verifier.graph,  # id 3 is on-line right now
)
decision = access_control(verifier, thief, prover, cfg, rng, now=13.0)
assert isinstance(decision, Denied)
print("\naccess request under an on-line id ->", decision.reason)
print("flagged senders at the verifier:", sorted(verifier.sybil_flags))
