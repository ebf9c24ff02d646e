"""Per-node membership state machine: insertion, access control, proofs of
life, deletion, and the Sybil checks that guard them.

Each node keeps a replica of the shared instance plus a bounded FIFO of
recent update records.  One rule, :func:`apply_update_record`, applies every
record, live or in catch-up replay, one at a time per node; replicas that
apply the same record stream end up with byte-identical canonical state,
which is the property everything else leans on.

A replica is an immutable :class:`Replica` value, and replicas that agree
share one.  An insertion or a summary keeps its result on the value it
started from, keyed by exactly what it reads: of the members holding one
value, the first to hear an update computes it and the others look it up.
Kept results, a verifier's value after a grant and a finished catch-up are
interned by whole content, so values that split apart rejoin once equal.
"""

from __future__ import annotations

import struct
import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import attrgetter
from random import Random
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Union

from . import zkp
from .graph import (
    Graph,
    GraphError,
    HamiltonianCycle,
    NodeId,
    assign_new_id,
    encode_cycle,
    encode_graph,
    graph_digest,
    neighbor_set_for_insert,
    splice_delete,
    splice_insert,
)
from .zkp import Commitment, Prover, Response, run_proof


class ProtocolError(ValueError):
    """Base class for membership-protocol violations."""


class DuplicateIdError(ProtocolError):
    """An id that is already assigned was claimed or proposed."""


#: Slack added to the deletion window so a member is only removed once a full
#: period T plus the answer-collection latency has passed with no sign of
#: life; without it a node silent for barely one window would already be cut.
DELETION_GRACE = 0.5


# ---------------------------------------------------------------------------
# Update records (the FIFO catch-up queue contents)
# ---------------------------------------------------------------------------

# NamedTuples equal any tuple of their values: tell them apart by ``isinstance``.
class InsertionRecord(NamedTuple):
    stage: int
    node: NodeId
    neighbors: frozenset[NodeId]
    author: NodeId
    timestamp: float


class DeletionRecord(NamedTuple):
    stage: int
    node: NodeId
    author: NodeId
    timestamp: float


class PolRecord(NamedTuple):
    """A witnessed proof-of-life summary; does not advance the stage."""

    stage: int
    alive: frozenset[NodeId]
    author: NodeId
    timestamp: float


UpdateRecord = Union[InsertionRecord, DeletionRecord, PolRecord]

_RECORD_TAGS = {InsertionRecord: 0x01, DeletionRecord: 0x02, PolRecord: 0x03}


def encode_record(rec: UpdateRecord) -> bytes:
    head = struct.pack(">BId", _RECORD_TAGS[type(rec)], rec.stage, rec.timestamp)
    if isinstance(rec, InsertionRecord):
        body = struct.pack(">II", rec.node, rec.author) + _pack_id_set(rec.neighbors)
    elif isinstance(rec, DeletionRecord):
        body = struct.pack(">II", rec.node, rec.author)
    else:
        body = struct.pack(">I", rec.author) + _pack_id_set(rec.alive)
    return head + body


def _pack_id_set(ids: frozenset[NodeId]) -> bytes:
    seq = sorted(ids)
    return struct.pack(f">I{len(seq)}I", len(seq), *seq)


# ---------------------------------------------------------------------------
# Wire messages
# ---------------------------------------------------------------------------

#: Fixed per-message framing overhead added on top of the payload.
MESSAGE_HEADER_BYTES = 16


@dataclass(frozen=True, kw_only=True)
class Message:
    """Common envelope: transport sender, stage, and a network-clock stamp."""

    sender: NodeId
    stage: int
    sent_at: float = 0.0

    traffic_class = "insertion"
    secure_channel = False

    def payload_bytes(self) -> bytes:
        return b""

    def size(self) -> int:
        return MESSAGE_HEADER_BYTES + len(self.payload_bytes())


@dataclass(frozen=True, kw_only=True)
class InsertionAnnounce(Message):
    """An authenticator's first broadcast of an insertion: the id it proposes."""
    proposed_id: NodeId

    def payload_bytes(self) -> bytes:
        return struct.pack(">I", self.proposed_id)


@dataclass(frozen=True, kw_only=True)
class InsertionAck(Message):
    """A member's acknowledgement of a proposed id, sent to the authenticator alone."""
    proposed_id: NodeId

    def payload_bytes(self) -> bytes:
        return struct.pack(">I", self.proposed_id)


@dataclass(frozen=True, kw_only=True)
class NeighborSetBroadcast(Message):
    """A committed insertion: the new node and the neighbor group every replica splices in."""
    node: NodeId
    neighbors: frozenset[NodeId]

    def payload_bytes(self) -> bytes:
        return struct.pack(">I", self.node) + _pack_id_set(self.neighbors)


@dataclass(frozen=True, kw_only=True)
class GraphTransfer(Message):
    """Open-channel transfer of the public graph to a new member."""

    graph: Graph
    traffic_class = "graph_transfer"

    def payload_bytes(self) -> bytes:
        return encode_graph(self.graph)


@dataclass(frozen=True, kw_only=True)
class CycleTransfer(Message):
    """The secret cycle; may only travel on the secure channel class."""

    cycle: HamiltonianCycle
    traffic_class = "cycle_transfer"
    secure_channel = True

    def payload_bytes(self) -> bytes:
        return encode_cycle(self.cycle)


@dataclass(frozen=True, kw_only=True)
class PolInitiate(Message):
    """Opens a proof-of-life window; each member that hears it answers once."""
    window: int
    traffic_class = "proof_of_life"

    def payload_bytes(self) -> bytes:
        return struct.pack(">I", self.window)


@dataclass(frozen=True, kw_only=True)
class PolAnswer(Message):
    """A member's sign of life in one window, kept by the window's initiator."""
    claimed_id: NodeId
    window: int
    traffic_class = "proof_of_life"

    def payload_bytes(self) -> bytes:
        return struct.pack(">II", self.claimed_id, self.window)


@dataclass(frozen=True, kw_only=True)
class PolSummary(Message):
    """Second-step broadcast: the window's living set plus announced deletions."""

    window: int
    alive: frozenset[NodeId]
    deletions: frozenset[NodeId]
    traffic_class = "proof_of_life"

    def payload_bytes(self) -> bytes:
        return struct.pack(">I", self.window) + _pack_id_set(self.alive) + _pack_id_set(self.deletions)

    def deletion_payload_bytes(self) -> bytes:
        """The portion of the payload that carries deletion announcements."""
        return _pack_id_set(self.deletions)


@dataclass(frozen=True, kw_only=True)
class AccessRequest(Message):
    """A returning member's claim to its id and to the graph of its stage."""
    claimed_id: NodeId
    claimed_graph: Graph
    traffic_class = "zkp"

    def payload_bytes(self) -> bytes:
        return struct.pack(">I", self.claimed_id) + encode_graph(self.claimed_graph)


@dataclass(frozen=True, kw_only=True)
class ZkpCommit(Message):
    """One proof round's commitment, from the supplicant to the verifier."""
    commitment: Commitment
    traffic_class = "zkp"

    def payload_bytes(self) -> bytes:
        return self.commitment.graph_digest + self.commitment.cycle_digest


@dataclass(frozen=True, kw_only=True)
class ZkpChallenge(Message):
    """One proof round's challenge bit, from the verifier to the supplicant."""
    bit: int
    traffic_class = "zkp"

    def payload_bytes(self) -> bytes:
        return bytes([self.bit])


@dataclass(frozen=True, kw_only=True)
class ZkpResponse(Message):
    """One proof round's answer to its challenge, from the supplicant to the verifier."""
    response: Response
    traffic_class = "zkp"

    def payload_bytes(self) -> bytes:
        return zkp.encode_response(self.response)


@dataclass(frozen=True, kw_only=True)
class AccessGrant(Message):
    """Everything a returning member needs to converge: catch-up records,
    the current stage, and the proof-of-life window id."""

    records: tuple[UpdateRecord, ...]
    current_stage: int
    window: int
    traffic_class = "zkp"

    def payload_bytes(self) -> bytes:
        body = struct.pack(">III", self.current_stage, self.window, len(self.records))
        return body + b"".join(encode_record(r) for r in self.records)


MESSAGE_TYPES = (
    InsertionAnnounce,
    InsertionAck,
    NeighborSetBroadcast,
    GraphTransfer,
    CycleTransfer,
    PolInitiate,
    PolAnswer,
    PolSummary,
    AccessRequest,
    ZkpCommit,
    ZkpChallenge,
    ZkpResponse,
    AccessGrant,
)


# ---------------------------------------------------------------------------
# Node state and configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProtocolConfig:
    """Network-wide parameters agreed before the life-cycle starts.

    ``T`` is both the maximum tolerated off-line period and the proof-of-life
    cadence, in simulated seconds.  A quorum is half the currently legitimate
    (non-deleted) node count as recorded in the responder's own replica;
    "less than quorum" aborts.
    """

    T: float
    l: int = zkp.DEFAULT_ROUNDS
    termination_threshold: int = 3

    def __post_init__(self) -> None:
        if self.T <= 0:
            raise ProtocolError("threshold period T must be positive")
        if self.l < 1:
            raise ProtocolError("round count must be at least 1")
        if self.termination_threshold < 3:
            raise ProtocolError("termination threshold must be at least 3")

    @property
    def retention(self) -> float:
        """FIFO retention window: maximum staleness plus one full window."""
        return 2 * self.T

    def quorum_met(self, answers: int, legitimate: int) -> bool:
        return 2 * answers >= legitimate

    def window_of(self, now: float) -> int:
        return int(now // self.T)


@dataclass(frozen=True)
class Replica:
    """One value of a node's replica: the shared instance, its stage, the
    FIFO of recent update records in time order, the stage history and the
    on-line view.

    A value never changes; a transition makes a new one and keeps it in
    ``_kept``, so every member holding this value gets the same result
    object.  A transition that raises keeps nothing but an insertion's Sybil
    verdict, so it raises every time.  Kept results are interned, so equal
    values made apart become one.
    """

    graph: Graph
    cycle: Optional[HamiltonianCycle]
    stage: int
    fifo: tuple[UpdateRecord, ...]
    # stage -> (graph digest, time the stage was reached); bounded like the fifo
    stage_history: Mapping[int, tuple[bytes, float]]
    online_view: frozenset[NodeId]

    @classmethod
    def initial(cls, graph: Graph, cycle: HamiltonianCycle, now: float = 0.0, stage: int = 0) -> "Replica":
        # Setup itself is everyone's first sign of life; without this record a
        # member could be judged silent before the first window even closes.
        members = frozenset(graph.vertices)
        first = PolRecord(stage, members, min(members), now)
        history = MappingProxyType({stage: (graph_digest(graph), now)})
        return cls(graph, cycle, stage, (first,), history, members)

    @cached_property
    def _kept(self) -> dict:
        """The transitions made from this value: each result by what it read."""
        return {}


@dataclass
class NodeState:
    """One node: its id, the Sybil flags it raised, and the replica value it
    holds, which transitions replace and never edit.

    Whether the node is on-line, off-line or deleted is the simulator's to
    track, not the replica's.
    """

    id: NodeId
    replica: Replica
    sybil_flags: set[NodeId] = field(default_factory=set)

    # The replica's fields, read through the node.
    graph = property(attrgetter("replica.graph"))
    cycle = property(attrgetter("replica.cycle"))
    stage = property(attrgetter("replica.stage"))
    fifo = property(attrgetter("replica.fifo"))
    stage_history = property(attrgetter("replica.stage_history"))
    online_view = property(attrgetter("replica.online_view"))

    @classmethod
    def initial(
        cls,
        node_id: NodeId,
        graph: Graph,
        cycle: HamiltonianCycle,
        now: float = 0.0,
        stage: int = 0,
    ) -> "NodeState":
        return cls(node_id, Replica.initial(graph, cycle, now, stage))

    def fingerprint(self) -> bytes:
        """Canonical byte image of the replicated instance."""
        cycle_bytes = encode_cycle(self.cycle) if self.cycle is not None else b""
        return encode_graph(self.graph) + cycle_bytes


_timestamp = attrgetter("timestamp")

#: Every interned value some holder still has, by its whole content; the
#: values are weak, so a value leaves the table with its last holder.
_interned: "weakref.WeakValueDictionary[tuple, Replica]" = weakref.WeakValueDictionary()


def _intern(r: Replica) -> Replica:
    """The held value with ``r``'s content, which is ``r`` if none is held."""
    key = (r.graph, r.cycle, r.stage, r.fifo, frozenset(r.stage_history.items()), r.online_view)
    return _interned.setdefault(key, r)


def prune_fifo(state: NodeState, now: float, cfg: ProtocolConfig) -> None:
    """Give the node its replica without the records and the past stages
    older than the retention window at ``now``; with nothing to drop, the
    node keeps the value it holds.  The FIFO is in time order, so its old
    records are a prefix."""
    r = state.replica
    horizon = now - cfg.retention
    old = bisect_left(r.fifo, horizon, key=_timestamp)
    stale = [s for s, (_, t) in r.stage_history.items() if t < horizon and s != r.stage]
    if old or stale:
        history = {s: entry for s, entry in r.stage_history.items() if s not in stale}
        state.replica = Replica(r.graph, r.cycle, r.stage, r.fifo[old:], MappingProxyType(history), r.online_view)


def apply_update_record(state: NodeState, rec: UpdateRecord, cfg: ProtocolConfig) -> None:
    """Apply one record to a node's replica; the single rule for the shared
    instance, used identically by live handlers and catch-up replay.

    An insertion or deletion must carry the next stage, and splices to it.  A
    proof-of-life record of the current stage re-stamps that stage: a
    witnessed summary confirms it is live, so a member leaving now is measured
    stale from then.  Every record joins the FIFO in time order, after the
    records of its own time, and the FIFO is pruned at that time.  The node
    gets a new value computed from its old one, the record and the retention
    alone; the old value is not changed.
    """
    r = state.replica
    graph, cycle, stage, view = r.graph, r.cycle, r.stage, r.online_view
    if not isinstance(rec, PolRecord):
        if rec.stage != stage + 1:
            raise ProtocolError(f"update out of order: have stage {stage}, got {rec.stage}")
        if isinstance(rec, InsertionRecord):
            graph, cycle = splice_insert(graph, cycle, rec.node, rec.neighbors)
            view = view | {rec.node, rec.author}
        else:
            graph, cycle = splice_delete(graph, cycle, rec.node)
            view = view - {rec.node}
        stage = rec.stage
    history = r.stage_history
    if rec.stage == stage:
        history = MappingProxyType({**history, stage: (graph_digest(graph), rec.timestamp)})
    # A catch-up grant can replay a record older than the replica's own.
    at = bisect_right(r.fifo, rec.timestamp, key=_timestamp)
    state.replica = Replica(graph, cycle, stage, (*r.fifo[:at], rec, *r.fifo[at:]), history, view)
    prune_fifo(state, rec.timestamp, cfg)


# ---------------------------------------------------------------------------
# Insertion
# ---------------------------------------------------------------------------

class InsertCommitted(NamedTuple):
    broadcast: NeighborSetBroadcast
    graph_transfer: GraphTransfer
    cycle_transfer: CycleTransfer


class Aborted(NamedTuple):
    reason: str


def insert_degree(graph: Graph) -> int:
    """Neighbor-group size handed to joining nodes: the replica's current
    average degree, floored at the two cycle neighbors."""
    return max(2, (2 * graph.size) // graph.order)


def authenticator_insert(
    auth: NodeState,
    acks_received: int,
    rng: Random,
    now: float,
    cfg: ProtocolConfig,
    forced_id: Optional[NodeId] = None,
    forced_neighbors: Optional[frozenset[NodeId]] = None,
) -> Union[InsertCommitted, Aborted]:
    """Run the authenticator's side of an insertion after the announce round.

    Below quorum the procedure stops with no state change.  Otherwise the
    authenticator picks the neighbor group, splices its own replica, and
    returns the three outbound messages: the group broadcast, the open-channel
    graph transfer, and the secure-channel cycle transfer.

    ``forced_id``/``forced_neighbors`` exist for scripted scenario replay and
    bypass the id and group draws, never the quorum or splice rules.
    """
    legitimate = auth.graph.order
    if not cfg.quorum_met(acks_received, legitimate):
        return Aborted(f"quorum not met ({acks_received} of {legitimate})")
    new_id = forced_id if forced_id is not None else assign_new_id(auth.graph)
    try:
        if forced_neighbors is not None:
            neighbors = frozenset(forced_neighbors)
        else:
            neighbors = neighbor_set_for_insert(auth.graph, auth.cycle, insert_degree(auth.graph), rng)
        record = InsertionRecord(auth.stage + 1, new_id, neighbors, auth.id, now)
        apply_update_record(auth, record, cfg)
    except GraphError as exc:
        return Aborted(str(exc))
    return InsertCommitted(
        NeighborSetBroadcast(sender=auth.id, stage=auth.stage, sent_at=now, node=new_id, neighbors=neighbors),
        GraphTransfer(sender=auth.id, stage=auth.stage, sent_at=now, graph=auth.graph),
        CycleTransfer(sender=auth.id, stage=auth.stage, sent_at=now, cycle=auth.cycle),
    )


def apply_insertion_update(
    state: NodeState, broadcast: NeighborSetBroadcast, cfg: ProtocolConfig, now: float
) -> None:
    """Splice a broadcast insertion into a replica.

    A proposed id that is already a vertex is the duplicate-id attack from
    the Sybil analysis: :func:`detect_sybil` flags the sender and the update
    is rejected.  The verdict and the result are kept on the replica value,
    keyed by the broadcast, ``now`` and the retention, so a member that looks
    them up builds no record.
    """
    before, key = state.replica, (broadcast, now, cfg.retention)
    kept = before._kept.get(key)
    if kept is None:
        flagged = frozenset(detect_sybil(state, (broadcast,)))
        if not flagged:
            record = InsertionRecord(state.stage + 1, broadcast.node, broadcast.neighbors, broadcast.sender, now)
            apply_update_record(state, record, cfg)
        kept = before._kept[key] = flagged, None if flagged else _intern(state.replica)
    flagged, after = kept
    if flagged:
        state.sybil_flags |= flagged
        raise DuplicateIdError("ID already assigned")
    state.replica = after


# ---------------------------------------------------------------------------
# Access control
# ---------------------------------------------------------------------------

class Granted(NamedTuple):
    grant: AccessGrant


class Denied(NamedTuple):
    reason: str


def access_control(
    verifier: NodeState,
    req: AccessRequest,
    transport: Prover,
    cfg: ProtocolConfig,
    rng: Random,
    now: float,
) -> Union[Granted, Denied]:
    """Authenticate a returning member and hand it the catch-up records.

    Denials, in order of checking: the claimed id is currently in use
    on-line ("duplicate identity"; whether that is an attack or a member
    returning faster than the on-line view refreshes is for
    :func:`detect_sybil` to judge over the evidence stream); the id is no
    longer a member or its staleness exceeds T ("expired membership"); the
    claimed historical graph does not match this replica's record for that
    stage ("graph mismatch"); a proof round fails ("zkp failed"); the
    transport dies mid-proof ("protocol aborted").  Staleness exactly T
    still proceeds.
    """
    if req.claimed_id in verifier.online_view:
        return Denied("duplicate identity")
    if req.claimed_id not in verifier.graph.vertices:
        return Denied("expired membership")
    history = verifier.stage_history.get(req.stage)
    if history is None:
        return Denied("expired membership")
    recorded_digest, stage_time = history
    if now - stage_time > cfg.T:
        return Denied("expired membership")
    try:
        claimed_digest = graph_digest(req.claimed_graph)
    except GraphError:  # an id no encoding can carry matches no recorded graph
        claimed_digest = None
    if claimed_digest != recorded_digest:
        # Fabricated instance, or a replica from the far side of a partition:
        # either way the proof would be meaningless, so refuse to run it.
        return Denied("graph mismatch")
    try:
        result = run_proof(req.claimed_graph, transport, cfg.l, rng)
    except Exception:
        return Denied("protocol aborted")
    if not result.accepted:
        verifier.sybil_flags.add(req.sender)
        return Denied("zkp failed")
    catch_up = tuple(
        r for r in verifier.fifo
        if r.stage > req.stage or (isinstance(r, PolRecord) and r.timestamp > now - cfg.T)
    )
    verifier.replica = _intern(replace(verifier.replica, online_view=verifier.online_view | {req.claimed_id}))
    return Granted(
        AccessGrant(
            sender=verifier.id,
            stage=verifier.stage,
            sent_at=now,
            records=catch_up,
            current_stage=verifier.stage,
            window=cfg.window_of(now),
        )
    )


def apply_catch_up(state: NodeState, grant: AccessGrant, cfg: ProtocolConfig) -> None:
    """Replay a grant's records through :func:`apply_update_record`, adding
    each witnessed living set to the on-line view; the replica then lists
    itself on-line, is pruned at the grant's send time, and is interned."""
    for rec in grant.records:
        apply_update_record(state, rec, cfg)
        if isinstance(rec, PolRecord):
            state.replica = replace(state.replica, online_view=state.online_view | rec.alive)
    if state.stage != grant.current_stage:
        raise ProtocolError(
            f"catch-up incomplete: reached stage {state.stage}, expected {grant.current_stage}"
        )
    state.replica = replace(state.replica, online_view=state.online_view | {state.id})
    prune_fifo(state, grant.sent_at, cfg)
    state.replica = _intern(state.replica)


# ---------------------------------------------------------------------------
# Proofs of life and deletion
# ---------------------------------------------------------------------------

class PolCompleted(NamedTuple):
    summary: PolSummary


class PolAbortedOutcome(NamedTuple):
    answers: int


def proof_of_life_cycle(
    initiator: NodeState,
    answers: Iterable[PolAnswer],
    cfg: ProtocolConfig,
    now: float,
    window: Optional[int] = None,
) -> Union[PolCompleted, PolAbortedOutcome]:
    """Close one proof-of-life window from the initiator's point of view.

    Short of quorum the initiator stops without a summary.  Otherwise
    it emits the second-step broadcast carrying every collected proof plus
    the ids it found silent across the whole window (the deletion list that
    every replica will apply).  ``window`` labels the summary; it defaults to
    the current one but collection may finish just past the boundary, so
    drivers pass the window they actually collected.
    """
    collected = list(answers)
    if not cfg.quorum_met(len(collected), initiator.graph.order):
        return PolAbortedOutcome(len(collected))
    alive = frozenset(a.claimed_id for a in collected) | {initiator.id}
    deletions = deletion_candidates(initiator, alive, cfg, now)
    return PolCompleted(
        PolSummary(
            sender=initiator.id,
            stage=initiator.stage,
            sent_at=now,
            window=cfg.window_of(now) if window is None else window,
            alive=alive,
            deletions=deletions,
        )
    )


def deletion_candidates(
    state: NodeState,
    alive: frozenset[NodeId],
    cfg: ProtocolConfig,
    now: float,
) -> frozenset[NodeId]:
    """Members with no sign of life anywhere in the last full window.

    Evidence, checked against the FIFO queue: answering the current window,
    appearing in a witnessed summary, authoring any update, or being the
    subject of an insertion (broadcasters and authenticators are exempt from
    separate proofs).
    """
    evidence = set(alive)
    evidence.add(state.id)
    horizon = now - cfg.T - DELETION_GRACE
    for rec in state.fifo:
        if rec.timestamp <= horizon:
            continue
        evidence.add(rec.author)
        if isinstance(rec, InsertionRecord):
            evidence.add(rec.node)
        elif isinstance(rec, PolRecord):
            evidence |= rec.alive
    return frozenset(v for v in state.graph.vertices if v not in evidence)


def apply_deletion_update(
    state: NodeState, summary: PolSummary, cfg: ProtocolConfig, now: float
) -> list[NodeId]:
    """Apply a witnessed summary: record it, then splice out its deletions.

    The summary is a proof-of-life record of the current stage; its living
    set and sender become the on-line view.  The deletion list travels in the
    summary so that every replica applies the identical set, including
    members who joined mid-window and hold no earlier records.  Returns the
    ids actually removed.  A shrink below a valid cycle raises
    ``BelowMinimumOrder``; callers run the termination check.  The result
    and the removed ids are kept on the replica value, keyed by the summary,
    ``now`` and the retention, and the result is interned.
    """
    before, key = state.replica, (summary, now, cfg.retention)
    kept = before._kept.get(key)
    if kept is None:
        apply_update_record(state, PolRecord(state.stage, summary.alive, summary.sender, now), cfg)
        # The living set that ``proof_of_life_cycle`` or a scripted deletion
        # makes holds its sender already, and is then the view as it is.
        alive, sender, r = summary.alive, summary.sender, state.replica
        view = alive if sender in alive else alive | {sender}
        state.replica = Replica(r.graph, r.cycle, r.stage, r.fifo, r.stage_history, view)
        removed = tuple(sorted(summary.deletions & state.graph.vertices))
        for victim in removed:
            apply_update_record(state, DeletionRecord(state.stage + 1, victim, summary.sender, now), cfg)
        kept = before._kept[key] = _intern(state.replica), removed
    state.replica = kept[0]
    return list(kept[1])


def check_termination(online_count: int, cfg: ProtocolConfig) -> bool:
    """True when the life-cycle must end: too few on-line members remain."""
    return online_count < cfg.termination_threshold


# ---------------------------------------------------------------------------
# Sybil detection
# ---------------------------------------------------------------------------

def detect_sybil(state: NodeState, evidence: Iterable[Message]) -> set[NodeId]:
    """Flag senders showing duplicate-identity behavior in a message stream.

    Rules: requesting access with an id currently in use on-line; announcing
    or broadcasting an insertion under an id already assigned; or answering
    proofs of life for two or more distinct ids within one window.  The
    insertion handler and the engine ask here rather than judge themselves.
    """
    flagged: set[NodeId] = set()
    claimed_ids: dict[tuple[NodeId, int], set[NodeId]] = {}
    for msg in evidence:
        if isinstance(msg, AccessRequest) and msg.claimed_id in state.online_view:
            flagged.add(msg.sender)
        elif isinstance(msg, InsertionAnnounce) and msg.proposed_id in state.graph.vertices:
            flagged.add(msg.sender)
        elif isinstance(msg, NeighborSetBroadcast) and msg.node in state.graph.vertices:
            flagged.add(msg.sender)
        elif isinstance(msg, PolAnswer):
            ids = claimed_ids.setdefault((msg.sender, msg.window), set())
            ids.add(msg.claimed_id)
            if len(ids) >= 2:
                flagged.add(msg.sender)
    state.sybil_flags |= flagged
    return flagged
