"""Deterministic discrete-event simulation of a churning membership network.

The engine schedules node churn, mobility, message delivery, and the
membership flows, producing a human-readable trace (time / event / cycle
snapshot) and per-class traffic metrics.  Identical configurations and seeds
yield byte-identical outputs: time is fixed-point microseconds, every draw
comes from one seeded generator, and all iteration over node sets is sorted.

A run follows a ``gasman.scenario`` configuration; what the air reaches and
what each copy costs is decided in ``gasman.radio``.  A broadcast reaches
the sender's component as one delivery event, handled in id order by all
but the sender.  A membership step (an insertion's start or close, a proof
of life's close, a re-entry) due while a membership update is still on the
air waits until that update has landed.  Whether a member is on-line,
off-line or deleted is the engine's alone to track; replicas never hold it.
The on-line set is a frozenset that every status change replaces, so the
radio keeps its flood table while the set is the same object.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from random import Random
from types import MappingProxyType
from typing import NamedTuple, Optional

from .graph import (
    BelowMinimumOrder,
    Graph,
    HamiltonianCycle,
    NodeId,
    assign_new_id,
    build_initial_graph,
    instance_around_cycle,
)
from .mobility import MOVE_DT_US
from .protocol import (
    AccessRequest,
    Aborted,
    DuplicateIdError,
    Granted,
    InsertCommitted,
    InsertionAck,
    InsertionAnnounce,
    Message,
    NeighborSetBroadcast,
    NodeState,
    PolAnswer,
    PolCompleted,
    PolInitiate,
    PolSummary,
    ProtocolConfig,
    Replica,
    ZkpChallenge,
    ZkpCommit,
    ZkpResponse,
    access_control,
    apply_catch_up,
    apply_deletion_update,
    apply_insertion_update,
    authenticator_insert,
    check_termination,
    detect_sybil,
    proof_of_life_cycle,
)
# ``perfbench/tracer.py`` probes ``broadcast_deliver``, ``reachable``,
# ``step_mobility`` and ``heapq`` under their names in this module.  The radio
# walks legs without ``step_mobility``, so that probe reads 0 in a run.
from .radio import Radio, TrafficMetrics, broadcast_deliver, reachable, step_mobility  # noqa: F401
from .scenario import ScenarioConfig, ScriptedOp, _us
from .zkp import HonestProver

#: One simulated broadcast/unicast hop, in microseconds.
HOP_US = 1_000
#: Answers to a two-step broadcast arrive within this window.
ANSWER_LATENCY_US = 300_000
#: When the initiator of a two-step broadcast stops collecting answers.
COLLECT_CLOSE_US = ANSWER_LATENCY_US + 3 * HOP_US
#: Event kinds that wait while a membership update is on the air (``_act``).
#: Each reads a replica the update may not have reached yet: an author that
#: has not heard the last insertion proposes that insertion's id again.
_MEMBERSHIP_STEPS = frozenset({"start_insertion", "pol_close", "ack_close", "reentry"})
#: The engine handler of each delivered message type, by name: ``_on_deliver``
#: looks the name up on the engine, so a handler replaced on an instance runs.
_HANDLERS = {
    PolInitiate: "_handle_pol_initiate",
    PolAnswer: "_handle_pol_answer",
    PolSummary: "_handle_pol_summary",
    InsertionAnnounce: "_handle_insertion_announce",
    InsertionAck: "_handle_insertion_ack",
    NeighborSetBroadcast: "_handle_neighbor_set",
}


# ---------------------------------------------------------------------------
# Outputs
# ---------------------------------------------------------------------------

class TraceEvent(NamedTuple):
    time: float
    description: str
    hc_snapshot: Optional[tuple[NodeId, ...]] = None

    def to_line(self) -> str:
        hc = ",".join(str(v) for v in self.hc_snapshot) if self.hc_snapshot else ""
        return f"{self.time:.2f}\t{self.description}\t{hc}"


@dataclass
class ScenarioResult:
    """A finished run: its trace, its traffic metrics and how it ended."""
    trace: list[TraceEvent]
    metrics: TrafficMetrics
    outcome: str  # "completed" | "terminated"
    terminated_at: Optional[float] = None

    def trace_text(self) -> str:
        return "".join(event.to_line() + "\n" for event in self.trace)


# ---------------------------------------------------------------------------
# The event engine
# ---------------------------------------------------------------------------

def _sec(us: int) -> float:
    return us / 1_000_000


def _holds(ascending: tuple[NodeId, ...], node: NodeId) -> bool:
    i = bisect_left(ascending, node)
    return i < len(ascending) and ascending[i] == node


def _stagger_us(node: NodeId) -> int:
    # Fixed per-id offset so proof-of-life checks never collide exactly.
    return ((node * 9973) % 97 + 1) * 1_000


@dataclass
class _PolWindow:
    """What an initiator holds while it collects the answers of one window."""
    window: int
    sent_at_us: int
    answers: dict[NodeId, PolAnswer] = field(default_factory=dict)


@dataclass
class _Insertion:
    """What an authenticator holds while it collects the acknowledgements of one insertion."""
    author: NodeId
    proposed: NodeId
    forced_id: Optional[NodeId]
    forced_neighbors: Optional[frozenset[NodeId]]
    acks: set[NodeId] = field(default_factory=set)


@dataclass
class _Member(NodeState):
    """A member as the engine holds it: its node state, the highest
    proof-of-life windows it ran or heard run, answered and applied (-1 for
    none), and when it last showed life and last turned off, in engine
    microseconds.  A newcomer on a reused id is a new record: it starts fresh."""

    last_proof_us: int = 0
    handled_window: int = -1
    answered_window: int = -1
    summary_window: int = -1
    turn_off_us: int = 0


class _Engine:
    def __init__(self, cfg: ScenarioConfig):
        cfg.validate()
        self.cfg = cfg
        self.pcfg = ProtocolConfig(
            T=cfg.T, l=cfg.l, termination_threshold=cfg.termination_threshold
        )
        self.rng = Random(cfg.seed)
        self.now_us = 0
        self._heap: list[tuple[int, int, str, tuple]] = []
        self.trace: list[TraceEvent] = []
        self.terminated_at: Optional[float] = None

        graph, cycle = self._dealer_setup()
        # Every member starts from one dealt replica value.
        dealt = Replica.initial(graph, cycle)
        self.nodes: dict[NodeId, _Member] = {v: _Member(v, dealt) for v in sorted(graph.vertices)}
        # The engine alone knows where each member is in its life cycle: a
        # node in neither set is deleted.  Replicas never see these sets.
        self.online: frozenset[NodeId] = frozenset(self.nodes)
        self.offline: set[NodeId] = set()
        self.awaiting_reentry: set[NodeId] = set()
        self.last_summary_us: int = -1
        self.last_summary_alive: frozenset[NodeId] = frozenset()
        self.pending_pol: dict[NodeId, _PolWindow] = {}
        self.pending_insert: Optional[_Insertion] = None
        # When the last membership update on the air lands (see ``_act``).
        self._update_lands_us = 0
        self.radio = Radio(cfg, sorted(self.nodes), self.rng)
        duration_us = _us(cfg.duration)
        self._moves = duration_us // MOVE_DT_US if self.radio.geo is not None else 0
        self._churns = min(int(cfg.duration), duration_us // 1_000_000)

        members = ", ".join(str(v) for v in sorted(self.nodes))
        self._trace(f"{members} are legitimate", snapshot=cycle)

        # Each periodic tick queues the next, so the heap stays O(n) for any
        # duration.  Ticks keep the sequence numbers they would get if all
        # were queued here, so the (time, seq) order is unchanged.
        self._seq = self._moves + self._churns
        self._queue_tick("move", 1)
        self._queue_tick("churn", 1)
        for v in sorted(self.nodes):
            self._schedule_pol_check(v)
        for i, op in enumerate(sorted(cfg.script, key=lambda o: (o.time, o.op))):
            self._push(_us(op.time), "script", (i, op))

    # -- plumbing ----------------------------------------------------------

    def _dealer_setup(self) -> tuple[Graph, HamiltonianCycle]:
        cfg = self.cfg
        if cfg.initial_cycle is None:
            return build_initial_graph(cfg.n_initial, cfg.m, self.rng)
        # ``validate`` has shown the ids to be n_initial distinct 32-bit integers.
        return instance_around_cycle(tuple(cfg.initial_cycle), 2 * cfg.m // cfg.n_initial, self.rng)

    def _push(self, t_us: int, kind: str, payload: tuple) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (t_us, self._seq, kind, payload))

    def _queue_tick(self, kind: str, k: int) -> None:
        # Move tick k holds sequence number k; churn second k, moves + k.
        if kind == "move" and k <= self._moves:
            heapq.heappush(self._heap, (k * MOVE_DT_US, k, kind, (k,)))
        elif kind == "churn" and k <= self._churns:
            heapq.heappush(self._heap, (k * 1_000_000, self._moves + k, kind, (k,)))

    def _trace(self, description: str, snapshot: Optional[HamiltonianCycle] = None) -> None:
        self.trace.append(
            TraceEvent(
                _sec(self.now_us),
                description,
                snapshot.order if snapshot is not None else None,
            )
        )

    @property
    def now_s(self) -> float:
        return _sec(self.now_us)

    def _check_termination(self) -> None:
        if self.terminated_at is not None:
            return
        online = len(self.online)
        if check_termination(online, self.pcfg):
            self.terminated_at = self.now_s
            self._trace(f"Network terminated: {online} nodes on-line")

    def _broadcast(self, msg: Message) -> None:
        """Flood a broadcast from ``msg.sender`` over the on-line nodes and
        schedule its delivery to the sender's component the radio gives."""
        component = self.radio.flood(msg, self.online)
        if len(component) == 1:  # a lone sender reaches no one
            return
        self._push(self.now_us + HOP_US, "deliver", (msg, component))
        # A summary's deletions make it a membership update, as every
        # insertion broadcast is.
        if isinstance(msg, NeighborSetBroadcast) or isinstance(msg, PolSummary) and msg.deletions:
            self._update_lands_us = self.now_us + HOP_US

    # -- scheduling --------------------------------------------------------

    def _act(self, kind: str, payload: tuple) -> None:
        """Handle an event, unless it is a membership step and an update is on
        the air: then requeue it for when the update lands.  Run now, it would
        splice, delete from or catch up on a replica the update has not
        reached, and a newcomer would never hear it.  The churn tick and the
        script start insertions here directly, so a start keeps its order
        against the turn-off and turn-on drawn in the same tick."""
        if kind in _MEMBERSHIP_STEPS and self.now_us < self._update_lands_us:
            self._push(self._update_lands_us, kind, payload)
        else:
            getattr(self, f"_on_{kind}")(*payload)

    def _schedule_pol_check(self, node: NodeId) -> None:
        t = self.nodes[node].last_proof_us + _us(self.cfg.T) + _stagger_us(node)
        self._push(max(t, self.now_us + 1), "pol_check", (node,))

    # -- main loop ---------------------------------------------------------

    def run(self) -> ScenarioResult:
        duration_us = _us(self.cfg.duration)
        while self._heap and self.terminated_at is None:
            t_us, _, kind, payload = heapq.heappop(self._heap)
            if t_us > duration_us:
                break
            self.now_us = t_us
            self._act(kind, payload)
        outcome = "terminated" if self.terminated_at is not None else "completed"
        return ScenarioResult(self.trace, self.radio.metrics, outcome, self.terminated_at)

    # -- event handlers ----------------------------------------------------

    def _on_move(self, tick: int) -> None:
        self._queue_tick("move", tick + 1)
        self.radio.move(self.rng)

    def _on_churn(self, second: int) -> None:
        self._queue_tick("churn", second + 1)
        churn = self.cfg.churn
        if self.rng.random() < churn.insertion_request:
            self._act("start_insertion", (None, None, None))
        if self.rng.random() < churn.node_turn_off:
            self._turn_off(self._draw(self.online))
        if self.rng.random() < churn.node_turn_on:
            self._turn_on(self._draw(self.offline - self.awaiting_reentry))

    def _on_script(self, index: int, op: ScriptedOp) -> None:
        if op.op == "insert":
            forced = frozenset(op.neighbors) if op.neighbors else None
            self._act("start_insertion", (op.node, forced, op.author))
        elif op.op == "delete":
            self._scripted_delete(op.node)
        elif op.op == "turn_off":
            self._turn_off(op.node)
        elif op.op == "turn_on":
            self._turn_on(op.node)

    def _on_deliver(self, msg: Message, recipients: tuple[NodeId, ...]) -> None:
        """Hand one message to each recipient but its sender in id order, at once.

        The copies of one transmission share a time stamp, so no other event
        could run between them; the batch is one event.  It stops where the
        run loop would have stopped between events: at termination.
        """
        name = _HANDLERS.get(type(msg))
        if name is None:
            return
        handle = getattr(self, name)
        if type(msg) is PolAnswer:
            # Only a node collecting answers can act on one, and answers do
            # not open or close collections.  Few windows are open at once, so
            # find each in the component, which ascends, by bisection.
            component = recipients
            recipients = [r for r in sorted(self.pending_pol) if _holds(component, r)]
        sender = msg.sender
        for recipient in recipients:
            if self.terminated_at is not None:
                return
            if recipient != sender and recipient in self.online:
                handle(self.nodes[recipient], msg)

    # -- proofs of life ----------------------------------------------------

    def _on_pol_check(self, node: NodeId) -> None:
        if node not in self.online:
            return
        state = self.nodes[node]
        T_us = _us(self.cfg.T)
        if self.now_us - state.last_proof_us <= T_us:
            self._schedule_pol_check(node)
            return
        window = self.now_us // T_us
        if state.handled_window >= window:
            # Someone else is running this window; check again next window.
            self._push((window + 1) * T_us + _stagger_us(node), "pol_check", (node,))
            return
        state.handled_window = window
        self._trace(f"Proof of life started by Node {node}")
        self.pending_pol[node] = _PolWindow(window, self.now_us)
        msg = PolInitiate(
            sender=node, stage=state.stage, sent_at=self.now_s, window=window
        )
        self._broadcast(msg)
        self._push(self.now_us + COLLECT_CLOSE_US, "pol_close", (node, window))

    def _handle_pol_initiate(self, state: _Member, msg: PolInitiate) -> None:
        state.handled_window = max(state.handled_window, msg.window)
        pending = self.pending_pol.get(state.id)
        if pending is not None and pending.window == msg.window:
            # Two initiators raced within a hop: the earlier broadcast wins
            # (ties break on id), the other concedes and answers like anyone.
            if (msg.sent_at, msg.sender) < (_sec(pending.sent_at_us), state.id):
                self.pending_pol.pop(state.id)
            else:
                return
        if state.answered_window >= msg.window:
            return
        state.answered_window = msg.window
        latency = self.rng.randrange(ANSWER_LATENCY_US)
        self._push(self.now_us + latency, "pol_answer_send", (state.id, msg.window))

    def _on_pol_answer_send(self, node: NodeId, window: int) -> None:
        if node not in self.online:
            return
        state = self.nodes[node]
        state.last_proof_us = self.now_us
        answer = PolAnswer(
            sender=node, stage=state.stage, sent_at=self.now_s,
            claimed_id=node, window=window,
        )
        self._broadcast(answer)

    def _handle_pol_answer(self, state: NodeState, msg: PolAnswer) -> None:
        pending = self.pending_pol.get(state.id)
        if pending is None or pending.window != msg.window:
            return
        earlier = pending.answers.get(msg.sender)
        if earlier is not None:
            if detect_sybil(state, (earlier, msg)):
                del pending.answers[msg.sender]
        elif msg.sender not in state.sybil_flags:
            pending.answers[msg.sender] = msg

    def _on_pol_close(self, node: NodeId, window: int) -> None:
        pending = self.pending_pol.pop(node, None)
        if pending is None or node not in self.online:
            return
        state = self.nodes[node]
        state.last_proof_us = self.now_us
        outcome = proof_of_life_cycle(
            state, pending.answers.values(), self.pcfg, self.now_s, window=window
        )
        if not isinstance(outcome, PolCompleted):
            self._trace(
                f"Proof of life by Node {node} aborted ({outcome.answers} answers)"
            )
            return
        summary = outcome.summary
        silent = sorted(state.graph.vertices - set(summary.alive))
        if silent:
            names = ", ".join(str(v) for v in silent)
            label = "Node" if len(silent) == 1 else "Nodes"
            verb = "does" if len(silent) == 1 else "do"
            self._trace(f"{label} {names} {verb} not answer to the proof of life")
        self._broadcast(summary)
        self.last_summary_us = self.now_us
        self.last_summary_alive = frozenset(summary.alive)
        self._apply_summary(state, summary, traced=True)
        self._schedule_pol_check(node)
        self._schedule_reentries()

    def _handle_pol_summary(self, state: _Member, msg: PolSummary) -> None:
        # A summary of window w leaves after w*T plus the answer collection, so
        # a replica hears windows in order and a repeat is of its highest one.  A
        # scripted deletion, labelled when the script fires, can land before the
        # late close of the window below, and that summary is no repeat.
        if msg.window == state.summary_window:
            return
        self._apply_summary(state, msg, traced=False)

    def _apply_summary(self, state: _Member, summary: PolSummary, traced: bool) -> None:
        before = state.cycle
        if state.id in summary.deletions:  # a replica told it is silent is gone
            self.online = self.online - {state.id}
        try:
            removed = apply_deletion_update(state, summary, self.pcfg, self.now_s)
        except BelowMinimumOrder:
            self.terminated_at = self.now_s
            self._trace("Network terminated: graph below minimum order")
            return
        state.summary_window = max(state.summary_window, summary.window)
        if not self.online.isdisjoint(removed):  # once per summary, not per replica
            self.online = self.online.difference(removed)
        snapshot = before
        for victim in removed:
            self.offline.discard(victim)
            self.awaiting_reentry.discard(victim)
            if traced:
                snapshot = HamiltonianCycle(
                    tuple(v for v in snapshot.order if v != victim)
                )
                self._trace(f"Node {victim} is deleted", snapshot=snapshot)
        if removed:
            self._check_termination()

    # -- insertion ---------------------------------------------------------

    def _on_start_insertion(
        self,
        forced_id: Optional[NodeId],
        forced_neighbors: Optional[frozenset[NodeId]],
        author: Optional[NodeId],
    ) -> None:
        if not self.online or self.pending_insert is not None:
            return  # first announce wins; overlapping requests abort
        auth_id = author if author in self.online else self._draw(self.online)
        if self.rng.random() < self.cfg.admission_deny_prob:
            self._trace(f"Node {auth_id} denies membership to a supplicant")
            return
        auth = self.nodes[auth_id]
        proposed = forced_id if forced_id is not None else assign_new_id(auth.graph)
        announce = InsertionAnnounce(
            sender=auth_id, stage=auth.stage, sent_at=self.now_s, proposed_id=proposed
        )
        self.pending_insert = _Insertion(auth_id, proposed, forced_id, forced_neighbors)
        self._broadcast(announce)
        self._push(self.now_us + COLLECT_CLOSE_US, "ack_close", (auth_id,))

    def _handle_insertion_announce(self, state: NodeState, msg: InsertionAnnounce) -> None:
        if detect_sybil(state, (msg,)):
            return
        latency = self.rng.randrange(ANSWER_LATENCY_US)
        self._push(self.now_us + latency, "insertion_ack_send", (state.id, msg.sender, msg.proposed_id))

    def _on_insertion_ack_send(self, node: NodeId, author: NodeId, proposed: NodeId) -> None:
        if node not in self.online:
            return
        state = self.nodes[node]
        ack = InsertionAck(
            sender=node, stage=state.stage, sent_at=self.now_s, proposed_id=proposed
        )
        if self.radio.send(ack, node, author):
            self._push(self.now_us + HOP_US, "deliver", (ack, (author,)))

    def _handle_insertion_ack(self, state: NodeState, msg: InsertionAck) -> None:
        pending = self.pending_insert
        if pending and pending.author == state.id and pending.proposed == msg.proposed_id:
            pending.acks.add(msg.sender)

    def _on_ack_close(self, author_id: NodeId) -> None:
        pending, self.pending_insert = self.pending_insert, None
        if pending is None or pending.author != author_id:
            return
        if author_id not in self.online:
            return
        auth = self.nodes[author_id]
        outcome = authenticator_insert(
            auth,
            len(pending.acks),
            self.rng,
            self.now_s,
            self.pcfg,
            forced_id=pending.forced_id,
            forced_neighbors=pending.forced_neighbors,
        )
        if isinstance(outcome, Aborted):
            self._trace(f"Insertion by Node {author_id} aborted ({outcome.reason})")
            return
        new_id = outcome.broadcast.node
        self._trace(
            f"Insertion of Node {new_id} is broadcast by Node {author_id}",
            snapshot=auth.cycle,
        )
        self._broadcast(outcome.broadcast)
        self._spawn_member(auth, outcome, new_id)

    def _handle_neighbor_set(self, state: NodeState, msg: NeighborSetBroadcast) -> None:
        try:
            apply_insertion_update(state, msg, self.pcfg, self.now_s)
        except (DuplicateIdError, ValueError):
            return  # rejected; flag already set where applicable

    def _spawn_member(self, auth: NodeState, outcome: InsertCommitted, new_id: NodeId) -> None:
        self.radio.place(new_id, auth.id)
        if not self.radio.send(outcome.graph_transfer, auth.id, new_id):
            self._trace(f"Node {new_id} unreachable; graph transfer dropped")
            return
        if not self.radio.send(outcome.cycle_transfer, auth.id, new_id):
            self._trace(f"Node {new_id} out of secure range; cycle transfer dropped")
            return
        replica = replace(
            Replica.initial(outcome.graph_transfer.graph, outcome.cycle_transfer.cycle, self.now_s),
            stage=auth.stage,
            stage_history=MappingProxyType({auth.stage: auth.stage_history[auth.stage]}),
            online_view=auth.online_view,
        )
        # A reused id replaces whatever node held it, with its windows and times.
        self.nodes[new_id] = _Member(new_id, replica, last_proof_us=self.now_us)
        self.online = self.online | {new_id}
        self.offline.discard(new_id)
        self._schedule_pol_check(new_id)

    # -- churn -------------------------------------------------------------

    def _draw(self, nodes: frozenset[NodeId] | set[NodeId]) -> Optional[NodeId]:
        """A uniform pick from ``nodes`` in id order, or ``None`` from none."""
        pool = sorted(nodes)
        return pool[self.rng.randrange(len(pool))] if pool else None

    def _turn_off(self, node: Optional[NodeId]) -> None:
        if node not in self.online:
            return
        self.online = self.online - {node}
        self.offline.add(node)
        self.nodes[node].turn_off_us = self.now_us
        self._trace(f"Node {node} turns off")
        self._check_termination()

    def _turn_on(self, node: Optional[NodeId]) -> None:
        if node not in self.offline:
            return
        self._trace(f"Node {node} turns on")
        if self._absence_witnessed(node):
            self._push(self.now_us + HOP_US + _stagger_us(node), "reentry", (node,))
        else:
            # Peers may still list us on-line; wait out a summary that saw
            # our silence so the request is not mistaken for a duplicate.
            self.awaiting_reentry.add(node)

    def _absence_witnessed(self, node: NodeId) -> bool:
        """True once a summary taken after the node fell silent excluded it."""
        return (
            self.last_summary_us > self.nodes[node].turn_off_us
            and node not in self.last_summary_alive
        )

    def _schedule_reentries(self) -> None:
        ready = [v for v in sorted(self.awaiting_reentry) if self._absence_witnessed(v)]
        for node in ready:
            self.awaiting_reentry.discard(node)
            self._push(self.now_us + 2 * HOP_US + _stagger_us(node), "reentry", (node,))

    def _on_reentry(self, node: NodeId) -> None:
        if node not in self.offline:
            return
        state = self.nodes[node]
        verifier_id = self._draw(self.online)
        if verifier_id is None or not self.radio.reaches(node, verifier_id):
            self.awaiting_reentry.add(node)
            return
        verifier = self.nodes[verifier_id]
        self._trace(f"Node {node} reaches {verifier_id} and starts a ZKP for re-insertion")
        request = AccessRequest(
            sender=node, stage=state.stage, sent_at=self.now_s,
            claimed_id=node, claimed_graph=state.graph,
        )
        self.radio.send(request, node, verifier_id)
        prover = _MeteredProver(self, node, verifier_id, state)
        decision = access_control(verifier, request, prover, self.pcfg, self.rng, self.now_s)
        if isinstance(decision, Granted):
            self.radio.send(decision.grant, verifier_id, node)
            apply_catch_up(state, decision.grant, self.pcfg)
            self.offline.remove(node)
            self.online = self.online | {node}
            state.last_proof_us = self.now_us
            self._schedule_pol_check(node)
            self._trace(f"Node {node} re-enters the network")
        elif decision.reason == "duplicate identity":
            # Benign race: some replica's view has not registered our absence
            # yet.  Retry after the next summary that witnesses it.
            self.awaiting_reentry.add(node)
        else:
            self._trace(f"Node {node} is denied access ({decision.reason})")
            if decision.reason == "expired membership":
                self.offline.remove(node)
                # The returning user must be re-inserted as a new member.
                self._push(self.now_us + HOP_US, "start_insertion", (None, None, None))

    # -- scripted deletion ---------------------------------------------------

    def _scripted_delete(self, victim: Optional[NodeId]) -> None:
        online = sorted(self.online)
        if victim is None or not online:
            return
        author = next((v for v in online if v != victim), None)
        if author is None:
            return
        summary = PolSummary(
            sender=author,
            stage=self.nodes[author].stage,
            sent_at=self.now_s,
            window=self.now_us // _us(self.cfg.T),
            alive=frozenset(v for v in online if v != victim),
            deletions=frozenset({victim}),
        )
        self._broadcast(summary)
        self._apply_summary(self.nodes[author], summary, traced=True)


class _MeteredProver(HonestProver):
    """Honest prover whose round messages are metered over the simulated wire.
    A message the channel refuses raises ``ConnectionError``, and
    ``access_control`` reports "protocol aborted"."""

    def __init__(self, engine: _Engine, supplicant: NodeId, verifier: NodeId, state: NodeState):
        super().__init__(state.graph, state.cycle, engine.rng)
        self._engine = engine
        self._supplicant = supplicant
        self._verifier = verifier
        self._stage = state.stage

    def _send(self, kind: type[Message], src: NodeId, dst: NodeId, **body) -> None:
        msg = kind(sender=src, stage=self._stage, sent_at=self._engine.now_s, **body)
        if not self._engine.radio.send(msg, src, dst):
            raise ConnectionError(f"Node {dst} out of range of Node {src}")

    def next_commitment(self):
        com = super().next_commitment()
        self._send(ZkpCommit, self._supplicant, self._verifier, commitment=com)
        return com

    def answer(self, challenge: int):
        self._send(ZkpChallenge, self._verifier, self._supplicant, bit=challenge)
        response = super().answer(challenge)
        self._send(ZkpResponse, self._supplicant, self._verifier, response=response)
        return response


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Simulate one scenario to completion or termination.

    Deterministic: the same configuration and seed produce byte-identical
    trace and metrics serializations.
    """
    return _Engine(cfg).run()
