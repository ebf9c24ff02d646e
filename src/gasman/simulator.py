"""Deterministic discrete-event simulation of a churning membership network.

The engine schedules node churn, mobility, message delivery, and the
membership flows, producing a human-readable trace (time / event / cycle
snapshot) and per-class traffic metrics.  Identical configurations and seeds
yield byte-identical outputs: time is fixed-point microseconds, every draw
comes from one seeded generator, and all iteration over node sets is sorted.

Connectivity is modeled abstractly.  ``full_mesh`` reaches everyone in one
hop; ``geometric`` places nodes on a square, moves them with a random
waypoint walk, and floods broadcasts over the resulting disk graph.  The
first broadcast after the positions or the on-line set change (a mobility
tick, or an insertion that places a node) computes that graph's components
straight from the members' positions (``flood_components``), so until
either changes again a broadcast is a lookup (``broadcast_deliver``).  A
full mesh is the one-component case of the same table: every on-line member
in one component.  Traffic is accounted per delivery: each node forwards a
broadcast at most once and every copy a receiver hears is counted at the
message's encoded size plus a fixed header.  A broadcast then
reaches its recipients as one delivery event, handled in recipient id order.
A membership step (an insertion's start or close, a proof of life's close, a
re-entry) due while a membership update is still on the air waits until that
update has landed.  Whether a member is on-line, off-line or deleted is the
engine's alone to track; replicas never hold it.
"""

from __future__ import annotations

import heapq
import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from enum import Enum
from itertools import compress, repeat
from operator import le, not_
from random import Random
from types import MappingProxyType
from typing import Optional, Union

from .graph import (
    BelowMinimumOrder,
    Graph,
    HamiltonianCycle,
    NodeId,
    assign_new_id,
    build_initial_graph,
    instance_around_cycle,
)
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
from .zkp import HonestProver

TRAFFIC_CLASSES = (
    "zkp",
    "proof_of_life",
    "insertion",
    "deletion",
    "graph_transfer",
    "cycle_transfer",
)

#: One simulated broadcast/unicast hop, in microseconds.
HOP_US = 1_000
#: Answers to a two-step broadcast arrive within this window.
ANSWER_LATENCY_US = 300_000
#: When the initiator of a two-step broadcast stops collecting answers.
COLLECT_CLOSE_US = ANSWER_LATENCY_US + 3 * HOP_US
#: Mobility update step.
MOVE_DT_US = 500_000
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


class ScenarioError(ValueError):
    """The scenario configuration is invalid; nothing was simulated."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_node_id(value) -> bool:
    # Ids travel in the canonical encodings as unsigned 32-bit integers.
    return _is_int(value) and 0 <= value < 2**32


def _is_number(value, scale: int = 1) -> bool:
    """An int or float, not a bool, that stays a finite float times ``scale``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(float(value) * scale)
    except OverflowError:  # an int beyond the float range
        return False


class Reach(Enum):
    NONE = "none"
    DATA = "data"
    DATA_AND_SECURE = "data_and_secure"


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChurnConfig:
    """Per-second probabilities of one network-wide churn event each."""

    insertion_request: float = 0.0
    node_turn_off: float = 0.0
    node_turn_on: float = 0.0


@dataclass(frozen=True)
class GeometricConfig:
    area_side: float
    speed_max: float
    pause: float
    data_range: float
    secure_range: float


@dataclass(frozen=True)
class ScriptedOp:
    """A deterministic event injected at a fixed time.

    ``insert`` may force an explicit id and neighbor group (needed to replay
    externally recorded traces); ``delete``, ``turn_off`` and ``turn_on``
    name the affected node.
    """

    time: float
    op: str
    node: Optional[NodeId] = None
    neighbors: Optional[tuple[NodeId, ...]] = None
    author: Optional[NodeId] = None


@dataclass(frozen=True)
class ScenarioConfig:
    n_initial: int
    m: int
    T: float
    l: int
    duration: float
    seed: int
    churn: ChurnConfig = ChurnConfig()
    connectivity: Union[str, GeometricConfig] = "full_mesh"
    termination_threshold: int = 3
    admission_deny_prob: float = 0.0
    initial_cycle: Optional[tuple[NodeId, ...]] = None
    script: tuple[ScriptedOp, ...] = ()

    def validate(self) -> None:
        for name in ("n_initial", "m", "l", "seed", "termination_threshold"):
            if not _is_int(getattr(self, name)):
                raise ScenarioError(f"invalid scenario: {name} must be an integer")
        # Times are simulated in whole microseconds.
        for name in ("T", "duration"):
            if not _is_number(getattr(self, name), 1_000_000):
                raise ScenarioError(f"invalid scenario: {name} must be a finite number")
        probabilities = (
            ("insertion_request", self.churn.insertion_request),
            ("node_turn_off", self.churn.node_turn_off),
            ("node_turn_on", self.churn.node_turn_on),
            ("admission_deny_prob", self.admission_deny_prob),
        )
        for name, p in probabilities:
            if not _is_number(p):
                raise ScenarioError(f"invalid scenario: probability {name} must be a number")
        if self.n_initial < 4 or self.m < self.n_initial:
            raise ScenarioError("invalid scenario: need n_initial >= 4 and m >= n_initial")
        if (2 * self.m) % self.n_initial != 0:
            raise ScenarioError("invalid scenario: 2m/n must be an integer")
        if _us(self.T) < 1 or self.duration <= 0 or self.l < 1:
            raise ScenarioError("invalid scenario: T (at least 1 us), duration and l must be positive")
        if self.termination_threshold < 3:
            raise ScenarioError("invalid scenario: termination threshold below 3")
        for name, p in probabilities:
            if not 0.0 <= p <= 1.0:
                raise ScenarioError(f"invalid scenario: probability {name} out of range")
        if isinstance(self.connectivity, GeometricConfig):
            geo = self.connectivity
            lengths = (geo.area_side, geo.speed_max, geo.pause, geo.data_range, geo.secure_range)
            if not all(_is_number(x) for x in lengths):
                raise ScenarioError("invalid scenario: geometric parameters must be finite numbers")
            if min(geo.area_side, geo.speed_max, geo.data_range, geo.secure_range) <= 0:
                raise ScenarioError("invalid scenario: geometric ranges must be positive")
            if geo.pause < 0:
                raise ScenarioError("invalid scenario: pause must be non-negative")
        elif self.connectivity != "full_mesh":
            raise ScenarioError("invalid scenario: unknown connectivity mode")
        if self.initial_cycle is not None:
            ids = tuple(self.initial_cycle)
            if not all(_is_node_id(v) for v in ids):
                raise ScenarioError("invalid scenario: initial_cycle ids must be 32-bit unsigned integers")
            if len(ids) != self.n_initial or len(set(ids)) != len(ids):
                raise ScenarioError("invalid scenario: initial_cycle must list n_initial distinct ids")
        for op in self.script:
            if op.op not in ("insert", "delete", "turn_off", "turn_on"):
                raise ScenarioError(f"invalid scenario: unknown scripted op {op.op!r}")
            if not _is_number(op.time, 1_000_000):
                raise ScenarioError("invalid scenario: scripted op time must be a finite number")
            if op.time < 0:
                raise ScenarioError("invalid scenario: scripted op before time 0")
            named = (op.node, op.author, *(op.neighbors or ()))
            if not all(v is None or _is_node_id(v) for v in named):
                raise ScenarioError("invalid scenario: scripted node ids must be 32-bit unsigned integers")

    def to_json(self) -> str:
        doc = asdict(self)
        if isinstance(self.connectivity, GeometricConfig):
            doc["connectivity"] = {"mode": "geometric", **doc["connectivity"]}
        else:
            doc["connectivity"] = {"mode": "full_mesh"}
        if self.initial_cycle is None:
            del doc["initial_cycle"]
        if self.script:
            # An op names only the fields it sets: no None, no empty neighbors.
            doc["script"] = [
                {k: v for k, v in op.items() if v is not None and (k != "neighbors" or v)}
                for op in doc["script"]
            ]
        else:
            del doc["script"]
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
            raise ScenarioError(f"invalid scenario: not valid JSON ({exc})") from exc
        if not isinstance(doc, dict):
            raise ScenarioError("invalid scenario: top level must be an object")
        churn_doc = doc.get("churn", {})
        conn_doc = doc.get("connectivity", {"mode": "full_mesh"})
        script_doc = doc.get("script", [])
        if not isinstance(churn_doc, dict) or not isinstance(conn_doc, dict):
            raise ScenarioError("invalid scenario: churn and connectivity must be objects")
        if not isinstance(script_doc, list) or not all(isinstance(e, dict) for e in script_doc):
            raise ScenarioError("invalid scenario: script must be a list of objects")
        try:
            churn = ChurnConfig(**churn_doc)
            connectivity = conn_doc.get("mode", "full_mesh")
            if connectivity == "geometric":
                connectivity = GeometricConfig(**_fields_of(GeometricConfig, conn_doc))
            script = tuple(
                ScriptedOp(**{**_fields_of(ScriptedOp, entry), "neighbors": _ids(entry.get("neighbors"))})
                for entry in script_doc
            )
            parsed = dict(churn=churn, connectivity=connectivity, script=script,
                          initial_cycle=_ids(doc.get("initial_cycle")))
            cfg = cls(**{**_fields_of(cls, doc), **parsed})
        except (KeyError, TypeError) as exc:
            raise ScenarioError(f"invalid scenario: {exc}") from exc
        cfg.validate()
        return cfg


def _fields_of(kind, doc: dict) -> dict:
    """The values ``doc`` gives the fields of the dataclass ``kind``: other keys
    are ignored, and a field with no default that ``doc`` lacks raises KeyError."""
    return {f.name: doc[f.name] for f in fields(kind) if f.name in doc or f.default is MISSING}


def _ids(value) -> Optional[tuple]:
    # A missing or empty id list in a scenario file means none.
    return tuple(value) if value else None


# ---------------------------------------------------------------------------
# Outputs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceEvent:
    time: float
    description: str
    hc_snapshot: Optional[tuple[NodeId, ...]] = None

    def to_line(self) -> str:
        hc = ",".join(str(v) for v in self.hc_snapshot) if self.hc_snapshot else ""
        return f"{self.time:.2f}\t{self.description}\t{hc}"


@dataclass
class TrafficMetrics:
    counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(TRAFFIC_CLASSES, 0))
    bytes: dict[str, int] = field(default_factory=lambda: dict.fromkeys(TRAFFIC_CLASSES, 0))

    def record(self, traffic_class: str, size: int, deliveries: int = 1) -> None:
        self.counts[traffic_class] += deliveries
        self.bytes[traffic_class] += size * deliveries

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes.values())

    def shares(self) -> dict[str, float]:
        total = self.total_bytes
        if total == 0:
            return dict.fromkeys(TRAFFIC_CLASSES, 0.0)
        return {cls: self.bytes[cls] / total for cls in TRAFFIC_CLASSES}

    def to_json(self) -> str:
        shares = self.shares()
        doc = {
            "classes": {
                cls: {
                    "count": self.counts[cls],
                    "bytes": self.bytes[cls],
                    "share": shares[cls],
                }
                for cls in TRAFFIC_CLASSES
            },
            "total_bytes": self.total_bytes,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@dataclass
class ScenarioResult:
    trace: list[TraceEvent]
    metrics: TrafficMetrics
    outcome: str  # "completed" | "terminated"
    terminated_at: Optional[float] = None

    def trace_text(self) -> str:
        return "".join(event.to_line() + "\n" for event in self.trace)


# ---------------------------------------------------------------------------
# Mobility and reachability
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class WaypointState:
    """A node's place and walk, immutable by convention, not ``frozen=True``.

    A frozen constructor costs four times a slotted one, once per moving node
    per tick.  Nothing edits a state: the engine replaces its positions dict,
    ``_spawn_member`` hands a newcomer its author's object, and nothing hashes one.
    """

    x: float
    y: float
    dest_x: Optional[float] = None
    dest_y: Optional[float] = None
    speed: float = 0.0
    pause_until: float = 0.0


def step_mobility(
    positions: dict[NodeId, WaypointState], geo: GeometricConfig, rng: Random, dt: float, now: float
) -> dict[NodeId, WaypointState]:
    """Advance every node, in id order, one random-waypoint step of ``dt`` seconds."""
    uniform, random, hypot = rng.uniform, rng.random, math.hypot
    side, speed_max, resume = geo.area_side, geo.speed_max, now + geo.pause
    out = {}
    for node in sorted(positions):
        st = positions[node]
        if now < st.pause_until:
            out[node] = st
            continue
        x, y, dest_x, dest_y, speed = st.x, st.y, st.dest_x, st.dest_y, st.speed
        if dest_x is None or dest_y is None:
            # Pause over: pick the next waypoint and a fresh speed in (0, max].
            dest_x, dest_y = uniform(0.0, side), uniform(0.0, side)
            speed = speed_max * (1.0 - random())
        dx, dy = dest_x - x, dest_y - y
        dist = hypot(dx, dy)
        step = speed * dt
        if dist <= step:
            out[node] = WaypointState(dest_x, dest_y, None, None, 0.0, resume)
            continue
        x, y = x + step * dx / dist, y + step * dy / dist
        out[node] = WaypointState(x, y, dest_x, dest_y, speed, st.pause_until)
    return out


def reachable(
    a: NodeId,
    b: NodeId,
    positions: dict[NodeId, WaypointState],
    cfg: ScenarioConfig,
) -> Reach:
    """Channel classes available between two nodes right now."""
    if not isinstance(cfg.connectivity, GeometricConfig):
        return Reach.DATA_AND_SECURE
    geo = cfg.connectivity
    pa, pb = positions[a], positions[b]
    dist = math.hypot(pa.x - pb.x, pa.y - pb.y)
    if dist <= geo.secure_range:
        return Reach.DATA_AND_SECURE
    if dist <= geo.data_range:
        return Reach.DATA
    return Reach.NONE


#: Each flooding member mapped to its component's sorted members and the
#: number of copies one broadcast within that component puts on the air.
Components = dict[NodeId, tuple[tuple[NodeId, ...], int]]


def flood_components(
    members: frozenset[NodeId], positions: dict[NodeId, WaypointState], geo: Optional[GeometricConfig]
) -> Components:
    """Flood every component of ``members`` at once, straight from their positions.

    ``geo`` is ``None`` for a full mesh: one component of all members, with
    ``n * (n - 1)`` deliveries.  Otherwise two members are linked exactly when
    ``reachable`` gives them a channel: ``math.dist`` here and ``math.hypot``
    there take CPython's ``vector_norm`` of the same ``fabs(px - qx)`` and
    ``fabs(py - qy)``, and a distance within the data or the secure range is
    one within the larger.  Each reached member forwards a broadcast once and
    every linked member hears each copy, so a broadcast from any member reaches
    exactly its component and puts twice the component's links on the air.
    """
    if geo is None:
        n = len(members)
        return dict.fromkeys(members, (tuple(sorted(members)), n * (n - 1)))
    reach, dist = max(geo.data_range, geo.secure_range), math.dist
    placed = sorted((positions[v].x, positions[v].y, v) for v in members)
    points, xs = [(x, y) for x, y, _ in placed], [x for x, _, _ in placed]
    # Only pairs within ``span`` in x are tried.  ``math.dist`` is at least
    # the computed x gap less an ulp, and that gap is within half an ulp of
    # the exact one, so a linked pair's exact x gap is below reach times
    # 1 + 2**-50; as rounding is monotone, the slack keeps every linked pair
    # in the window, and ``math.dist`` decides the few extra.
    span = reach * (1.0 + 1e-9)
    links = []  # each member's links to the members after it in x order
    for i, p in enumerate(points):
        window = points[i + 1:bisect_right(xs, p[0] + span, i + 1)]
        links.append(sum(map(le, map(dist, repeat(p), window), repeat(reach))))
    out: Components = {}
    rest, x_of = list(range(len(points))), xs.__getitem__  # the unvisited, in x order
    while rest:
        # Grow a component from the last unvisited member: each member taken
        # from the frontier costs one distance row over its x-window of ``rest``.
        start = rest.pop()
        component, frontier = [start], [start]
        while frontier and rest:
            p = points[frontier.pop()]
            lo = bisect_left(rest, p[0] - span, key=x_of)
            hi = bisect_right(rest, p[0] + span, lo, key=x_of)
            window = rest[lo:hi]
            near = list(map(le, map(dist, repeat(p), map(points.__getitem__, window)), repeat(reach)))
            if True in near:
                reached = list(compress(window, near))
                component += reached
                frontier += reached
                rest[lo:hi] = compress(window, map(not_, near))
        entry = (tuple(sorted(placed[i][2] for i in component)), 2 * sum(links[i] for i in component))
        out.update(dict.fromkeys(entry[0], entry))
    return out


def broadcast_deliver(sender: NodeId, components: Components) -> tuple[tuple[NodeId, ...], int]:
    """One broadcast looked up in a ``flood_components`` table: the recipients
    in id order (the sender's component without the sender) and the number
    of copies on the air."""
    component, deliveries = components[sender]
    i = component.index(sender)
    return component[:i] + component[i + 1:], deliveries


# ---------------------------------------------------------------------------
# The event engine
# ---------------------------------------------------------------------------

def _sec(us: int) -> float:
    return us / 1_000_000


def _us(seconds: float) -> int:
    return round(seconds * 1_000_000)


def _stagger_us(node: NodeId) -> int:
    # Fixed per-id offset so proof-of-life checks never collide exactly.
    return ((node * 9973) % 97 + 1) * 1_000


# What an initiator or an authenticator holds while it collects replies.
@dataclass
class _PolWindow:
    window: int
    sent_at_us: int
    answers: dict[NodeId, PolAnswer] = field(default_factory=dict)


@dataclass
class _Insertion:
    author: NodeId
    proposed: NodeId
    forced_id: Optional[NodeId]
    forced_neighbors: Optional[frozenset[NodeId]]
    acks: set[NodeId] = field(default_factory=set)


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
        self.metrics = TrafficMetrics()
        self.terminated_at: Optional[float] = None

        graph, cycle = self._dealer_setup()
        # Every member starts from one dealt replica value.
        dealt = Replica.initial(graph, cycle)
        self.nodes: dict[NodeId, NodeState] = {v: NodeState(v, dealt) for v in sorted(graph.vertices)}
        # The engine alone knows where each member is in its life cycle: a
        # node in neither set is deleted.  Replicas never see these sets.
        self.online: set[NodeId] = set(self.nodes)
        self.offline: set[NodeId] = set()
        self.last_proof_us: dict[NodeId, int] = {v: 0 for v in self.nodes}
        self.handled_window: dict[NodeId, int] = {}
        self.answered_window: dict[NodeId, int] = {}
        self.summary_window: dict[NodeId, int] = {}
        self.awaiting_reentry: set[NodeId] = set()
        self.turn_off_us: dict[NodeId, int] = {}
        self.last_summary_us: int = -1
        self.last_summary_alive: frozenset[NodeId] = frozenset()
        self.pending_pol: dict[NodeId, _PolWindow] = {}
        self.pending_insert: Optional[_Insertion] = None
        # When the last membership update on the air lands (see ``_act``).
        self._update_lands_us = 0
        # The connectivity mode, decided once: the geometry, or None for a full mesh.
        self._geo = cfg.connectivity if isinstance(cfg.connectivity, GeometricConfig) else None
        # Positions are replaced, never edited, so a new dict means new
        # components.  The last flood table (see ``_broadcast``):
        # (positions, flooding members, components).
        self.positions: dict[NodeId, WaypointState] = {}
        self._flood: tuple = (None, None, None)
        if self._geo is not None:
            side = self._geo.area_side
            for v in sorted(self.nodes):
                x, y = self.rng.uniform(0.0, side), self.rng.uniform(0.0, side)
                self.positions[v] = WaypointState(x, y)
        duration_us = _us(cfg.duration)
        self._moves = duration_us // MOVE_DT_US if self.positions else 0
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

    # -- traffic accounting ------------------------------------------------

    def _meter_unicast(self, msg: Message, src: NodeId, dst: NodeId) -> bool:
        reach = reachable(src, dst, self.positions, self.cfg)
        if reach is Reach.NONE or (msg.secure_channel and reach is not Reach.DATA_AND_SECURE):
            return False
        self.metrics.record(msg.traffic_class, msg.size())
        return True

    def _broadcast(self, msg: Message, sender: NodeId) -> None:
        """Flood a broadcast from ``sender`` over the on-line nodes, meter every
        delivered copy, and schedule its delivery.  The components are flooded
        again only when the positions dict is replaced or the flooding members
        change; else a broadcast is a lookup."""
        positions, members, components = self._flood
        flooding = frozenset(self.online | {sender})
        if positions is not self.positions or flooding != members:
            components = flood_components(flooding, self.positions, self._geo)
            self._flood = (self.positions, flooding, components)
        recipients, deliveries = broadcast_deliver(sender, components)
        if not recipients:  # a lone sender puts no copy on the air
            return
        # A summary's deletions are metered as deletion traffic, and they make
        # it a membership update, as every insertion broadcast is.
        deleting = isinstance(msg, PolSummary) and msg.deletions
        deletion_part = len(msg.deletion_payload_bytes()) if deleting else 0
        if deleting:
            self.metrics.record("deletion", deletion_part, deliveries)
        self.metrics.record(msg.traffic_class, msg.size() - deletion_part, deliveries)
        self._push(self.now_us + HOP_US, "deliver", (msg, recipients))
        if deleting or isinstance(msg, NeighborSetBroadcast):
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
        t = self.last_proof_us[node] + _us(self.cfg.T) + _stagger_us(node)
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
        return ScenarioResult(self.trace, self.metrics, outcome, self.terminated_at)

    # -- event handlers ----------------------------------------------------

    def _on_move(self, tick: int) -> None:
        self._queue_tick("move", tick + 1)
        self.positions = step_mobility(self.positions, self._geo, self.rng, _sec(MOVE_DT_US), self.now_s)

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
        """Hand one message to each recipient in id order, all at one instant.

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
            # scan those; recipients ascend, so the order is theirs.
            recipients = [r for r in sorted(self.pending_pol) if r in recipients]
        for recipient in recipients:
            if self.terminated_at is not None:
                return
            if recipient in self.online:
                handle(self.nodes[recipient], msg)

    # -- proofs of life ----------------------------------------------------

    def _on_pol_check(self, node: NodeId) -> None:
        if node not in self.online:
            return
        state = self.nodes[node]
        T_us = _us(self.cfg.T)
        if self.now_us - self.last_proof_us[node] <= T_us:
            self._schedule_pol_check(node)
            return
        window = self.now_us // T_us
        if self.handled_window.get(node, -1) >= window:
            # Someone else is running this window; check again next window.
            self._push((window + 1) * T_us + _stagger_us(node), "pol_check", (node,))
            return
        self.handled_window[node] = window
        self._trace(f"Proof of life started by Node {node}")
        self.pending_pol[node] = _PolWindow(window, self.now_us)
        msg = PolInitiate(
            sender=node, stage=state.stage, sent_at=self.now_s, window=window
        )
        self._broadcast(msg, node)
        self._push(self.now_us + COLLECT_CLOSE_US, "pol_close", (node, window))

    def _handle_pol_initiate(self, state: NodeState, msg: PolInitiate) -> None:
        self.handled_window[state.id] = max(
            self.handled_window.get(state.id, -1), msg.window
        )
        pending = self.pending_pol.get(state.id)
        if pending is not None and pending.window == msg.window:
            # Two initiators raced within a hop: the earlier broadcast wins
            # (ties break on id), the other concedes and answers like anyone.
            if (msg.sent_at, msg.sender) < (_sec(pending.sent_at_us), state.id):
                self.pending_pol.pop(state.id)
            else:
                return
        if self.answered_window.get(state.id, -1) >= msg.window:
            return
        self.answered_window[state.id] = msg.window
        latency = self.rng.randrange(ANSWER_LATENCY_US)
        self._push(self.now_us + latency, "pol_answer_send", (state.id, msg.window))

    def _on_pol_answer_send(self, node: NodeId, window: int) -> None:
        if node not in self.online:
            return
        state = self.nodes[node]
        self.last_proof_us[node] = self.now_us
        answer = PolAnswer(
            sender=node, stage=state.stage, sent_at=self.now_s,
            claimed_id=node, window=window,
        )
        self._broadcast(answer, node)

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
        self.last_proof_us[node] = self.now_us
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
        self._broadcast(summary, node)
        self.last_summary_us = self.now_us
        self.last_summary_alive = frozenset(summary.alive)
        self._apply_summary(state, summary, traced=True)
        self._schedule_pol_check(node)
        self._schedule_reentries()

    def _handle_pol_summary(self, state: NodeState, msg: PolSummary) -> None:
        # A summary of window w leaves after w*T plus the answer collection, so
        # a replica hears windows in order and a repeat is of its highest one.  A
        # scripted deletion, labelled when the script fires, can land before the
        # late close of the window below, and that summary is no repeat.
        if msg.window == self.summary_window.get(state.id):
            return
        self._apply_summary(state, msg, traced=False)

    def _apply_summary(self, state: NodeState, summary: PolSummary, traced: bool) -> None:
        before = state.cycle
        if state.id in summary.deletions:  # a replica told it is silent is gone
            self.online.discard(state.id)
        try:
            removed = apply_deletion_update(state, summary, self.pcfg, self.now_s)
        except BelowMinimumOrder:
            self.terminated_at = self.now_s
            self._trace("Network terminated: graph below minimum order")
            return
        self.summary_window[state.id] = max(self.summary_window.get(state.id, -1), summary.window)
        snapshot = before
        for victim in removed:
            self.online.discard(victim)
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
        self._broadcast(announce, auth_id)
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
        if self._meter_unicast(ack, node, author):
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
        self._broadcast(outcome.broadcast, author_id)
        self._spawn_member(auth, outcome, new_id)

    def _handle_neighbor_set(self, state: NodeState, msg: NeighborSetBroadcast) -> None:
        try:
            apply_insertion_update(state, msg, self.pcfg, self.now_s)
        except (DuplicateIdError, ValueError):
            return  # rejected; flag already set where applicable

    def _spawn_member(self, auth: NodeState, outcome: InsertCommitted, new_id: NodeId) -> None:
        if self._geo is not None:
            # Insertion requires physical contact: the newcomer stands next
            # to its authenticator, inside secure-channel range.
            self.positions = {**self.positions, new_id: self.positions[auth.id]}
        if not self._meter_unicast(outcome.graph_transfer, auth.id, new_id):
            self._trace(f"Node {new_id} unreachable; graph transfer dropped")
            return
        if not self._meter_unicast(outcome.cycle_transfer, auth.id, new_id):
            self._trace(f"Node {new_id} out of secure range; cycle transfer dropped")
            return
        member = NodeState.initial(
            new_id, outcome.graph_transfer.graph, outcome.cycle_transfer.cycle, self.now_s
        )
        member.replica = replace(
            member.replica,
            stage=auth.stage,
            stage_history=MappingProxyType({auth.stage: auth.stage_history[auth.stage]}),
            online_view=auth.online_view,
        )
        # A reused id replaces whatever node held it, windows too.  Old windows
        # all precede the newcomer's first check, a full T away; only a second
        # proof of life or summary of one (a partition can run it) read them.
        self.nodes[new_id] = member
        for windows in (self.handled_window, self.answered_window, self.summary_window):
            windows.pop(new_id, None)
        self.online.add(new_id)
        self.offline.discard(new_id)
        self.last_proof_us[new_id] = self.now_us
        self._schedule_pol_check(new_id)

    # -- churn -------------------------------------------------------------

    def _draw(self, nodes: set[NodeId]) -> Optional[NodeId]:
        """A uniform pick from ``nodes`` in id order, or ``None`` from none."""
        pool = sorted(nodes)
        return pool[self.rng.randrange(len(pool))] if pool else None

    def _turn_off(self, node: Optional[NodeId]) -> None:
        if node not in self.online:
            return
        self.online.remove(node)
        self.offline.add(node)
        self.turn_off_us[node] = self.now_us
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
            self.last_summary_us > self.turn_off_us.get(node, 0)
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
        if verifier_id is None or reachable(node, verifier_id, self.positions, self.cfg) is Reach.NONE:
            self.awaiting_reentry.add(node)
            return
        verifier = self.nodes[verifier_id]
        self._trace(f"Node {node} reaches {verifier_id} and starts a ZKP for re-insertion")
        request = AccessRequest(
            sender=node, stage=state.stage, sent_at=self.now_s,
            claimed_id=node, claimed_graph=state.graph,
        )
        self._meter_unicast(request, node, verifier_id)
        prover = _MeteredProver(self, node, verifier_id, state)
        decision = access_control(verifier, request, prover, self.pcfg, self.rng, self.now_s)
        if isinstance(decision, Granted):
            self._meter_unicast(decision.grant, verifier_id, node)
            apply_catch_up(state, decision.grant, self.pcfg)
            self.offline.remove(node)
            self.online.add(node)
            self.last_proof_us[node] = self.now_us
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
        self._broadcast(summary, author)
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
        if not self._engine._meter_unicast(msg, src, dst):
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
