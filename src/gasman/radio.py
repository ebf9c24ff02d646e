"""The radio: what the air reaches between members, and what each copy costs.

Connectivity is modeled abstractly.  ``full_mesh`` reaches everyone in one
hop; ``geometric`` places nodes on a square, moves them with a random
waypoint walk (``gasman.mobility``), and floods broadcasts over the
resulting disk graph.  The walk builds positions only on a tick that reads
them, in one dict per tick that nothing edits.  The flood table is kept
while its inputs, that dict and the engine's on-line set, are the same
objects: both are replaced, never edited.  The first broadcast after either
is replaced computes the components from the positions
(``flood_components``); a broadcast is a lookup of the sender's component
(``broadcast_deliver``), which the engine delivers to all but the sender.
A full mesh is the one-component case.  Traffic is accounted per delivery:
each node forwards a broadcast at most once and every copy a receiver hears
is counted at the length of the message's encoding.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress, repeat
from operator import le, not_
from random import Random
from typing import Optional

from .graph import NodeId, encode_id_set
from .mobility import Walk, WaypointState, step_mobility  # noqa: F401
from .protocol import Message, PolSummary
from .scenario import GeometricConfig, ScenarioConfig

TRAFFIC_CLASSES = (
    "zkp",
    "proof_of_life",
    "insertion",
    "deletion",
    "graph_transfer",
    "cycle_transfer",
)


class Reach(Enum):
    NONE = "none"
    DATA = "data"
    DATA_AND_SECURE = "data_and_secure"


@dataclass
class TrafficMetrics:
    """Delivered copies and their bytes, per traffic class."""
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


# ---------------------------------------------------------------------------
# Reachability and flooding
# ---------------------------------------------------------------------------

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
    members: frozenset[NodeId],
    positions: Optional[dict[NodeId, WaypointState]],
    geo: Optional[GeometricConfig],
) -> Components:
    """Flood every component of ``members`` at once, straight from their positions.

    ``geo`` is ``None`` for a full mesh, whose ``positions`` are not read: one
    component of all members, with ``n * (n - 1)`` deliveries.  Otherwise two
    members are linked exactly when ``reachable`` gives them a channel:
    ``math.dist`` here and ``math.hypot``
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
    """One broadcast looked up in a ``flood_components`` table: the sender's
    component in id order, the sender included, and the number of copies on
    the air."""
    return components[sender]


class Radio:
    """One run's air: the connectivity mode, the members' walk, the last
    flood table and the traffic metrics.  The engine places and moves members
    here, and puts every message on the air through ``send`` or ``flood``."""

    def __init__(self, cfg: ScenarioConfig, members: list[NodeId], rng: Random):
        self.cfg = cfg
        # The connectivity mode, decided once: the geometry, or None for a full mesh.
        self.geo = cfg.connectivity if isinstance(cfg.connectivity, GeometricConfig) else None
        self.metrics = TrafficMetrics()
        # The last flood table (see ``flood``): (positions, on-line set, components).
        self._flood: tuple = (None, None, None)
        positions = {}
        if self.geo is not None:
            side = self.geo.area_side
            for v in members:
                x, y = rng.uniform(0.0, side), rng.uniform(0.0, side)
                positions[v] = WaypointState(x, y)
        self._walk = Walk(self.geo, cfg.duration, positions)

    @property
    def positions(self) -> dict[NodeId, WaypointState]:
        """Every member's state after the last move tick.  Assigning a new
        dict restarts every walk from its state; nothing edits one in place."""
        return self._walk.positions

    @positions.setter
    def positions(self, states: dict[NodeId, WaypointState]) -> None:
        self._walk.positions = states

    def place(self, node: NodeId, beside: NodeId) -> None:
        """Insertion requires physical contact: a newcomer stands next to its
        authenticator, inside secure-channel range, and shares its walk."""
        if self.geo is not None:
            self._walk.place(node, beside)

    def move(self, rng: Random) -> None:
        """Move every member one tick of ``MOVE_DT_US``, the run's next."""
        self._walk.move(rng)

    def reaches(self, a: NodeId, b: NodeId) -> bool:
        return reachable(a, b, self.positions, self.cfg) is not Reach.NONE

    def send(self, msg: Message, src: NodeId, dst: NodeId) -> bool:
        """Meter one copy from ``src`` to ``dst``, or refuse it (``False``)
        when the pair shares no channel the message may travel on."""
        reach = reachable(src, dst, self.positions, self.cfg)
        if reach is Reach.NONE or (msg.secure_channel and reach is not Reach.DATA_AND_SECURE):
            return False
        self.metrics.record(msg.traffic_class, msg.size())
        return True

    def flood(self, msg: Message, online: frozenset[NodeId]) -> tuple[NodeId, ...]:
        """Flood a broadcast from ``msg.sender`` over the ``online`` members,
        meter every copy, and give the sender's component in id order.  The
        flood table is kept while the positions and ``online`` are the same
        objects.  A forger, outside ``online``, floods over it and itself, uncached."""
        cached, members, components = self._flood
        positions = self._walk.positions if self.geo is not None else None  # a full mesh has none
        if msg.sender not in online:
            components = flood_components(online | {msg.sender}, positions, self.geo)
        elif cached is not positions or members is not online:
            components = flood_components(online, positions, self.geo)
            self._flood = (positions, online, components)
        component, deliveries = broadcast_deliver(msg.sender, components)
        # A summary's deletions are metered as deletion traffic.
        deleting = isinstance(msg, PolSummary) and msg.deletions
        deletion_part = len(encode_id_set(msg.deletions)) if deleting else 0
        if deleting:
            self.metrics.record("deletion", deletion_part, deliveries)
        self.metrics.record(msg.traffic_class, msg.size() - deletion_part, deliveries)
        return component
