"""Random-waypoint mobility: where each node of a geometric run stands.

``step_mobility`` advances every node one tick and is the reference.  A
``Walk`` gives the same draws and the same places on the engine's clock, a
move tick every ``MOVE_DT_US``, while it walks each node one leg at a time.
A move tick takes the nodes due from one queue, draws their waypoints in id
order, and runs each new leg's steps once, to its arrival or the run's last
tick: the arrival fixes when the node is due again.  States are built only
on a tick that reads them, in one dict per tick that nothing edits, by
replaying the steps from the last tick read.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from random import Random
from typing import Optional

from .graph import NodeId
from .scenario import GeometricConfig, _us

#: Mobility update step: move tick k comes at ``k * MOVE_DT_US`` us.
MOVE_DT_US = 500_000


def _at(tick: int) -> float:
    """The time of move tick ``tick`` in seconds: the engine's ``now`` there, to the bit."""
    return tick * MOVE_DT_US / 1_000_000


@dataclass(slots=True)
class WaypointState:
    """A node's place and walk, immutable by convention, not ``frozen=True``.

    A frozen constructor costs four times a slotted one, and a tick that reads
    positions builds one per moving node.  Nothing edits a state: each such
    tick builds a new positions dict, a newcomer shares its author's objects,
    and nothing hashes one.
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


def _steps(x: float, y: float, dest_x: float, dest_y: float, step: float, ticks: int
           ) -> tuple[float, float, int]:
    """Take up to ``ticks`` steps by ``step_mobility``'s recurrence from
    ``(x, y)``: the place after the last one taken, and how many were taken
    before the waypoint came within a step (``ticks`` if it did not)."""
    hypot = math.hypot
    for taken in range(ticks):
        dx, dy = dest_x - x, dest_y - y
        dist = hypot(dx, dy)
        if dist <= step:
            return x, y, taken
        x, y = x + step * dx / dist, y + step * dy / dist
    return x, y, ticks


class _Leg:
    """One leg of one node's walk: its steps from tick ``first``, from
    ``(x, y)``, to its arrival at the waypoint, and the rest there after it.

    No place is stored.  When the leg is drawn its steps run once, up to the
    run's last tick ``last``, to fix ``arrives``, the tick of arrival
    (``last + 1`` if it does not arrive in the run), and ``resume``, the end
    of the rest.  A read replays the steps from the last tick read, ``at``,
    where the place was ``(read_x, read_y)`` and the state built was
    ``state``; the nodes that share a leg share that state.
    """

    __slots__ = ("dest_x", "dest_y", "speed", "step", "pause_until", "arrives", "resume",
                 "at", "read_x", "read_y", "state")

    def __init__(self, first: int, last: int, x: float, y: float, dest_x: float, dest_y: float,
                 speed: float, pause_until: float, pause: float):
        self.dest_x, self.dest_y, self.speed, self.step = dest_x, dest_y, speed, speed * _at(1)
        self.pause_until = pause_until
        self.read_x, self.read_y, self.at = x, y, first - 1
        self.arrives = first + _steps(x, y, dest_x, dest_y, self.step, last - first + 1)[2]
        self.resume = _at(self.arrives) + pause
        self.state: Optional[WaypointState] = None

    def state_at(self, tick: int) -> WaypointState:
        if self.at != tick:
            if tick < self.arrives:
                self.read_x, self.read_y, _ = _steps(
                    self.read_x, self.read_y, self.dest_x, self.dest_y, self.step, tick - self.at
                )
                self.state = WaypointState(
                    self.read_x, self.read_y, self.dest_x, self.dest_y, self.speed, self.pause_until
                )
            elif self.at < self.arrives:  # the rest's one state
                self.state = WaypointState(self.dest_x, self.dest_y, None, None, 0.0, self.resume)
            self.at = tick
        return self.state


class Walk:
    """Every node's walk in one run of ``duration`` seconds, a move tick
    every ``MOVE_DT_US``.

    A node holds a ``WaypointState`` until its pause is over, or walks a
    ``_Leg``.  ``move`` gives the same draws, in the same order, and the same
    places as ``step_mobility`` on every tick of the run, provided nothing
    edits a state or the ``positions`` dict in place; assign a new dict
    instead, which restarts every walk from its state.
    """

    def __init__(self, geo: GeometricConfig, duration: float, states: dict[NodeId, WaypointState]):
        # Move ticks so far, and the run's last tick: no leg steps beyond it.
        self.geo, self._tick, self._last = geo, 0, _us(duration) // MOVE_DT_US
        self.positions = states

    @property
    def positions(self) -> dict[NodeId, WaypointState]:
        """Every node's state after the last move tick, in one dict per tick,
        built when first read."""
        if self._built != self._tick:
            tick = self._tick
            self._positions = {
                v: w if type(w) is WaypointState else w.state_at(tick) for v, w in self._walks.items()
            }
            self._built = tick
        return self._positions

    @positions.setter
    def positions(self, states: dict[NodeId, WaypointState]) -> None:
        # One queue, a heap by the time each node is next due: a node holds
        # its state until ``now < pause_until`` fails, and a leg's rest ends
        # at ``resume`` but never before the tick after its arrival.  A leg
        # that does not arrive in the run is not queued.
        self._positions, self._built = states, self._tick
        self._walks: dict[NodeId, WaypointState | _Leg] = dict(states)
        self._due = [(st.pause_until, v) for v, st in states.items()]
        heapq.heapify(self._due)

    def place(self, node: NodeId, beside: NodeId) -> None:
        """Stand ``node`` where ``beside`` stands, sharing its walk and its
        place in the queue.  A newcomer may take a deleted member's id, and
        with it its entry."""
        positions = self.positions
        self._positions = {**positions, node: positions[beside]}
        self._walks[node] = self._walks[beside]
        due = [entry for entry in self._due if entry[1] != node]
        self._due = due + [(when, node) for when, v in due if v == beside]
        heapq.heapify(self._due)

    def move(self, rng: Random) -> None:
        """One ``step_mobility`` tick, walked as legs."""
        self._tick = tick = self._tick + 1
        now, last, walks, due, geo = _at(tick), self._last, self._walks, self._due, self.geo
        ready = []
        while due and not now < due[0][0]:
            ready.append(heapq.heappop(due)[1])
        if ready:
            uniform, random, side, speed_max = rng.uniform, rng.random, geo.area_side, geo.speed_max
            for v in sorted(ready):
                w = walks[v]
                if type(w) is WaypointState:
                    x, y, dest_x, dest_y, speed, pause_until = (
                        w.x, w.y, w.dest_x, w.dest_y, w.speed, w.pause_until
                    )
                else:
                    x, y, dest_x, dest_y, speed, pause_until = (
                        w.dest_x, w.dest_y, None, None, 0.0, w.resume
                    )
                if dest_x is None or dest_y is None:
                    # Pause over: pick the next waypoint and a fresh speed in (0, max].
                    dest_x, dest_y = uniform(0.0, side), uniform(0.0, side)
                    speed = speed_max * (1.0 - random())
                walks[v] = leg = _Leg(tick, last, x, y, dest_x, dest_y, speed, pause_until, geo.pause)
                if leg.arrives <= last:
                    heapq.heappush(due, (max(leg.resume, _at(leg.arrives + 1)), v))
