"""Random-waypoint mobility: where each node of a geometric run stands.

``step_mobility`` advances every node one tick and is the reference.  A
``Walk`` gives the same draws and the same places while it walks each node
one leg at a time: a move tick draws the waypoints of the nodes it finds due,
in id order, and runs each new leg's steps to its arrival in one loop.
States are built only on a tick that reads them, in one dict per tick that
nothing edits, by replaying the steps from the last tick read.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from random import Random
from typing import Optional

from .graph import NodeId
from .scenario import GeometricConfig, _us


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
    """One leg of one node's walk: its steps from the tick it set out, from
    ``(x, y)``, to its arrival at the waypoint, and the rest there after it.

    No place is stored.  A scout steps ahead to find the arrival: ``(x, y)``
    is the place before tick ``end``, the first tick it has not checked, and
    ``arrives`` the tick of arrival once found.  ``resume`` is the end of the
    rest, once the arrival tick has come (``Walk.move`` knows its time).  A
    read replays the steps from the last tick read, ``at``, where the place
    was ``(read_x, read_y)`` and the state built was ``state``; the nodes
    that share a leg share that state.
    """

    __slots__ = ("dest_x", "dest_y", "speed", "step", "pause_until", "x", "y", "end",
                 "arrives", "resume", "at", "read_x", "read_y", "state")

    def __init__(self, first: int, x: float, y: float, dest_x: float, dest_y: float,
                 speed: float, step: float, pause_until: float):
        self.dest_x, self.dest_y, self.speed, self.step = dest_x, dest_y, speed, step
        self.pause_until = pause_until
        self.x = self.read_x = x
        self.y = self.read_y = y
        self.end, self.at = first, first - 1
        self.arrives: Optional[int] = None
        self.resume: Optional[float] = None
        self.state: Optional[WaypointState] = None

    def scout(self, last: int) -> None:
        """Check the steps from ``end`` to tick ``last`` for the arrival."""
        ticks = last - self.end + 1
        self.x, self.y, taken = _steps(self.x, self.y, self.dest_x, self.dest_y, self.step, ticks)
        if taken < ticks:
            self.arrives = self.end + taken
        self.end += taken

    def state_at(self, tick: int) -> WaypointState:
        if self.at != tick:
            if self.arrives is None or tick < self.arrives:
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
    """Every node's walk in one run of ``duration`` seconds.

    A node holds a ``WaypointState`` until its pause is over, or walks a
    ``_Leg``.  ``move`` gives the same draws, in the same order, and the same
    places as ``step_mobility`` on every tick, provided nothing edits a state
    or the ``positions`` dict in place; assign a new dict instead, which
    restarts every walk from its state.
    """

    def __init__(self, geo: GeometricConfig, duration: float, states: dict[NodeId, WaypointState]):
        self.geo, self.duration = geo, duration
        # Move ticks so far, the one step length ``dt`` they take, and the
        # run's last tick at that length: no scout steps beyond it.
        self._tick, self._dt, self._last = 0, 0.0, 0
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
        # A node holds its state until its pause is over (``_holds``, a heap
        # by the end of the pause); a node on a leg waits in ``_visits`` under
        # the tick of its arrival or, past the run's last tick, its next step.
        self._positions, self._built = states, self._tick
        self._walks: dict[NodeId, WaypointState | _Leg] = dict(states)
        self._holds: list[tuple[float, NodeId]] = []
        self._visits: dict[int, list[NodeId]] = {}
        for v, st in states.items():
            self._schedule(v, st)

    def _schedule(self, node: NodeId, walk: WaypointState | _Leg) -> None:
        """Queue ``node`` for the tick that next changes its walk."""
        if type(walk) is WaypointState or walk.resume is not None:
            # A node is due once ``now < pause_until`` fails.
            pause_until = walk.pause_until if type(walk) is WaypointState else walk.resume
            heapq.heappush(self._holds, (pause_until, node))
        else:
            tick = walk.end if walk.arrives is None else walk.arrives
            self._visits.setdefault(tick, []).append(node)

    def _unschedule(self, node: NodeId) -> None:
        walk = self._walks[node]
        if type(walk) is WaypointState or walk.resume is not None:
            self._holds[:] = [entry for entry in self._holds if entry[1] != node]
            heapq.heapify(self._holds)
        else:
            self._visits[walk.end if walk.arrives is None else walk.arrives].remove(node)

    def place(self, node: NodeId, beside: NodeId) -> None:
        """Stand ``node`` where ``beside`` stands, sharing its walk.  A
        newcomer may take a deleted member's id, and with it its entry."""
        positions = self.positions
        self._positions = {**positions, node: positions[beside]}
        if node in self._walks:
            self._unschedule(node)
        self._walks[node] = walk = self._walks[beside]
        self._schedule(node, walk)

    def move(self, rng: Random, dt: float, now: float) -> None:
        """One ``step_mobility`` tick of ``dt`` seconds at ``now``, walked as legs."""
        if dt != self._dt:
            if self._tick:  # legs stepped at the old length restart here
                self.positions = self.positions
            self._dt, self._last = dt, _us(self.duration) // max(_us(dt), 1)
        self._tick = tick = self._tick + 1
        walks, holds, geo = self._walks, self._holds, self.geo
        # Past the run's last tick (a caller may step on), one tick at a time.
        last = max(tick, self._last)
        due = []
        while holds and not now < holds[0][0]:
            due.append(heapq.heappop(holds)[1])
        if due:
            uniform, random, side, speed_max = rng.uniform, rng.random, geo.area_side, geo.speed_max
            for v in sorted(due):
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
                walks[v] = leg = _Leg(tick, x, y, dest_x, dest_y, speed, speed * dt, pause_until)
                leg.scout(last)
                self._schedule(v, leg)
        for v in self._visits.pop(tick, ()):
            leg = walks[v]
            if leg.arrives is None and leg.end <= tick:  # past the run's last tick
                leg.scout(last)
            if leg.arrives == tick:
                leg.resume = now + geo.pause
            self._schedule(v, leg)
