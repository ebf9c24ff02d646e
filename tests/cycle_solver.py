"""A test-side adversary: find a Hamiltonian cycle of a public graph.

GASMAN rests access control on knowledge of the secret Hamiltonian cycle
of a public graph, and the proof accepts *any* Hamiltonian cycle of that
graph.  The graph travels in the clear (``GraphTransfer``,
``AccessRequest.claimed_graph``).  Deciding Hamiltonicity is NP-complete in
the worst case, but a planted cycle plus random edges at average degree
2m/n = 4 is not a worst case: Pósa's rotation-extension search (L. Pósa,
"Hamiltonian circuits in random graphs", Discrete Math. 1976) finds a cycle
in milliseconds.

The search keeps a path.  It extends the path's end to the unvisited
neighbour with the fewest unvisited neighbours of its own.  When the end has
no unvisited neighbour, it rotates: it picks a random neighbour ``u`` of the
end on the path, at position ``i``, and reverses the path after ``i``, so
the old successor of ``u`` becomes the end.  A path through every vertex
whose end is adjacent to its start closes the cycle.  The search restarts
from a fresh vertex after 20 n^2 moves and gives up after ``budget_s``
seconds, a deadline it checks every n moves.

Standard library only; no part of gasman uses it.
"""

from __future__ import annotations

import struct
import time
from random import Random
from typing import Optional

from gasman.graph import ENCODING_VERSION, Graph, HamiltonianCycle, is_hamiltonian_cycle
from gasman.zkp import HonestProver


def overheard_graph(payload: bytes) -> Graph:
    """The public graph an eavesdropper rebuilds from a ``GraphTransfer``'s
    payload bytes: version byte, vertex count and ids, edge count and the
    64-bit edge keys ``u << 32 | v``."""
    if payload[0] != ENCODING_VERSION:
        raise ValueError("unknown encoding version")
    (n,) = struct.unpack_from(">I", payload, 1)
    vertices = struct.unpack_from(f">{n}I", payload, 5)
    offset = 5 + 4 * n
    (m,) = struct.unpack_from(">I", payload, offset)
    keys = struct.unpack_from(f">{m}Q", payload, offset + 4)
    edges = frozenset((k >> 32, k & 0xFFFFFFFF) for k in keys)
    return Graph(frozenset(vertices), edges)


def find_hamiltonian_cycle(graph: Graph, rng: Random, budget_s: float = 1.0) -> Optional[HamiltonianCycle]:
    """A Hamiltonian cycle of ``graph`` found by rotation-extension, or
    ``None`` if the time budget runs out first."""
    adjacency: dict[int, list[int]] = {v: [] for v in graph.vertices}
    for u, v in graph.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    for ns in adjacency.values():
        ns.sort()
    vertices = sorted(graph.vertices)
    n = len(vertices)
    steps = 20 * n * n
    deadline = time.perf_counter() + budget_s
    while time.perf_counter() < deadline:
        path = [vertices[rng.randrange(n)]]
        position = {path[0]: 0}
        for step in range(steps):
            if step % n == 0 and time.perf_counter() >= deadline:
                return None
            end = path[-1]
            fresh = [w for w in adjacency[end] if w not in position]
            if fresh:
                rng.shuffle(fresh)
                nxt = min(fresh, key=lambda w: sum(x not in position for x in adjacency[w]))
                position[nxt] = len(path)
                path.append(nxt)
                continue
            if len(path) == n and path[0] in adjacency[end]:
                cycle = HamiltonianCycle(tuple(path))
                if is_hamiltonian_cycle(graph, cycle):
                    return cycle
            pivots = [w for w in adjacency[end] if w in position and position[w] < len(path) - 2]
            if not pivots:
                break
            i = position[rng.choice(pivots)]
            path[i + 1:] = reversed(path[i + 1:])
            for j in range(i + 1, len(path)):
                position[path[j]] = j
    return None


class SolvingProver(HonestProver):
    """An outsider that never received the secret: it solves the public
    graph for a cycle of its own, then proves knowledge of it honestly."""

    def __init__(self, graph: Graph, rng: Random, budget_s: float = 1.0):
        cycle = find_hamiltonian_cycle(graph, rng, budget_s)
        if cycle is None:
            raise TimeoutError(f"no Hamiltonian cycle found within {budget_s} s")
        self.cycle = cycle
        super().__init__(graph, cycle, rng)
