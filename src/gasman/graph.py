"""Shared-graph key material: the public graph and its secret Hamiltonian cycle.

The group's public key material is an undirected graph; the group secret is a
Hamiltonian cycle in it.  Membership changes are local splice edits on both,
so every operation in this module is a pure function from old values to new
values.  All randomness enters through an explicit ``random.Random`` so that
callers stay reproducible.

Instance values are built once and shared.  Only the public ``Graph(...)``
and ``Permutation(...)`` constructors validate; the dealer
``instance_around_cycle``, the splices and ``permute_graph`` build through
the trusted ``Graph._trusted``, and ``Permutation.random`` and
``Permutation.identity`` through ``Permutation._trusted``.  A graph keeps
what it derives in cached properties, as a cycle keeps its positions and
hash: its encoding, digest and relabel table, and the results of the splices
made from it, so all replicas of one parent graph share one graph and cycle.
Results are shared by parent object, not by value, and a graph keeps alive
every later graph spliced from it.

A graph encodes its edges as 64-bit keys ``u << 32 | v``: once the vertex
list has packed as 32-bit ids, every key packs to the same bytes and sorts in
the same order as the endpoint pair would.

Relabeling works by position.  A graph that is relabeled keeps a relabel
table: each vertex's position in the sorted vertex list, the encoded vertex
header and an ``itemgetter`` over the positions of every edge endpoint.  The
``image`` of a permutation of the vertex set is indexed by the same
positions, so one call of the getter relabels every endpoint, and
``relabel_encoding`` packs them into the relabeled graph's encoding without
building that graph.  ``permute_graph`` decodes its edges from those bytes,
and ``cycle_getter`` relabels a cycle through the same positions.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from random import Random
from typing import AbstractSet, Callable, Iterable, NamedTuple, Sequence

NodeId = int

#: Version byte prefixed to every canonical encoding.
ENCODING_VERSION = 0x01

#: Random-draw budget for the unambiguous-neighbor-set construction.
NEIGHBOR_SET_RETRY_BUDGET = 1000


class GraphError(ValueError):
    """Base class for graph/cycle consistency failures."""


class InvalidParameters(GraphError):
    """Initialization parameters violate the generator's preconditions."""


class PermutationDomainMismatch(GraphError):
    """A permutation was applied to a graph over a different vertex set."""


class AmbiguousBroadcast(GraphError):
    """A neighbor-set broadcast does not pin down a unique splice position."""


class UnsatisfiableNeighborSet(GraphError):
    """No neighbor set with a unique cycle-adjacent pair exists."""


class InvalidSplice(GraphError):
    """Splice preconditions violated (id collision, foreign neighbors, ...)."""


class UnknownNode(GraphError):
    """The named node is not a vertex of the graph."""


class BelowMinimumOrder(GraphError):
    """The graph is too small for the operation to leave a valid cycle."""


def _norm_edge(u: NodeId, v: NodeId) -> tuple[NodeId, NodeId]:
    return (u, v) if u < v else (v, u)


def _shuffle(items: list, rng: Random) -> None:
    """In-place Fisher-Yates that reads only ``rng.getrandbits``.

    Each index is drawn by ``Random.randrange``'s rejection rule, so a
    ``Random`` gives the draws and state of ``randrange(i + 1)`` without its two
    Python frames per draw; a test source scripts them through ``getrandbits``.
    """
    getrandbits = rng.getrandbits
    for i in range(len(items) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        items[i], items[j] = items[j], items[i]


class _RelabelTable(NamedTuple):
    """Per-graph positions for relabeling through ``Permutation.image``."""

    position: dict  # vertex -> its index among the sorted vertices
    head: bytes  # the encoded vertex header
    ends: Callable[[tuple], tuple]  # image -> relabeled endpoints, flat, in ``edges`` order


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph over integer node ids.

    Edges are stored with the smaller endpoint first, so membership tests are
    order-insensitive and two equal graphs always compare and hash equal.
    """

    vertices: frozenset[NodeId]
    edges: frozenset[tuple[NodeId, NodeId]]

    def __post_init__(self) -> None:
        vertices = frozenset(self.vertices)
        normalized = set()
        for edge in self.edges:
            u, v = edge
            if u == v:
                raise GraphError(f"self-loop on vertex {u}")
            if u not in vertices or v not in vertices:
                raise GraphError(f"edge {edge!r} has an endpoint outside the vertex set")
            normalized.add(_norm_edge(u, v))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", frozenset(normalized))

    @classmethod
    def _trusted(cls, vertices: frozenset, edges: frozenset) -> "Graph":
        """Build, unchecked, from normalized loop-free edges within ``vertices``."""
        g = object.__new__(cls)
        object.__setattr__(g, "vertices", vertices)
        object.__setattr__(g, "edges", edges)
        return g

    @classmethod
    def _decoded(cls, vertices: frozenset, encoding: bytes) -> "Graph":
        """Build, unchecked, from the ``encode_graph`` bytes of a graph over ``vertices``."""
        keys = encoding[9 + 4 * len(vertices):]  # past the version, both counts and the vertices
        # A key ``u << 32 | v`` packs as the pair ``(u, v)``, smaller endpoint first.
        g = cls._trusted(vertices, frozenset(struct.iter_unpack(">II", keys)))
        vars(g)["_encoding"] = encoding
        return g

    @cached_property
    def _encoding(self) -> bytes:
        # Packing the vertices first rejects any id outside 0..2**32-1.  Every
        # edge endpoint is a vertex, so each key ``u << 32 | v`` then packs as
        # ``>Q`` to the bytes of ``>II`` over ``(u, v)`` and sorts as that
        # tuple does.  An endpoint only equal to a vertex (``1.0``) cannot shift,
        # and ids of mixed types cannot sort.
        try:
            head = bytes([ENCODING_VERSION]) + encode_id_set(self.vertices)
            keys = [u << 32 | v for u, v in self.edges]
        except TypeError as exc:
            raise GraphError(f"node id out of encodable range: {exc}") from exc
        return _graph_encoding(head, keys)

    @cached_property
    def _digest(self) -> bytes:
        return hashlib.sha256(encode_graph(self)).digest()

    @cached_property
    def _relabel(self) -> _RelabelTable:
        # Encoding first rejects every id that cannot be packed or sorted.
        head = encode_graph(self)[: 5 + 4 * len(self.vertices)]
        position = {v: i for i, v in enumerate(sorted(self.vertices))}
        flat = [position[x] for edge in self.edges for x in edge]
        # ``itemgetter()`` takes at least one item; an edgeless graph slices none.
        ends = itemgetter(*flat) if flat else itemgetter(slice(0))
        return _RelabelTable(position, head, ends)

    @cached_property
    def _splices(self) -> dict:
        """The splice results made from this graph, by the splice's other arguments."""
        return {}

    @property
    def order(self) -> int:
        return len(self.vertices)

    @property
    def size(self) -> int:
        return len(self.edges)

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return _norm_edge(u, v) in self.edges if u != v else False

    def degree(self, v: NodeId) -> int:
        return sum(1 for edge in self.edges if v in edge)


@dataclass(frozen=True)
class HamiltonianCycle:
    """A cyclic vertex ordering, held in canonical form.

    Canonical form rotates the sequence so the smallest id comes first and
    orients it so the second element is the smaller of the first element's two
    cycle neighbors.  Any rotation or reflection of the same cycle therefore
    constructs an identical value, which keeps hashing byte-exact.  The
    vertex positions and the hash are computed when first needed.
    """

    order: tuple[NodeId, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", _canonical_rotation(tuple(self.order)))

    @cached_property
    def _pos(self) -> dict:
        return {v: i for i, v in enumerate(self.order)}

    @cached_property
    def _hash(self) -> int:
        return hash((self.order,))  # the hash the dataclass would generate

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.order)

    @property
    def vertices(self) -> frozenset[NodeId]:
        return frozenset(self.order)

    def successor(self, v: NodeId) -> NodeId:
        i = self._pos[v]
        return self.order[(i + 1) % len(self.order)]

    def neighbors_of(self, v: NodeId) -> tuple[NodeId, NodeId]:
        """The two cycle neighbors of ``v`` (predecessor, successor)."""
        i = self._pos[v]
        n = len(self.order)
        return self.order[(i - 1) % n], self.order[(i + 1) % n]

    def adjacent(self, u: NodeId, v: NodeId) -> bool:
        """True iff ``u`` and ``v`` are consecutive somewhere on the cycle."""
        i = self._pos.get(u)
        j = self._pos.get(v)
        if i is None or j is None or u == v:
            return False
        n = len(self.order)
        return (i - j) % n == 1 or (j - i) % n == 1


def _canonical_rotation(seq: tuple[NodeId, ...]) -> tuple[NodeId, ...]:
    if len(seq) <= 1:
        return seq
    start = seq.index(min(seq))
    rotated = seq[start:] + seq[:start]
    if len(rotated) >= 3 and rotated[-1] < rotated[1]:
        rotated = (rotated[0],) + tuple(reversed(rotated[1:]))
    return rotated


@dataclass(frozen=True)
class Permutation:
    """A bijection of a vertex set onto itself.

    Stored as the image sequence of the sorted domain; ``image[i]`` is the
    image of ``domain[i]``.
    """

    domain: tuple[NodeId, ...]
    image: tuple[NodeId, ...]

    def __post_init__(self) -> None:
        pairs = sorted(zip(self.domain, self.image))
        domain = tuple(p[0] for p in pairs)
        image = tuple(p[1] for p in pairs)
        if len(set(domain)) != len(domain):
            raise GraphError("permutation domain contains duplicates")
        if sorted(image) != list(domain):
            raise GraphError("permutation is not a bijection of its domain")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "image", image)

    @classmethod
    def _trusted(cls, domain: tuple, image: tuple) -> "Permutation":
        """Build, unchecked, from a sorted duplicate-free ``domain`` and a rearrangement of it."""
        p = object.__new__(cls)
        object.__setattr__(p, "domain", domain)
        object.__setattr__(p, "image", image)
        return p

    @classmethod
    def identity(cls, vertices: AbstractSet[NodeId]) -> "Permutation":
        domain = tuple(sorted(vertices))
        return cls._trusted(domain, domain)

    @classmethod
    def random(cls, vertices: AbstractSet[NodeId], rng: Random) -> "Permutation":
        """A uniform relabeling of a vertex set, shuffled by :func:`_shuffle`."""
        domain = sorted(vertices)
        image = list(domain)
        _shuffle(image, rng)
        return cls._trusted(tuple(domain), tuple(image))

    def inverse(self) -> "Permutation":
        return Permutation(self.image, self.domain)


# ---------------------------------------------------------------------------
# Canonical byte encodings (version-prefixed; consumed by the proof hashing)
# ---------------------------------------------------------------------------

def _pack_ids(ids: Sequence[NodeId]) -> bytes:
    try:
        return struct.pack(f">I{len(ids)}I", len(ids), *ids)
    except struct.error as exc:
        raise GraphError(f"node id out of encodable range: {exc}") from exc


def encode_id_set(ids: Iterable[NodeId]) -> bytes:
    """The count, then the ids in ascending order."""
    return _pack_ids(sorted(ids))


def _graph_encoding(head: bytes, keys: list[int]) -> bytes:
    """The vertex header, then the edge count and the sorted 64-bit edge keys."""
    keys.sort()
    return head + struct.pack(f">I{len(keys)}Q", len(keys), *keys)


def encode_graph(g: Graph) -> bytes:
    """Sorted vertex list, then sorted edge list, smaller endpoint first; kept on ``g``."""
    return g._encoding


def graph_digest(g: Graph) -> bytes:
    """SHA-256 of ``encode_graph(g)``; kept on ``g``."""
    return g._digest


def encode_cycle(hc: HamiltonianCycle) -> bytes:
    """The canonical-form vertex sequence."""
    return bytes([ENCODING_VERSION]) + _pack_ids(hc.order)


def encode_permutation(p: Permutation) -> bytes:
    """The image sequence of the sorted domain."""
    return bytes([ENCODING_VERSION]) + _pack_ids(p.image)


# ---------------------------------------------------------------------------
# Verification and relabeling
# ---------------------------------------------------------------------------

def is_hamiltonian_cycle(g: Graph, hc: HamiltonianCycle) -> bool:
    """True iff ``hc`` visits every vertex of ``g`` exactly once along edges of ``g``.

    Malformed inputs (wrong vertex set, duplicates, too short) return False
    rather than raising; hostile data is expected here.
    """
    order = hc.order
    n = len(order)
    if n < 3 or n != len(g.vertices):
        return False
    members = set(order)
    if len(members) != n or members != g.vertices:
        return False
    edges = g.edges
    u = order[-1]  # the closing edge comes first
    for v in order:
        if (u, v) not in edges if u < v else (v, u) not in edges:
            return False
        u = v
    return True


def relabel_encoding(g: Graph, p: Permutation) -> bytes:
    """``encode_graph(permute_graph(g, p))``, without building the relabeled graph.

    It starts with ``g``'s vertex header, since a bijection keeps the vertex set.
    Raises ``PermutationDomainMismatch`` for ``p`` over another vertex set, and
    ``GraphError`` when an id of ``g`` or ``p`` has no encoding.
    """
    if frozenset(p.domain) != g.vertices:
        raise PermutationDomainMismatch("permutation domain mismatch")
    table = g._relabel
    # The domain is sorted, so ``p.image[i]`` relabels the vertex at position ``i``.
    ends = iter(table.ends(p.image))
    try:
        keys = [u << 32 | v if u < v else v << 32 | u for u, v in zip(ends, ends)]
    except TypeError as exc:
        raise GraphError(f"node id out of encodable range: {exc}") from exc
    return _graph_encoding(table.head, keys)


def permute_graph(g: Graph, p: Permutation) -> Graph:
    """Relabel ``g`` through ``p``: the graph decoded from :func:`relabel_encoding`'s bytes."""
    # A bijection of the vertex set cannot make a self-loop.
    return Graph._decoded(g.vertices, relabel_encoding(g, p))


def cycle_getter(g: Graph, hc: HamiltonianCycle) -> Callable[[tuple], tuple]:
    """A getter from the ``image`` of a permutation of ``g`` to ``hc``'s relabeled order.

    Raises ``PermutationDomainMismatch`` when ``hc`` has a vertex outside ``g``.
    """
    position = g._relabel.position
    try:
        at = [position[v] for v in hc.order]
    except KeyError as exc:
        raise PermutationDomainMismatch("permutation domain mismatch") from exc
    # ``itemgetter`` returns one item bare and cannot be built over none.
    return itemgetter(*at) if len(at) > 1 else lambda image: tuple(image[i] for i in at)


def apply_permutation(
    g: Graph, hc: HamiltonianCycle, p: Permutation
) -> tuple[Graph, HamiltonianCycle]:
    """Build the isomorphic graph and the relabeled cycle, both canonical."""
    return permute_graph(g, p), HamiltonianCycle(cycle_getter(g, hc)(p.image))


# ---------------------------------------------------------------------------
# Generation and splice rules
# ---------------------------------------------------------------------------

def build_initial_graph(n: int, m: int, rng: Random) -> tuple[Graph, HamiltonianCycle]:
    """Generate the initial shared instance: a secret cycle hidden in a graph.

    The cycle is a uniformly random ordering of ``{0..n-1}``.  Each vertex
    then tops its neighbor group up to ``2m/n`` members (its two cycle
    neighbors plus random partners), with groups kept mutual and capped so the
    union never exceeds ``m`` edges.  Exact ``2m/n``-regularity is not always
    reachable; the guarantees are: the cycle is contained, minimum degree is
    at least 2, and ``n <= |E| <= m``.

    What this protects: the access proof accepts *any* Hamiltonian cycle of
    the graph, and the graph travels in the clear (``GraphTransfer``,
    ``AccessRequest``).  Hamiltonicity is hard only in the worst case; a
    planted cycle plus random edges at average degree ``2m/n`` is not one.
    Pósa rotation-extension search (``tests/cycle_solver.py``) finds an
    accepted cycle in 1-2 ms at n = 128 and in 40-90 ms at n = 1000.  So the
    scheme keeps out an outsider that never heard the graph, not one that
    overheard it.
    """
    if n < 4 or m < n or (2 * m) % n != 0 or (2 * m) // n < 2:
        raise InvalidParameters("invalid initialization parameters")
    group_size = (2 * m) // n

    order = list(range(n))
    _shuffle(order, rng)
    return instance_around_cycle(tuple(order), group_size, rng)


def instance_around_cycle(
    order: tuple[NodeId, ...], group_size: int, rng: Random
) -> tuple[Graph, HamiltonianCycle]:
    """Deal the shared instance whose secret cycle runs through ``order``.

    Every vertex tops its neighbor group up to ``group_size`` around the
    cycle.  Groups stay mutual and degree-capped, so the union holds at most
    ``group_size * n / 2`` edges and always contains the cycle.  ``order``
    must list at least three distinct 32-bit ids; the edges are normalized
    and loop-free by construction, so the graph is built unchecked.
    """
    n = len(order)
    edges: set[tuple[NodeId, NodeId]] = set()
    degree = dict.fromkeys(order, 0)
    for i in range(n):
        e = _norm_edge(order[i], order[(i + 1) % n])
        edges.add(e)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1

    vertices = sorted(order)
    for i in vertices:
        while degree[i] < group_size:
            partner = _draw_partner(i, degree, group_size, edges, vertices, rng)
            if partner is None:
                break
            edges.add(_norm_edge(i, partner))
            degree[i] += 1
            degree[partner] += 1
    return Graph._trusted(frozenset(order), frozenset(edges)), HamiltonianCycle(order)


def _draw_partner(
    i: NodeId,
    degree: dict[NodeId, int],
    cap: int,
    edges: set[tuple[NodeId, NodeId]],
    vertices: list[NodeId],
    rng: Random,
) -> NodeId | None:
    # A handful of rejection draws is almost always enough on sparse graphs;
    # fall back to an exhaustive scan before giving up on this vertex.
    n = len(vertices)
    for _ in range(32):
        j = vertices[rng.randrange(n)]
        if j != i and degree[j] < cap and _norm_edge(i, j) not in edges:
            return j
    eligible = [
        j for j in vertices
        if j != i and degree[j] < cap and _norm_edge(i, j) not in edges
    ]
    if not eligible:
        return None
    return eligible[rng.randrange(len(eligible))]


def assign_new_id(g: Graph) -> NodeId:
    """The lowest non-negative id not currently assigned as a vertex."""
    candidate = 0
    while candidate in g.vertices:
        candidate += 1
    return candidate


def neighbor_set_for_insert(
    g: Graph,
    hc: HamiltonianCycle,
    degree: int,
    rng: Random,
) -> frozenset[NodeId]:
    """Choose a neighbor group for a joining node.

    The group is one cycle-adjacent pair plus ``degree - 2`` fillers picked so
    that no other two members of the group are cycle-adjacent.  Receivers can
    then recover the splice position from the group alone, which is what
    :func:`locate_insertion_pair` does.
    """
    if degree < 2 or len(g.vertices) < degree + 2:
        raise UnsatisfiableNeighborSet("cannot construct unambiguous neighbor set")
    order = hc.order
    n = len(order)
    for _ in range(NEIGHBOR_SET_RETRY_BUDGET):
        k = rng.randrange(n)
        v_j, v_k = order[k], order[(k + 1) % n]
        chosen = [v_j, v_k]
        # The cycle neighbors of every chosen vertex: a filler must avoid them.
        blocked = {*hc.neighbors_of(v_j), *hc.neighbors_of(v_k)}
        pool = [v for v in order if v != v_j and v != v_k]
        _shuffle(pool, rng)
        for w in pool:
            if len(chosen) == degree:
                break
            if w in blocked:
                continue
            chosen.append(w)
            blocked.update(hc.neighbors_of(w))
        if len(chosen) == degree:
            return frozenset(chosen)
    raise UnsatisfiableNeighborSet("cannot construct unambiguous neighbor set")


def locate_insertion_pair(
    hc: HamiltonianCycle, neighbors: Iterable[NodeId]
) -> tuple[NodeId, NodeId]:
    """Recover the unique cycle-adjacent pair from a broadcast neighbor set.

    Returns the pair oriented along the canonical cycle (second element is the
    successor of the first).  Zero or multiple adjacent pairs mean the
    broadcast is malformed or hostile.
    """
    members = sorted(set(neighbors))
    pairs = [
        (u, v)
        for i, u in enumerate(members)
        for v in members[i + 1:]
        if hc.adjacent(u, v)
    ]
    if len(pairs) != 1:
        raise AmbiguousBroadcast(
            f"ambiguous or invalid insertion broadcast ({len(pairs)} adjacent pairs)"
        )
    u, v = pairs[0]
    return (u, v) if hc.successor(u) == v else (v, u)


def splice_insert(
    g: Graph,
    hc: HamiltonianCycle,
    new_id: NodeId,
    neighbors: Iterable[NodeId],
) -> tuple[Graph, HamiltonianCycle]:
    """Insert ``new_id`` between the unique adjacent pair of ``neighbors``.

    The displaced cycle edge stays in the graph; only the cycle routes around
    the newcomer.  The result is kept on ``g``, by parent object: the same
    call on ``g`` returns the same objects, a graph merely equal to ``g`` gets
    its own equal result, and whoever holds ``g`` keeps every later splice of
    it alive.  A splice that raises keeps nothing, so it raises every time.
    """
    neighbor_set = frozenset(neighbors)
    # Checked before the lookup: a float equal to a member id would match the
    # int's result, and an id that cannot be encoded would splice and only
    # then fail in ``graph_digest``, with the replica already updated.
    if not all(isinstance(v, int) and 0 <= v < 2**32 for v in (new_id, *neighbor_set)):
        raise InvalidSplice("invalid splice")
    results = g._splices
    key = (hc, new_id, neighbor_set)
    result = results.get(key)
    if result is None:
        if new_id in g.vertices or not neighbor_set <= g.vertices:
            raise InvalidSplice("invalid splice")
        v_j, v_k = locate_insertion_pair(hc, neighbor_set)
        i = hc.order.index(v_j)
        new_order = hc.order[: i + 1] + (new_id,) + hc.order[i + 1:]
        # The newcomer is not a vertex yet, so none of its edges is a loop.
        edges = g.edges | {_norm_edge(new_id, w) for w in neighbor_set}
        graph = Graph._trusted(g.vertices | {new_id}, edges)
        result = results[key] = graph, HamiltonianCycle(new_order)
    return result


def splice_delete(
    g: Graph, hc: HamiltonianCycle, victim: NodeId
) -> tuple[Graph, HamiltonianCycle]:
    """Remove ``victim``, bridging its two cycle neighbors with a new edge.

    Every edge incident to the victim leaves the graph; the bridge edge joins
    its former cycle neighbors so the cycle stays closed.  The result is kept
    on ``g`` like that of :func:`splice_insert`.
    """
    results = g._splices
    key = (hc, victim)
    result = results.get(key)
    if result is None:
        if victim not in g.vertices or victim not in hc.vertices:
            raise UnknownNode("unknown node")
        if len(g.vertices) < 4:
            raise BelowMinimumOrder("below minimum order")
        v_j, v_k = hc.neighbors_of(victim)
        # The bridge must be an edge between two other vertices of the graph.
        if v_j == v_k or v_j not in g.vertices or v_k not in g.vertices:
            raise InvalidSplice("cycle does not match the graph")
        new_edges = {e for e in g.edges if victim not in e}
        new_edges.add(_norm_edge(v_j, v_k))
        new_order = tuple(v for v in hc.order if v != victim)
        graph = Graph._trusted(g.vertices - {victim}, frozenset(new_edges))
        result = results[key] = graph, HamiltonianCycle(new_order)
    return result
