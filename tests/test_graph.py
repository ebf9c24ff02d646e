"""Graph-core: cycle canonicalization, splice rules, generator invariants."""

import dataclasses
import gc
import itertools
import struct
import weakref
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from gasman.graph import (
    ENCODING_VERSION,
    AmbiguousBroadcast,
    BelowMinimumOrder,
    Graph,
    GraphError,
    HamiltonianCycle,
    InvalidParameters,
    InvalidSplice,
    Permutation,
    PermutationDomainMismatch,
    UnknownNode,
    UnsatisfiableNeighborSet,
    apply_permutation,
    assign_new_id,
    build_initial_graph,
    encode_cycle,
    encode_graph,
    encode_permutation,
    instance_around_cycle,
    is_hamiltonian_cycle,
    locate_insertion_pair,
    neighbor_set_for_insert,
    permute_graph,
    relabel_encoding,
    splice_delete,
    splice_insert,
)


def cycle_graph(order):
    n = len(order)
    edges = frozenset(
        tuple(sorted((order[i], order[(i + 1) % n]))) for i in range(n)
    )
    return Graph(frozenset(order), edges)


def triangle():
    return Graph(frozenset({0, 1, 2}), frozenset({(0, 1), (0, 2), (1, 2)}))


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------

def test_canonical_form_starts_at_minimum_and_orients():
    hc = HamiltonianCycle((8, 3, 9, 7, 4, 2, 6, 5, 1, 10, 0))
    assert hc.order[0] == 0
    prev, nxt = hc.neighbors_of(0)
    assert hc.order[1] == min(prev, nxt)


def test_canonicalization_is_idempotent():
    hc = HamiltonianCycle((5, 1, 4, 2, 3))
    again = HamiltonianCycle(hc.order)
    assert again.order == hc.order


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=3, max_value=12), st.integers())
def test_rotations_and_reflections_canonicalize_identically(n, seed):
    rng = Random(seed)
    base = list(range(n))
    rng.shuffle(base)
    k = rng.randrange(n)
    rotated = base[k:] + base[:k]
    reflected = list(reversed(rotated))
    assert HamiltonianCycle(tuple(base)).order == HamiltonianCycle(tuple(rotated)).order
    assert HamiltonianCycle(tuple(base)).order == HamiltonianCycle(tuple(reflected)).order


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=4, max_value=12), st.integers())
def test_equal_cycles_hash_equal_and_find_the_same_splice(n, seed):
    rng = Random(seed)
    base = list(range(n))
    rng.shuffle(base)
    k = rng.randrange(n)
    rotated = base[k:] + base[:k]
    cycles = [HamiltonianCycle(tuple(c)) for c in (base, rotated, rotated[::-1])]
    # The kept hash is the one the dataclass would generate.
    assert {hash(c) for c in cycles} == {hash((cycles[0].order,))}
    g = Graph(frozenset(base), frozenset(zip(base, base[1:] + base[:1])))
    deleted = splice_delete(g, cycles[0], base[0])
    inserted = splice_insert(g, cycles[0], n, {base[0], base[1]})
    for hc in cycles[1:]:
        assert splice_delete(g, hc, base[0]) is deleted
        assert splice_insert(g, hc, n, {base[1], base[0]}) is inserted


def test_cycle_adjacency_queries():
    hc = HamiltonianCycle((0, 1, 2, 3, 4))
    assert hc.adjacent(0, 1)
    assert hc.adjacent(4, 0)
    assert not hc.adjacent(0, 2)
    assert not hc.adjacent(0, 0)
    assert not hc.adjacent(0, 99)
    assert hc.neighbors_of(2) in {(1, 3), (3, 1)}


# ---------------------------------------------------------------------------
# is_hamiltonian_cycle
# ---------------------------------------------------------------------------

def test_triangle_cycle_is_valid():
    assert is_hamiltonian_cycle(triangle(), HamiltonianCycle((0, 1, 2)))


def test_path_is_not_a_cycle():
    g = Graph(frozenset({0, 1, 2}), frozenset({(0, 1), (1, 2)}))
    assert not is_hamiltonian_cycle(g, HamiltonianCycle((0, 1, 2)))


def test_generated_instance_passes_checker():
    g, hc = build_initial_graph(11, 22, Random(1))
    assert is_hamiltonian_cycle(g, hc)


def test_malformed_cycles_return_false():
    g = triangle()
    assert not is_hamiltonian_cycle(g, HamiltonianCycle((0, 1)))
    assert not is_hamiltonian_cycle(g, HamiltonianCycle((0, 1, 2, 2)))
    assert not is_hamiltonian_cycle(g, HamiltonianCycle((0, 1, 3)))
    assert not is_hamiltonian_cycle(g, HamiltonianCycle(()))


# ---------------------------------------------------------------------------
# Permutations
# ---------------------------------------------------------------------------

def test_identity_permutation_fixes_canonical_inputs():
    g = triangle()
    hc = HamiltonianCycle((0, 1, 2))
    g2, hc2 = apply_permutation(g, hc, Permutation.identity(g.vertices))
    assert g2 == g and hc2 == hc


def test_rotating_a_triangle_gives_the_same_triangle():
    g = triangle()
    p = Permutation((0, 1, 2), (1, 2, 0))
    g2, hc2 = apply_permutation(g, HamiltonianCycle((0, 1, 2)), p)
    assert g2 == g
    assert hc2 == HamiltonianCycle((0, 1, 2))


def test_relabel_matches_edge_by_edge_oracle():
    rng = Random(9)
    g, hc = build_initial_graph(8, 12, rng)
    p = Permutation.random(g.vertices, rng)
    g2, hc2 = apply_permutation(g, hc, p)
    mapping = dict(zip(p.domain, p.image))
    # Independent oracle: remap every edge individually.
    expected = {tuple(sorted((mapping[u], mapping[v]))) for u, v in g.edges}
    assert set(g2.edges) == expected
    assert is_hamiltonian_cycle(g2, hc2)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=4, max_value=16), st.integers())
def test_inverse_permutation_round_trips(n, seed):
    rng = Random(seed)
    g, hc = build_initial_graph(n, 2 * n, rng)
    p = Permutation.random(g.vertices, rng)
    g2, hc2 = apply_permutation(g, hc, p)
    g3, hc3 = apply_permutation(g2, hc2, p.inverse())
    assert g3 == g and hc3 == hc


@pytest.mark.parametrize("order", [(), (5,), (5, 9)])
def test_a_cycle_too_short_to_be_hamiltonian_still_relabels(order):
    g = Graph(frozenset(order), frozenset({tuple(order)} if len(order) == 2 else ()))
    p = Permutation(tuple(sorted(order)), tuple(sorted(order, reverse=True)))
    mapping = dict(zip(p.domain, p.image))
    g2, hc2 = apply_permutation(g, HamiltonianCycle(order), p)
    assert g2 == g
    assert hc2 == HamiltonianCycle(tuple(mapping[v] for v in order))


def test_a_cycle_vertex_outside_the_graph_is_a_domain_mismatch():
    g = triangle()
    with pytest.raises(PermutationDomainMismatch):
        apply_permutation(g, HamiltonianCycle((0, 1, 3)), Permutation.identity(g.vertices))


def test_domain_mismatch_is_an_error():
    g = triangle()
    p = Permutation((0, 1, 3), (1, 0, 3))
    with pytest.raises(PermutationDomainMismatch):
        permute_graph(g, p)


def test_non_bijection_rejected():
    with pytest.raises(Exception):
        Permutation((0, 1, 2), (0, 0, 2))


# ---------------------------------------------------------------------------
# build_initial_graph
# ---------------------------------------------------------------------------

def test_degree_two_initialization_is_exactly_the_cycle():
    g, hc = build_initial_graph(5, 5, Random(3))
    assert g.size == 5
    assert set(g.edges) == set(cycle_graph(hc.order).edges)


@pytest.mark.parametrize("seed", range(8))
def test_initialization_invariants(seed):
    g, hc = build_initial_graph(11, 22, Random(seed))
    assert is_hamiltonian_cycle(g, hc)
    assert all(g.degree(v) >= 2 for v in g.vertices)
    assert 11 <= g.size <= 22


@pytest.mark.parametrize("seed", range(4))
def test_dealt_instance_matches_validated_construction(seed):
    order = (8, 3, 9, 7, 4, 2, 6, 5, 1, 10, 0, 2**32 - 1)
    g, hc = instance_around_cycle(order, 4, Random(seed))
    assert g == Graph(frozenset(order), g.edges)
    assert hc == HamiltonianCycle(order)
    assert is_hamiltonian_cycle(g, hc)
    assert all(u < v for u, v in g.edges)
    assert all(g.degree(v) >= 2 for v in g.vertices)
    assert len(order) <= g.size <= 2 * len(order)


def test_graph_fields_are_the_vertices_and_edges_only():
    # Derived data lives in cached properties, outside equality and hashing.
    assert [f.name for f in dataclasses.fields(Graph)] == ["vertices", "edges"]
    g, _ = build_initial_graph(11, 22, Random(1))
    encode_graph(g)
    assert "_encoding" in vars(g)
    assert g == Graph(g.vertices, g.edges) and hash(g) == hash(Graph(g.vertices, g.edges))


@pytest.mark.parametrize(
    "n,m",
    [(3, 3), (11, 10), (10, 13), (4, 3)],  # too small / m<n / 2m/n fractional
)
def test_initialization_parameter_validation(n, m):
    with pytest.raises(InvalidParameters):
        build_initial_graph(n, m, Random(0))


# ---------------------------------------------------------------------------
# assign_new_id
# ---------------------------------------------------------------------------

def test_assign_new_id_rules():
    assert assign_new_id(cycle_graph(tuple(range(11)))) == 11
    g = Graph(frozenset({0, 2, 3}), frozenset({(0, 2), (2, 3), (0, 3)}))
    assert assign_new_id(g) == 1
    assert assign_new_id(Graph(frozenset(), frozenset())) == 0


# ---------------------------------------------------------------------------
# neighbor_set_for_insert / locate_insertion_pair
# ---------------------------------------------------------------------------

def adjacent_pairs_in(hc, members):
    """Brute-force oracle: enumerate every pair and test cycle adjacency."""
    return [
        (u, v)
        for u, v in itertools.combinations(sorted(members), 2)
        if hc.adjacent(u, v)
    ]


def test_degree_two_set_is_one_adjacent_pair():
    g, hc = build_initial_graph(8, 8, Random(2))
    chosen = neighbor_set_for_insert(g, hc, 2, Random(5))
    assert len(chosen) == 2
    assert len(adjacent_pairs_in(hc, chosen)) == 1


@pytest.mark.parametrize("seed", range(10))
def test_neighbor_set_has_exactly_one_adjacent_pair(seed):
    g, hc = build_initial_graph(11, 22, Random(1))
    chosen = neighbor_set_for_insert(g, hc, 4, Random(seed))
    assert len(chosen) == 4
    assert len(adjacent_pairs_in(hc, chosen)) == 1


def test_neighbor_set_unsatisfiable_on_small_cycle():
    g, hc = build_initial_graph(4, 4, Random(0))
    # Exhaustive check that no 4-subset of a 4-cycle has a unique adjacent pair.
    assert all(
        len(adjacent_pairs_in(hc, combo)) != 1
        for combo in itertools.combinations(g.vertices, 4)
    )
    with pytest.raises(UnsatisfiableNeighborSet):
        neighbor_set_for_insert(g, hc, 4, Random(0))


def test_locate_pair_from_recorded_trace():
    hc = HamiltonianCycle((8, 3, 9, 7, 4, 2, 6, 5, 1, 10, 0))
    assert set(locate_insertion_pair(hc, {4, 2})) == {4, 2}


def test_locate_pair_edge_cases():
    hc = HamiltonianCycle((0, 1, 2, 3, 4))
    assert set(locate_insertion_pair(hc, {0, 2, 4})) == {0, 4}
    with pytest.raises(AmbiguousBroadcast):
        locate_insertion_pair(hc, {0, 2})
    with pytest.raises(AmbiguousBroadcast):
        locate_insertion_pair(hc, {0, 1, 2})


@pytest.mark.parametrize("seed", range(6))
def test_generator_and_locator_round_trip(seed):
    rng = Random(seed)
    g, hc = build_initial_graph(20, 40, rng)
    chosen = neighbor_set_for_insert(g, hc, 4, rng)
    pair = locate_insertion_pair(hc, chosen)
    assert hc.adjacent(*pair)
    assert set(pair) <= chosen


# ---------------------------------------------------------------------------
# splice_insert / splice_delete
# ---------------------------------------------------------------------------

TRACE_HC = (8, 3, 9, 7, 4, 2, 6, 5, 1, 10, 0)


def test_splice_sequence_matches_recorded_trace():
    g = cycle_graph(TRACE_HC)
    hc = HamiltonianCycle(TRACE_HC)
    g, hc = splice_insert(g, hc, 14, {4, 2})
    assert hc == HamiltonianCycle((8, 3, 9, 7, 4, 14, 2, 6, 5, 1, 10, 0))
    g, hc = splice_delete(g, hc, 5)
    assert hc == HamiltonianCycle((8, 3, 9, 7, 4, 14, 2, 6, 1, 10, 0))
    g, hc = splice_insert(g, hc, 13, {2, 6})
    assert hc == HamiltonianCycle((8, 3, 9, 7, 4, 14, 2, 13, 6, 1, 10, 0))


def test_splice_insert_keeps_displaced_edge_and_originals():
    g = triangle()
    g1, hc1 = splice_insert(g, HamiltonianCycle((0, 1, 2)), 3, {0, 1})
    assert hc1 == HamiltonianCycle((0, 3, 1, 2))
    assert g.edges <= g1.edges
    assert g1.has_edge(0, 1)  # displaced from the cycle, not the graph
    assert is_hamiltonian_cycle(g1, hc1)


def test_splice_insert_precondition_errors():
    g = triangle()
    hc = HamiltonianCycle((0, 1, 2))
    with pytest.raises(InvalidSplice):
        splice_insert(g, hc, 1, {0, 2})  # id collision
    with pytest.raises(InvalidSplice):
        splice_insert(g, hc, 3, {0, 9})  # foreign neighbor


def test_splice_delete_matches_recorded_trace():
    order = (8, 3, 9, 7, 4, 14, 2, 6, 5, 1, 10, 0)
    g = cycle_graph(order)
    hc = HamiltonianCycle(order)
    g2, hc2 = splice_delete(g, hc, 5)
    assert hc2 == HamiltonianCycle((8, 3, 9, 7, 4, 14, 2, 6, 1, 10, 0))
    assert is_hamiltonian_cycle(g2, hc2)


def test_splice_delete_bridges_neighbors():
    g = cycle_graph((0, 1, 2, 3))
    g2, hc2 = splice_delete(g, HamiltonianCycle((0, 1, 2, 3)), 2)
    assert hc2 == HamiltonianCycle((0, 1, 3))
    assert g2.has_edge(1, 3)
    assert all(2 not in e for e in g2.edges)


def test_splice_delete_errors():
    g = cycle_graph((0, 1, 2, 3))
    hc = HamiltonianCycle((0, 1, 2, 3))
    with pytest.raises(UnknownNode):
        splice_delete(g, hc, 9)
    with pytest.raises(UnknownNode):
        # Hostile pair: the vertex exists in the graph but not in the cycle.
        splice_delete(g, HamiltonianCycle((0, 1, 3)), 2)
    small, small_hc = splice_delete(g, hc, 2)
    with pytest.raises(BelowMinimumOrder):
        splice_delete(small, small_hc, 0)


def test_insert_then_delete_restores_the_cycle():
    rng = Random(12)
    g, hc = build_initial_graph(12, 24, rng)
    chosen = neighbor_set_for_insert(g, hc, 4, rng)
    g1, hc1 = splice_insert(g, hc, 99, chosen)
    g2, hc2 = splice_delete(g1, hc1, 99)
    assert hc2 == hc
    # Filler edges from the insert and the delete's bridge edge may remain.
    assert g.edges <= g2.edges


@pytest.mark.parametrize("seed", range(5))
def test_splice_closure_over_random_op_sequences(seed):
    rng = Random(seed)
    g, hc = build_initial_graph(8, 16, rng)
    for _ in range(60):
        do_insert = g.order <= 4 or rng.random() < 0.5
        if do_insert:
            degree = min(4, g.order - 2)
            try:
                chosen = neighbor_set_for_insert(g, hc, max(2, degree), rng)
            except UnsatisfiableNeighborSet:
                continue
            g, hc = splice_insert(g, hc, assign_new_id(g), chosen)
        else:
            victims = sorted(g.vertices)
            g, hc = splice_delete(g, hc, victims[rng.randrange(len(victims))])
        assert is_hamiltonian_cycle(g, hc)


# ---------------------------------------------------------------------------
# Shared values: splice results, cached encoding, trusted construction
# ---------------------------------------------------------------------------

def validated_insert(g, hc, new_id, neighbors):
    """``splice_insert`` rebuilt through the validating public constructor."""
    v_j, _ = locate_insertion_pair(hc, neighbors)
    i = hc.order.index(v_j)
    return (
        Graph(g.vertices | {new_id}, g.edges | {(new_id, w) for w in neighbors}),
        HamiltonianCycle(hc.order[: i + 1] + (new_id,) + hc.order[i + 1:]),
    )


def validated_delete(g, hc, victim):
    """``splice_delete`` rebuilt through the validating public constructor."""
    bridge = hc.neighbors_of(victim)
    return (
        Graph(g.vertices - {victim}, {e for e in g.edges if victim not in e} | {bridge}),
        HamiltonianCycle(tuple(v for v in hc.order if v != victim)),
    )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), inserts=st.lists(st.booleans(), min_size=1, max_size=25))
def test_memoized_splices_match_validated_construction(seed, inserts):
    rng = Random(seed)
    g, hc = build_initial_graph(8, 16, rng)
    for insert in inserts:
        # Equal values held by another replica: they get their own result.
        g_copy, hc_copy = Graph(g.vertices, g.edges), HamiltonianCycle(hc.order)
        if insert or g.order <= 5:
            neighbors = neighbor_set_for_insert(g, hc, 3, rng)
            new_id = assign_new_id(g)
            out = splice_insert(g, hc, new_id, neighbors)
            expected = validated_insert(g, hc, new_id, neighbors)
            for _ in range(2):
                with pytest.raises(InvalidSplice):
                    splice_insert(g, hc, min(g.vertices), neighbors)
                with pytest.raises(AmbiguousBroadcast):
                    splice_insert(g, hc, new_id, hc.order[:3])
            again = splice_insert(g_copy, hc_copy, new_id, sorted(neighbors))
            shared = splice_insert(g, hc_copy, new_id, sorted(neighbors))
        else:
            victim = sorted(g.vertices)[rng.randrange(g.order)]
            out = splice_delete(g, hc, victim)
            expected = validated_delete(g, hc, victim)
            for _ in range(2):
                with pytest.raises(UnknownNode):
                    splice_delete(g, hc, max(g.vertices) + 1)
            again = splice_delete(g_copy, hc_copy, victim)
            shared = splice_delete(g, hc_copy, victim)
        assert out == expected
        assert encode_graph(out[0]) == encode_graph(expected[0])
        assert encode_graph(out[0]) is encode_graph(out[0])
        assert again == out
        assert shared[0] is out[0] and shared[1] is out[1]
        assert is_hamiltonian_cycle(*out)
        g, hc = out


def test_replicas_deleting_many_nodes_share_every_result():
    g, hc = build_initial_graph(12, 24, Random(5))
    victims = sorted(g.vertices)[:6]
    # Two replicas of one parent delete six nodes one after another.
    replicas = []
    for _ in range(2):
        states = [(g, hc)]
        for victim in victims:
            states.append(splice_delete(*states[-1], victim))
        replicas.append(states)
    assert all(a[0] is b[0] and a[1] is b[1] for a, b in zip(*replicas))
    neighbors = neighbor_set_for_insert(g, hc, 3, Random(1))
    inserted = splice_insert(g, hc, 99, neighbors)
    again = splice_insert(g, hc, 99, sorted(neighbors))
    assert again[0] is inserted[0] and again[1] is inserted[1]
    # The parent keeps its results alive after their holders let go ...
    results = [weakref.ref(x) for x in (*itertools.chain(*replicas[0][1:]), *inserted)]
    del replicas, states, inserted, again
    gc.collect()
    assert all(r() is not None for r in results)
    # ... and nothing does once the parent goes too.
    del g, hc
    gc.collect()
    assert [r() for r in results] == [None] * len(results)


def test_splice_insert_rejects_non_integer_ids_before_the_memo_sees_them():
    g = cycle_graph((0, 1, 2, 3))
    hc = HamiltonianCycle((0, 1, 2, 3))
    with pytest.raises(InvalidSplice):
        splice_insert(g, hc, 4, {0.0, 1})  # equal to {0, 1}, but not encodable
    with pytest.raises(InvalidSplice):
        splice_insert(g, hc, 4.0, {0, 1})
    g1, _ = splice_insert(g, hc, 4, {0, 1})
    assert encode_graph(g1) == encode_graph(Graph(g1.vertices, g1.edges))
    # After the int call has stored its result, the equal floats still raise.
    with pytest.raises(InvalidSplice):
        splice_insert(g, hc, 4.0, {0, 1})
    with pytest.raises(InvalidSplice):
        splice_insert(g, hc, 4, {0.0, 1})
    for unencodable in (-1, 2**32):
        with pytest.raises(InvalidSplice):
            splice_insert(g, hc, unencodable, {0, 1})


def test_splice_delete_rejects_a_cycle_that_leaves_the_graph():
    g = cycle_graph((0, 1, 2, 3, 4))
    with pytest.raises(InvalidSplice):
        splice_delete(g, HamiltonianCycle((0, 1, 2, 9, 4)), 2)  # bridge to 9


def test_public_graph_constructor_still_validates():
    with pytest.raises(GraphError, match="self-loop"):
        Graph(frozenset({0, 1}), frozenset({(1, 1)}))
    with pytest.raises(GraphError, match="outside the vertex set"):
        Graph(frozenset({0, 1}), frozenset({(0, 2)}))


# ---------------------------------------------------------------------------
# Canonical encodings
# ---------------------------------------------------------------------------

def test_graph_encoding_bytes_are_exact():
    expected = bytes.fromhex(
        "01"
        "00000003" "00000000" "00000001" "00000002"
        "00000003"
        "00000000" "00000001"
        "00000000" "00000002"
        "00000001" "00000002"
    )
    assert encode_graph(triangle()) == expected


def test_cycle_encoding_uses_canonical_order():
    hc = HamiltonianCycle((2, 0, 1))
    expected = bytes.fromhex("01" + "00000003" + "00000000" + "00000001" + "00000002")
    assert encode_cycle(hc) == expected


def test_permutation_encoding_is_image_of_sorted_domain():
    p = Permutation((2, 0, 1), (0, 1, 2))  # normalizes to domain (0,1,2)
    assert encode_permutation(p) == bytes.fromhex(
        "01" + "00000003" + "00000001" + "00000002" + "00000000"
    )


def test_encodings_distinguish_different_values():
    g1, hc1 = build_initial_graph(8, 12, Random(1))
    g2, hc2 = build_initial_graph(8, 12, Random(2))
    assert encode_graph(g1) != encode_graph(g2)
    assert encode_cycle(hc1) != encode_cycle(hc2)


def reference_encode_graph(g):
    """The tuple-sort encoding: sorted vertex list, then sorted edge pairs."""
    vertices = sorted(g.vertices)
    edges = sorted(g.edges)
    return (bytes([ENCODING_VERSION])
            + struct.pack(f">I{len(vertices)}I", len(vertices), *vertices)
            + struct.pack(f">I{2 * len(edges)}I", len(edges), *(x for e in edges for x in e)))


@st.composite
def graphs(draw):
    """A valid graph over up to 12 ids anywhere in the encodable range."""
    vertices = draw(st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=12, unique=True))
    pairs = list(itertools.combinations(vertices, 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    return Graph(frozenset(vertices), frozenset(edges))


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_encoding_matches_the_tuple_sort_reference(g):
    assert encode_graph(g) == reference_encode_graph(g)


@pytest.mark.parametrize("bad", [-1, 2**32, 1.5])
def test_an_unencodable_vertex_raises_graph_error(bad):
    g = Graph(frozenset({0, 1, bad}), frozenset({(0, 1), (1, bad)}))
    with pytest.raises(GraphError):
        encode_graph(g)
    with pytest.raises(GraphError):
        permute_graph(g, Permutation.identity(g.vertices))


def test_vertices_of_mixed_types_raise_graph_error():
    g = Graph(frozenset({0, 1, "a"}), frozenset({(0, 1)}))
    with pytest.raises(GraphError):
        encode_graph(g)


def test_an_endpoint_only_equal_to_a_vertex_raises_graph_error():
    g = Graph(frozenset({0, 1, 2}), frozenset({(0, 1.0), (1, 2)}))
    with pytest.raises(GraphError):
        encode_graph(g)
    relabel = Permutation((0, 1, 2), (0, 2.0, 1))  # the constructor admits 2.0
    with pytest.raises(GraphError):
        permute_graph(triangle(), relabel)


@settings(max_examples=200, deadline=None)
@given(graphs(), st.randoms(use_true_random=False))
def test_relabeling_matches_a_validated_reference(g, rng):
    p = Permutation.random(g.vertices, rng)
    mapping = dict(zip(p.domain, p.image))
    expected = Graph(frozenset(mapping[v] for v in g.vertices),
                     frozenset((mapping[u], mapping[v]) for u, v in g.edges))
    relabeled = permute_graph(g, p)
    assert relabeled == expected
    assert vars(relabeled)["_encoding"] == encode_graph(expected) == reference_encode_graph(expected)


def reference_is_hamiltonian_cycle(g, order):
    n = len(order)
    return (n >= 3 and len(set(order)) == n and set(order) == g.vertices
            and all(g.has_edge(order[i], order[(i + 1) % n]) for i in range(n)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cycle_check_agrees_with_a_has_edge_reference(data):
    n = data.draw(st.integers(3, 9))
    rng = data.draw(st.randoms(use_true_random=False))
    g, hc = build_initial_graph(n + n % 2, 2 * (n + n % 2), rng)
    # Hostile cycles: dropped, repeated or foreign vertices and arbitrary orders.
    ids = st.integers(-2, n + 2)
    order = data.draw(st.one_of(
        st.permutations(sorted(g.vertices)),
        st.lists(ids, max_size=n + 3),
        st.just(list(hc.order)),
    ))
    cycle = HamiltonianCycle(tuple(order))
    assert is_hamiltonian_cycle(g, cycle) == reference_is_hamiltonian_cycle(g, cycle.order)


def reference_relabel_encoding(g, p):
    """The relabeled graph's encoding, built from a dict and sorted tuples."""
    mapping = dict(zip(p.domain, p.image))
    vertices = sorted(g.vertices)
    edges = sorted(tuple(sorted((mapping[u], mapping[v]))) for u, v in g.edges)
    return (bytes([ENCODING_VERSION])
            + struct.pack(f">I{len(vertices)}I", len(vertices), *vertices)
            + struct.pack(f">I{2 * len(edges)}I", len(edges), *(x for e in edges for x in e)))


@settings(max_examples=200, deadline=None)
@given(graphs(), st.randoms(use_true_random=False))
@example(Graph(frozenset({0, 1}), frozenset()), Random(0))
@example(Graph(frozenset({0, 2**32 - 1}), frozenset({(0, 2**32 - 1)})), Random(0))
@example(Graph(frozenset({5, 9, 2**32 - 1}), frozenset({(9, 2**32 - 1)})), Random(1))
def test_relabel_encoding_matches_a_reference(g, rng):
    p = Permutation.random(g.vertices, rng)
    encoding = encode_graph(permute_graph(g, p))
    assert encoding == reference_relabel_encoding(g, p)
    # The second relabel reads the table the first one kept on ``g``.
    assert "_relabel" in vars(g)
    assert encode_graph(permute_graph(g, p)) == encoding
    assert relabel_encoding(g, p) == encoding


def relabel_outcome(relabel, g, p):
    try:
        relabel(g, p)
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc)
    return None


def floated(p, v):
    """``p`` with the image entry ``v`` replaced by ``float(v)``."""
    return Permutation(p.domain, tuple(float(x) if x == v else x for x in p.image))


def unencodable(bad):
    return Graph(frozenset({0, 1, bad}), frozenset({(0, 1), (1, bad)}))


HOSTILE_RELABELS = [
    pytest.param(triangle(), Permutation((0, 1, 3), (1, 0, 3)), PermutationDomainMismatch,
                 id="foreign-domain"),
    pytest.param(triangle(), Permutation.identity({0, 1}), PermutationDomainMismatch,
                 id="short-domain"),
    pytest.param(unencodable(-1), Permutation.identity({0, 1, -1}), GraphError, id="id--1"),
    pytest.param(unencodable(2**32), Permutation.identity({0, 1, 2**32}), GraphError,
                 id="id-2**32"),
    pytest.param(unencodable(1.5), Permutation.identity({0, 1, 1.5}), GraphError, id="id-1.5"),
    pytest.param(cycle_graph([3, 7, 5, 9]), floated(Permutation((3, 5, 7, 9), (9, 3, 7, 5)), 7),
                 GraphError, id="image-7.0"),
    pytest.param(Graph(frozenset({0, 1, 2}), frozenset({(0, 1.0), (1, 2)})),
                 Permutation.identity({0, 1, 2}), GraphError, id="endpoint-1.0"),
    pytest.param(Graph(frozenset({0, 1, "a"}), frozenset({(0, 1)})),
                 Permutation((0, 1), (1, 0)), PermutationDomainMismatch, id="mixed-foreign"),
    # 7.0 relabels only an isolated vertex, so no key needs it: the relabel succeeds.
    pytest.param(Graph(frozenset({3, 5, 7, 9}), frozenset({(3, 9), (5, 9)})),
                 floated(Permutation((3, 5, 7, 9), (3, 5, 7, 9)), 7), None, id="isolated-7.0"),
]


@pytest.mark.parametrize("g, p, expected", HOSTILE_RELABELS)
def test_relabel_raises_on_a_hostile_input(g, p, expected):
    assert relabel_outcome(permute_graph, g, p) is expected
    assert relabel_outcome(relabel_encoding, g, p) is expected
    if expected is None:
        assert encode_graph(permute_graph(g, p)) == reference_relabel_encoding(g, p)
        assert relabel_encoding(g, p) == reference_relabel_encoding(g, p)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=12, unique=True),
       st.integers(0, 2**32 - 1))
def test_cycle_indexes_positions_on_first_query(order, stranger):
    cycle = HamiltonianCycle(tuple(order))
    assert "_pos" not in vars(cycle)  # indexed only when a query needs it
    n = len(order)
    canonical = cycle.order
    for i, v in enumerate(canonical):
        after, before = canonical[(i + 1) % n], canonical[i - 1]
        assert cycle.successor(v) == after
        assert cycle.neighbors_of(v) == (before, after)
        for w in (*order, stranger):
            assert cycle.adjacent(v, w) == (w in (before, after) and w != v)
    assert "_pos" in vars(cycle)
    assert cycle == HamiltonianCycle(tuple(reversed(order)))


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 12), st.randoms(use_true_random=False))
def test_relabeled_cycle_matches_a_dict_relabel(n, rng):
    g, hc = build_initial_graph(n + n % 2, 2 * (n + n % 2), rng)
    p = Permutation.random(g.vertices, rng)
    relabeled, cycle = apply_permutation(g, hc, p)
    mapping = dict(zip(p.domain, p.image))
    assert cycle == HamiltonianCycle(tuple(mapping[v] for v in hc.order))
    assert is_hamiltonian_cycle(relabeled, cycle)
