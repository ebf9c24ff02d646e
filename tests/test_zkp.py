"""Interactive proof: completeness, soundness, hiding, hostile-input totality."""

import hashlib
import struct
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from gasman.graph import (
    ENCODING_VERSION,
    Graph,
    HamiltonianCycle,
    Permutation,
    apply_permutation,
    build_initial_graph,
    encode_cycle,
    encode_graph,
    is_hamiltonian_cycle,
)
from gasman.zkp import (
    Commitment,
    HonestProver,
    OneBranchCheater,
    ProofError,
    RevealCycle,
    RevealPermutation,
    commitment_for,
    digest,
    encode_transcript,
    prover_commit,
    prover_respond,
    run_proof,
    verifier_check,
)


class IdentityDraws(Random):
    """Randomness source whose Fisher-Yates draws leave ``n`` items unchanged.

    The shuffle reads only ``getrandbits``; this one answers the draw for
    position ``i`` with ``i`` itself, for ``i`` from ``n - 1`` down to 1.
    """

    def __init__(self, n):
        super().__init__(n)
        self._draws = iter(range(n - 1, 0, -1))

    def getrandbits(self, k):  # noqa: ARG002
        return next(self._draws)


def small_instance(seed=1, n=8, m=16):
    return build_initial_graph(n, m, Random(seed))


# ---------------------------------------------------------------------------
# digest
# ---------------------------------------------------------------------------

def test_digest_empty_input_matches_published_vector():
    assert digest(b"") == hashlib.sha256(b"").digest()
    assert digest(b"").hex() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )


def test_digest_is_deterministic_and_256_bit():
    assert digest(b"abc") == digest(b"abc")
    assert len(digest(b"abc")) == 32


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=1, max_size=64), st.data())
def test_single_byte_flip_changes_digest(blob, data):
    i = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    flipped = blob[:i] + bytes([blob[i] ^ 0x01]) + blob[i + 1:]
    assert digest(blob) != digest(flipped)


# ---------------------------------------------------------------------------
# prover_commit / prover_respond
# ---------------------------------------------------------------------------

def test_commitment_recomputable_from_secret():
    g, hc = small_instance()
    secret, com = prover_commit(g, hc, Random(4))
    # Independent recomputation: apply the revealed permutation and hash.
    pg, pc = apply_permutation(g, hc, secret.permutation)
    assert com.graph_digest == digest(encode_graph(pg))
    assert com.cycle_digest == digest(encode_cycle(pc))
    assert (pg, pc) == (secret.permuted_graph, secret.permuted_cycle)


def test_identity_randomness_commits_to_the_public_graph():
    g, hc = small_instance()
    _, com = prover_commit(g, hc, IdentityDraws(g.order))
    assert com.graph_digest == digest(encode_graph(g))
    assert com.cycle_digest == digest(encode_cycle(hc))


def test_commit_requires_a_valid_witness():
    g, _ = small_instance()
    bogus = HamiltonianCycle(tuple(sorted(g.vertices))[:-1])  # misses one vertex
    assert not is_hamiltonian_cycle(g, bogus)
    with pytest.raises(ProofError):
        prover_commit(g, bogus, Random(0))


def randrange_shuffle(domain, rng):
    """The reference Fisher-Yates: one ``rng.randrange(i + 1)`` per position."""
    image = list(domain)
    for i in range(len(image) - 1, 0, -1):
        j = rng.randrange(i + 1)
        image[i], image[j] = image[j], image[i]
    return image


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 2**32 - 1), max_size=300, unique=True), st.integers())
def test_random_permutation_matches_the_validating_constructor(vertices, seed):
    # Up to 300 ids, so the draws cross bit lengths 1 to 9.
    rng, replay = Random(seed), Random(seed)
    p = Permutation.random(frozenset(vertices), rng)
    domain = sorted(vertices)
    image = randrange_shuffle(domain, replay)
    assert p == Permutation(tuple(domain), tuple(image))
    assert (p.domain, p.image) == (tuple(domain), tuple(image))
    assert rng.getstate() == replay.getstate()
    assert Permutation.identity(frozenset(vertices)) == Permutation(tuple(domain), tuple(domain))


class DelegatedBits(Random):
    """A ``Random`` whose ``getrandbits`` draws from a second generator and
    whose ``randrange`` refuses to draw."""

    def __init__(self, seed):
        super().__init__(0)
        self.source = Random(seed)

    def getrandbits(self, k):
        return self.source.getrandbits(k)

    def randrange(self, *args):
        raise AssertionError("randrange called")


def test_random_permutation_reads_only_getrandbits():
    vertices = frozenset(range(0, 600, 2))
    rng, replay = DelegatedBits(5), Random(5)
    p = Permutation.random(vertices, rng)
    assert list(p.image) == randrange_shuffle(sorted(vertices), replay)
    assert rng.source.getstate() == replay.getstate()
    assert rng.getstate() == Random(0).getstate()  # nothing read its own generator


def test_honest_prover_checks_its_witness_at_construction():
    g, hc = small_instance()
    bogus = HamiltonianCycle(tuple(sorted(g.vertices))[:-1])
    with pytest.raises(ProofError):
        HonestProver(g, bogus, Random(0))
    detour = HamiltonianCycle(tuple(sorted(g.vertices)))  # visits all, off the edges
    assert not is_hamiltonian_cycle(g, detour)
    with pytest.raises(ProofError):
        HonestProver(g, detour, Random(0))


def test_honest_prover_commits_as_prover_commit_does():
    g, hc = build_initial_graph(32, 64, Random(3))
    prover = HonestProver(g, hc, Random(8))
    reference = Random(8)
    for challenge in (1, 0) * 20:
        com = prover.next_commitment()
        secret, expected = prover_commit(g, hc, reference)
        assert com == expected
        if challenge == 1:
            assert prover.answer(1).permutation == secret.permutation
        else:
            opened = prover.answer(0)
            assert opened == prover_respond(secret, 0)
            assert encode_graph(opened.permuted_graph) == encode_graph(secret.permuted_graph)
    assert prover._rng.getstate() == reference.getstate()


def test_the_relabeled_graph_is_built_only_when_challenge_zero_opens_it(monkeypatch):
    g, hc = build_initial_graph(32, 64, Random(3))
    prover = HonestProver(g, hc, Random(8))
    built = []
    trusted = Graph._trusted.__func__
    monkeypatch.setattr(Graph, "_trusted", classmethod(
        lambda cls, *args: built.append(args) or trusted(cls, *args)))
    for challenge in (1, 0, 1, 1, 0):
        com = prover.next_commitment()
        secret = prover._secret
        assert "permuted_graph" not in vars(secret)  # decoded only on first access
        response = prover.answer(challenge)
        assert verifier_check(g, com, challenge, response) == (True, None)
        if challenge == 1:
            # Neither the commitment nor its check built a relabeled edge set.
            assert "permuted_graph" not in vars(secret)
            assert built == []
            continue
        opened = response.permuted_graph
        assert len(built) == 1 and opened is secret.permuted_graph
        assert opened._encoding is secret.graph_encoding
        assert digest(secret.graph_encoding) == com.graph_digest
        assert is_hamiltonian_cycle(opened, response.permuted_cycle)
        assert opened == apply_permutation(g, hc, secret.permutation)[0]
        built.clear()  # the reference relabel built one more


def test_respond_picks_the_matching_variant():
    g, hc = small_instance()
    secret, _ = prover_commit(g, hc, Random(4))
    assert isinstance(prover_respond(secret, 0), RevealCycle)
    assert isinstance(prover_respond(secret, 1), RevealPermutation)


def test_both_responses_jointly_reconstruct_the_secret():
    # Harness-only: protocol paths must never answer both challenges for one
    # commitment, precisely because this reconstruction works.
    g, hc = small_instance()
    secret, _ = prover_commit(g, hc, Random(4))
    opened = prover_respond(secret, 0)
    relabeling = prover_respond(secret, 1).permutation
    _, recovered = apply_permutation(
        opened.permuted_graph, opened.permuted_cycle, relabeling.inverse()
    )
    assert recovered == hc


# ---------------------------------------------------------------------------
# verifier_check
# ---------------------------------------------------------------------------

def test_honest_round_accepts_both_branches():
    g, hc = small_instance()
    for challenge in (0, 1):
        secret, com = prover_commit(g, hc, Random(7))
        ok, reason = verifier_check(g, com, challenge, prover_respond(secret, challenge))
        assert ok, reason


def test_committing_to_a_different_graph_fails_only_challenge_one():
    g, hc = small_instance()
    cheater = OneBranchCheater(g, Random(3))
    com = cheater._fake_com
    ok, _ = verifier_check(g, com, 0, RevealCycle(cheater._fake_graph, cheater._fake_cycle))
    assert ok
    ok, reason = verifier_check(
        g, com, 1, RevealPermutation(Permutation.identity(g.vertices))
    )
    assert not ok and reason == "digest mismatch"


def test_reject_reasons():
    g, hc = small_instance()
    secret, com = prover_commit(g, hc, Random(7))
    tampered = Commitment(bytes(32), com.cycle_digest)
    ok, reason = verifier_check(g, tampered, 0, prover_respond(secret, 0))
    assert (ok, reason) == (False, "digest mismatch")
    ok, reason = verifier_check(g, com, 1, prover_respond(secret, 0))
    assert (ok, reason) == (False, "variant/challenge mismatch")
    foreign = Permutation.identity({1000, 1001, 1002})
    ok, reason = verifier_check(g, com, 1, RevealPermutation(foreign))
    assert (ok, reason) == (False, "permutation domain mismatch")


@pytest.mark.parametrize("challenge", [0, 1])
def test_a_bare_tuple_posing_as_a_response_is_rejected(challenge):
    # A response equals any tuple of its values; the verifier tells the two
    # branches apart by type, so the honest values in a plain tuple fail.
    g, hc = small_instance()
    secret, com = prover_commit(g, hc, Random(7))
    response = prover_respond(secret, challenge)
    assert verifier_check(g, com, challenge, response) == (True, None)
    posing = tuple(response)
    assert posing == response
    assert verifier_check(g, com, challenge, posing) == (False, "variant/challenge mismatch")


def test_opened_instance_without_a_cycle_is_rejected():
    g, hc = small_instance()
    path = Graph(frozenset({0, 1, 2}), frozenset({(0, 1), (1, 2)}))
    broken = HamiltonianCycle((0, 1, 2))
    com = Commitment(digest(encode_graph(path)), digest(encode_cycle(broken)))
    ok, reason = verifier_check(g, com, 0, RevealCycle(path, broken))
    assert (ok, reason) == (False, "not a Hamiltonian cycle")


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=-1, max_value=2),
    st.binary(min_size=32, max_size=32),
    st.binary(min_size=32, max_size=32),
    st.integers(),
    st.booleans(),
)
def test_verifier_is_total_on_hostile_input(challenge, d1, d2, seed, reveal_cycle):
    g, hc = small_instance()
    rng = Random(seed)
    com = Commitment(d1, d2)
    if reveal_cycle:
        fake_g, fake_hc = build_initial_graph(6, 6, rng)
        response = RevealCycle(fake_g, fake_hc)
    else:
        response = RevealPermutation(Permutation.random(g.vertices, rng))
    ok, reason = verifier_check(g, com, challenge, response)
    assert isinstance(ok, bool)
    assert ok or isinstance(reason, str)


def test_unencodable_ids_in_a_response_are_rejected_not_raised():
    g, hc = small_instance()
    secret, com = prover_commit(g, hc, Random(7))
    p = secret.permutation
    # The constructor admits 7.0 for 7, since the sorted image equals the domain.
    floated = Permutation(p.domain, tuple(float(v) if v == 7 else v for v in p.image))
    assert verifier_check(g, com, 1, RevealPermutation(floated)) == (
        False, "unencodable response"
    )
    beyond = Graph(secret.permuted_graph.vertices | {2**32}, secret.permuted_graph.edges)
    assert verifier_check(g, com, 0, RevealCycle(beyond, secret.permuted_cycle)) == (
        False, "unencodable response"
    )


HOSTILE_IDS = st.sampled_from([-1, 2**32, 2**64, 1.5, 7.0, True])


@st.composite
def hostile_responses(draw, secret):
    """A response that bends one part of an honest one: an image entry, the
    domain, a vertex or edge endpoint of the opened graph, or a cycle entry."""
    p, pg, pc = secret.permutation, secret.permuted_graph, secret.permuted_cycle
    kind = draw(st.sampled_from(["image", "domain", "vertex", "endpoint", "cycle"]))
    if kind == "image":
        floats = draw(st.sets(st.sampled_from(p.domain)))
        image = tuple(float(v) if v in floats else v for v in p.image)
        return RevealPermutation(Permutation(p.domain, image))
    if kind == "domain":
        domain = draw(st.lists(
            st.integers(-2, 2**33) | HOSTILE_IDS, min_size=1, max_size=10, unique=True
        ))
        image = draw(st.permutations(domain))
        return RevealPermutation(Permutation(tuple(domain), tuple(image)))
    if kind == "vertex":
        extra = draw(HOSTILE_IDS | st.just("7"))
        return RevealCycle(Graph(pg.vertices | {extra}, pg.edges), pc)
    if kind == "endpoint":
        u, v = draw(st.sampled_from(sorted(pg.edges)))
        edges = (pg.edges - {(u, v)}) | {(float(u), v)}
        return RevealCycle(Graph(pg.vertices, edges), pc)
    order = list(pc.order)
    order[draw(st.integers(0, len(order) - 1))] = draw(HOSTILE_IDS)
    return RevealCycle(pg, HamiltonianCycle(tuple(order)))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 1), st.integers(), st.data())
def test_verifier_is_total_on_unencodable_and_mismatched_responses(challenge, seed, data):
    g, hc = small_instance()
    secret, com = prover_commit(g, hc, Random(seed))
    response = data.draw(hostile_responses(secret))
    ok, reason = verifier_check(g, com, challenge, response)
    assert isinstance(ok, bool)
    assert ok or isinstance(reason, str)
    # Only a bent part that still equals the honest one can pass: ``True`` for 1.
    if ok:
        assert response == prover_respond(secret, challenge)


def reference_check_one(public_graph, com, permutation):
    """Challenge 1 checked through a dict relabel and a tuple-sort encoding."""
    if frozenset(permutation.domain) != public_graph.vertices:
        return False, "permutation domain mismatch"
    mapping = dict(zip(permutation.domain, permutation.image))
    vertices = sorted(public_graph.vertices)
    edges = sorted(tuple(sorted((mapping[u], mapping[v]))) for u, v in public_graph.edges)
    try:
        encoding = (bytes([ENCODING_VERSION])
                    + struct.pack(f">I{len(vertices)}I", len(vertices), *vertices)
                    + struct.pack(f">I{2 * len(edges)}I", len(edges), *(x for e in edges for x in e)))
    except struct.error:
        return False, "unencodable response"
    if digest(encoding) != com.graph_digest:
        return False, "digest mismatch"
    return True, None


@st.composite
def challenge_one_permutations(draw, secret, g):
    """Honest, foreign (another relabeling or another vertex set) or hostile."""
    kind = draw(st.sampled_from(["honest", "other", "foreign", "hostile"]))
    if kind == "honest":
        return secret.permutation
    if kind == "other":
        domain = sorted(g.vertices)
        return Permutation(tuple(domain), tuple(draw(st.permutations(domain))))
    if kind == "foreign":
        vertices = draw(st.sets(st.integers(0, 2**32 - 1), max_size=10))
        return Permutation.random(vertices, draw(st.randoms(use_true_random=False)))
    response = draw(hostile_responses(secret).filter(lambda r: isinstance(r, RevealPermutation)))
    return response.permutation


@settings(max_examples=300, deadline=None)
@given(st.integers(), st.data())
def test_challenge_one_check_matches_an_independent_relabel_reference(seed, data):
    g, hc = small_instance()
    secret, com = prover_commit(g, hc, Random(seed))
    permutation = data.draw(challenge_one_permutations(secret, g))
    expected = reference_check_one(g, com, permutation)
    assert verifier_check(g, com, 1, RevealPermutation(permutation)) == expected
    if permutation is secret.permutation:
        assert expected == (True, None)


# ---------------------------------------------------------------------------
# run_proof
# ---------------------------------------------------------------------------

def test_honest_proof_accepts_twenty_rounds():
    g, hc = small_instance()
    rng = Random(11)
    result = run_proof(g, HonestProver(g, hc, rng), 20, rng)
    assert result.accepted and result.rounds_completed == 20


@pytest.mark.parametrize("seed", range(5))
def test_completeness_across_sizes_and_seeds(seed):
    rng = Random(seed)
    n = 8 + 7 * seed
    g, hc = build_initial_graph(n, 2 * n, rng)
    assert run_proof(g, HonestProver(g, hc, rng), 20, rng).accepted


def test_cheater_single_round_rate_is_about_half():
    g, hc = small_instance()
    rng = Random(23)
    cheater = OneBranchCheater(g, rng)
    accepted = sum(run_proof(g, cheater, 1, rng).accepted for _ in range(2000))
    assert abs(accepted / 2000 - 0.5) < 0.05


def test_proof_stops_at_first_rejection():
    g, hc = small_instance()
    rng = Random(29)
    cheater = OneBranchCheater(g, rng)
    result = run_proof(g, cheater, 50, rng)
    assert not result.accepted
    assert result.failed_round == result.rounds_completed <= 50
    assert result.reason in {"digest mismatch", "variant/challenge mismatch"}


def test_round_count_must_be_positive():
    g, hc = small_instance()
    rng = Random(1)
    with pytest.raises(ProofError):
        run_proof(g, HonestProver(g, hc, rng), 0, rng)


# ---------------------------------------------------------------------------
# Hiding and transcripts
# ---------------------------------------------------------------------------

def test_permutation_reveal_carries_nothing_but_the_permutation():
    assert set(RevealPermutation._fields) == {"permutation"}


def test_challenge_one_response_is_witness_independent():
    # Two different instances over the same vertex set, same relabeling: the
    # challenge-1 response bytes are identical, i.e. they carry no function
    # of the secret cycle at all.
    from gasman.zkp import encode_response

    g1, hc1 = small_instance(seed=5)
    g2, hc2 = small_instance(seed=6)
    assert (g1, hc1) != (g2, hc2)
    p = Permutation.random(g1.vertices, Random(1))
    secret1, _ = commitment_for(g1, hc1, p)
    secret2, _ = commitment_for(g2, hc2, p)
    assert encode_response(prover_respond(secret1, 1)) == encode_response(
        prover_respond(secret2, 1)
    )


def test_golden_transcript_round_trip():
    g, hc = small_instance(seed=42)
    rng = Random(1234)
    transcript = []
    result = run_proof(g, HonestProver(g, hc, rng), 5, rng, transcript=transcript)
    assert result.accepted and len(transcript) == 5
    blob = encode_transcript(transcript)
    # Frozen from this deterministic configuration; any change to the canonical
    # encodings, the draw order, or the hash breaks this digest.
    assert hashlib.sha256(blob).hexdigest() == (
        "7dbe52aaafd14ead20cd92db7562b3f5703b0d389a417004019bcc35a47ac11f"
    )
    # Every recorded round must re-verify against the public graph.
    for row in transcript:
        ok, _ = verifier_check(g, row.commitment, row.challenge, row.response)
        assert ok


def _benchmark_instance():
    return build_initial_graph(128, 256, Random("instance:1"))


def test_golden_honest_transcript_on_the_benchmark_instance():
    g, hc = _benchmark_instance()
    rng = Random("transcript:1")
    transcript = []
    result = run_proof(g, HonestProver(g, hc, rng), 20, rng, transcript=transcript)
    assert result.accepted and len(transcript) == 20
    # Pins the permutation draws, the relabeling and the graph encoding at n = 128.
    assert hashlib.sha256(encode_transcript(transcript)).hexdigest() == (
        "a72187133a1628cecfb70c2c6031835741ce969b924f38aa0727bc340ff1c197"
    )


@pytest.mark.parametrize("seed, rounds, expected", [
    # One round: a guessed 0 met by challenge 1, answered with the identity.
    ("transcript:1", 1,
     "f9f60d52e823cab3e61ce65f4fb8a970d6d97a0dc1221cd5fb45cf0b3f9de3c2"),
    # A challenge-0 round and two challenge-1 rounds on a random relabeling
    # pass, then the identity answer fails.
    ("transcript:16", 4,
     "330d21df10f64bbef49fd8f32a327d76aff9c4bbdc3d8c68e850c1a490282e5f"),
])
def test_golden_cheater_transcript_on_the_benchmark_instance(seed, rounds, expected):
    g, _ = _benchmark_instance()
    rng = Random(seed)
    transcript = []
    result = run_proof(g, OneBranchCheater(g, rng), 20, rng, transcript=transcript)
    assert not result.accepted and result.rounds_completed == rounds
    assert result.reason == "digest mismatch"
    assert hashlib.sha256(encode_transcript(transcript)).hexdigest() == expected
