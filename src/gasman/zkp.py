"""Interactive zero-knowledge access control over the shared secret cycle.

A supplicant proves knowledge of the secret Hamiltonian cycle of a public
graph without revealing it.  Each round it commits to a freshly relabeled
copy of the instance; the verifier's one-bit challenge then asks either to
open the relabeled instance (showing a valid cycle in *some* graph matching
the commitment) or to reveal the relabeling (showing the committed graph
really is the public one).  A prover lacking the cycle can prepare for only
one of the two questions, so each round halves its chance of slipping
through; ``rounds`` independent repetitions push that to ``2**-rounds``.

Commitments are SHA-256 digests of the canonical byte encodings, so they are
bit-exact across processes and platforms.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from random import Random
from typing import Optional, Protocol, Union

from .graph import (
    Graph,
    GraphError,
    HamiltonianCycle,
    Permutation,
    PermutationDomainMismatch,
    apply_permutation,
    encode_cycle,
    encode_graph,
    encode_permutation,
    is_hamiltonian_cycle,
    permute_graph,
)

DIGEST_SIZE = 32

#: Round count used when the peers do not negotiate one (2**-20 soundness).
DEFAULT_ROUNDS = 20


class ProofError(ValueError):
    """Raised when the honest-prover API is used without a valid witness."""


def digest(data: bytes) -> bytes:
    """The protocol's public hash: SHA-256 over a canonical encoding."""
    return hashlib.sha256(data).digest()


@dataclass(frozen=True)
class Commitment:
    """Digests binding one round's relabeled graph and relabeled cycle."""

    graph_digest: bytes
    cycle_digest: bytes


@dataclass(frozen=True)
class RoundSecret:
    """Prover-side state for one round; must never cross the wire."""

    permutation: Permutation
    permuted_graph: Graph
    permuted_cycle: HamiltonianCycle


@dataclass(frozen=True)
class RevealCycle:
    """Challenge-0 response: open the committed relabeled instance."""

    permuted_graph: Graph
    permuted_cycle: HamiltonianCycle


@dataclass(frozen=True)
class RevealPermutation:
    """Challenge-1 response: reveal the relabeling, nothing else."""

    permutation: Permutation


Response = Union[RevealCycle, RevealPermutation]


def commitment_for(g: Graph, hc: HamiltonianCycle, p: Permutation) -> tuple[RoundSecret, Commitment]:
    """Deterministic core of :func:`prover_commit` for a fixed permutation."""
    permuted_graph, permuted_cycle = apply_permutation(g, hc, p)
    com = Commitment(
        digest(encode_graph(permuted_graph)),
        digest(encode_cycle(permuted_cycle)),
    )
    return RoundSecret(p, permuted_graph, permuted_cycle), com


def prover_commit(
    g: Graph, hc: HamiltonianCycle, rng: Random
) -> tuple[RoundSecret, Commitment]:
    """Draw a uniform relabeling of the witness and commit to its digests."""
    if not is_hamiltonian_cycle(g, hc):
        raise ProofError("prover lacks valid cycle")
    return commitment_for(g, hc, Permutation.random(g.vertices, rng))


def prover_respond(secret: RoundSecret, challenge: int) -> Response:
    """Answer one branch only; the other stays hidden for this commitment."""
    if challenge == 0:
        return RevealCycle(secret.permuted_graph, secret.permuted_cycle)
    return RevealPermutation(secret.permutation)


def verifier_check(
    public_graph: Graph,
    com: Commitment,
    challenge: int,
    response: Response,
) -> tuple[bool, Optional[str]]:
    """Check one round.  Total on hostile input: always (accepted, reason).

    Challenge 0 accepts iff both revealed objects hash to the commitment and
    the revealed cycle is a valid Hamiltonian cycle of the revealed graph.
    Challenge 1 accepts iff relabeling the public graph through the revealed
    permutation reproduces the committed graph digest.  A response holding an
    id with no encoding is rejected as unencodable.
    """
    # The public constructors admit ids that cannot be packed, so encoding a
    # response can fail: ``7.0`` equals the vertex ``7``, and ``Graph`` does
    # not bound its ids.
    if challenge == 0:
        if not isinstance(response, RevealCycle):
            return False, "variant/challenge mismatch"
        try:
            if digest(encode_graph(response.permuted_graph)) != com.graph_digest:
                return False, "digest mismatch"
            if digest(encode_cycle(response.permuted_cycle)) != com.cycle_digest:
                return False, "digest mismatch"
        except GraphError:
            return False, "unencodable response"
        if not is_hamiltonian_cycle(response.permuted_graph, response.permuted_cycle):
            return False, "not a Hamiltonian cycle"
        return True, None
    if challenge == 1:
        if not isinstance(response, RevealPermutation):
            return False, "variant/challenge mismatch"
        try:
            relabeled = permute_graph(public_graph, response.permutation)
        except PermutationDomainMismatch:
            return False, "permutation domain mismatch"
        except GraphError:
            return False, "unencodable response"
        if digest(encode_graph(relabeled)) != com.graph_digest:
            return False, "digest mismatch"
        return True, None
    return False, "variant/challenge mismatch"


class Prover(Protocol):
    """Anything that can play the supplicant side of the proof."""

    def next_commitment(self) -> Commitment: ...

    def answer(self, challenge: int) -> Response: ...


class HonestProver:
    """Supplicant holding the real witness."""

    def __init__(self, graph: Graph, cycle: HamiltonianCycle, rng: Random):
        if not is_hamiltonian_cycle(graph, cycle):
            raise ProofError("prover lacks valid cycle")
        self._graph = graph
        self._cycle = cycle
        self._rng = rng
        self._secret: Optional[RoundSecret] = None

    def next_commitment(self) -> Commitment:
        # The witness was checked once, in ``__init__``; graph and cycle are immutable.
        p = Permutation.random(self._graph.vertices, self._rng)
        self._secret, com = commitment_for(self._graph, self._cycle, p)
        return com

    def answer(self, challenge: int) -> Response:
        if self._secret is None:
            raise ProofError("no outstanding commitment")
        secret, self._secret = self._secret, None
        return prover_respond(secret, challenge)


class OneBranchCheater:
    """Adversarial harness: guesses the challenge and prepares only that branch.

    For a guessed 0 it commits to a *different* graph in which it knows a
    cycle; for a guessed 1 it commits to an honestly relabeled public graph
    with a junk cycle digest.  Either way it survives a round exactly when
    the guess matches the verifier's bit, i.e. with probability 1/2.
    """

    def __init__(self, public_graph: Graph, rng: Random):
        self._public = public_graph
        self._rng = rng
        vertices = frozenset(public_graph.vertices)
        n = len(vertices)
        while True:
            draw = Permutation.random(vertices, rng)
            fake_cycle = HamiltonianCycle(tuple(draw.image))
            fake_edges = frozenset(
                tuple(sorted((fake_cycle.order[i], fake_cycle.order[(i + 1) % n])))
                for i in range(n)
            )
            # A cheater must not hold an actual witness for the public graph.
            if fake_edges != public_graph.edges:
                break
        self._fake_graph = Graph(vertices, fake_edges)
        self._fake_cycle = fake_cycle
        self._fake_com = Commitment(
            digest(encode_graph(self._fake_graph)),
            digest(encode_cycle(self._fake_cycle)),
        )
        self._guess = 0
        self._permutation: Optional[Permutation] = None

    def next_commitment(self) -> Commitment:
        self._guess = self._rng.randrange(2)
        if self._guess == 0:
            return self._fake_com
        self._permutation = Permutation.random(self._public.vertices, self._rng)
        relabeled = permute_graph(self._public, self._permutation)
        return Commitment(digest(encode_graph(relabeled)), bytes(DIGEST_SIZE))

    def answer(self, challenge: int) -> Response:
        if challenge == 0:
            # Right content only if the guess was 0; otherwise digests mismatch.
            return RevealCycle(self._fake_graph, self._fake_cycle)
        if self._permutation is not None and self._guess == 1:
            return RevealPermutation(self._permutation)
        return RevealPermutation(Permutation.identity(self._public.vertices))


@dataclass(frozen=True)
class TranscriptRound:
    commitment: Commitment
    challenge: int
    response: Response


@dataclass(frozen=True)
class ProofResult:
    accepted: bool
    rounds_completed: int
    failed_round: Optional[int] = None
    reason: Optional[str] = None


def run_proof(
    public_graph: Graph,
    prover: Prover,
    rounds: int,
    rng: Random,
    transcript: Optional[list[TranscriptRound]] = None,
) -> ProofResult:
    """Drive ``rounds`` sequential commit/challenge/respond/check exchanges.

    Challenges are independent fair bits from ``rng``.  The proof accepts only
    if every round accepts and stops at the first rejecting round.
    """
    if rounds < 1:
        raise ProofError("round count must be at least 1")
    for j in range(1, rounds + 1):
        com = prover.next_commitment()
        challenge = rng.randrange(2)
        response = prover.answer(challenge)
        if transcript is not None:
            transcript.append(TranscriptRound(com, challenge, response))
        accepted, reason = verifier_check(public_graph, com, challenge, response)
        if not accepted:
            return ProofResult(False, j, failed_round=j, reason=reason)
    return ProofResult(True, rounds)


# ---------------------------------------------------------------------------
# Transcript record format (test-fixture interchange)
# ---------------------------------------------------------------------------

_RESPONSE_TAG_CYCLE = 0x00
_RESPONSE_TAG_PERMUTATION = 0x01


def encode_response(response: Response) -> bytes:
    if isinstance(response, RevealCycle):
        return (
            bytes([_RESPONSE_TAG_CYCLE])
            + encode_graph(response.permuted_graph)
            + encode_cycle(response.permuted_cycle)
        )
    return bytes([_RESPONSE_TAG_PERMUTATION]) + encode_permutation(response.permutation)


def encode_transcript(rounds: list[TranscriptRound]) -> bytes:
    """Sequence of rounds: 2x32-byte commitment, 1-byte challenge, response."""
    out = [struct.pack(">I", len(rounds))]
    for r in rounds:
        out.append(r.commitment.graph_digest)
        out.append(r.commitment.cycle_digest)
        out.append(bytes([r.challenge]))
        out.append(encode_response(r.response))
    return b"".join(out)
