"""Self-organized authentication for mobile ad-hoc networks.

A group of nodes shares a public graph whose secret Hamiltonian cycle acts as
the network key.  Members prove knowledge of the cycle through an interactive
zero-knowledge protocol; insertions and deletions splice the graph and cycle
locally so every replica stays byte-identical.  A deterministic discrete-event
simulator drives the whole life-cycle under churn and mobility.
"""

from .graph import (
    Graph,
    GraphError,
    HamiltonianCycle,
    NodeId,
    Permutation,
    apply_permutation,
    assign_new_id,
    build_initial_graph,
    encode_cycle,
    encode_graph,
    encode_permutation,
    is_hamiltonian_cycle,
    locate_insertion_pair,
    neighbor_set_for_insert,
    splice_delete,
    splice_insert,
)
from .protocol import (
    NodeState,
    ProtocolConfig,
    ProtocolError,
    Replica,
    access_control,
    apply_deletion_update,
    apply_insertion_update,
    authenticator_insert,
    check_termination,
    detect_sybil,
    proof_of_life_cycle,
)
from .radio import TrafficMetrics
from .scenario import ChurnConfig, GeometricConfig, ScenarioConfig, ScenarioError
from .simulator import run_scenario
from .zkp import (
    Commitment,
    HonestProver,
    OneBranchCheater,
    ProofResult,
    digest,
    prover_commit,
    prover_respond,
    run_proof,
    verifier_check,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "GraphError",
    "HamiltonianCycle",
    "NodeId",
    "Permutation",
    "apply_permutation",
    "assign_new_id",
    "build_initial_graph",
    "encode_cycle",
    "encode_graph",
    "encode_permutation",
    "is_hamiltonian_cycle",
    "locate_insertion_pair",
    "neighbor_set_for_insert",
    "splice_delete",
    "splice_insert",
    "NodeState",
    "ProtocolConfig",
    "ProtocolError",
    "Replica",
    "access_control",
    "apply_deletion_update",
    "apply_insertion_update",
    "authenticator_insert",
    "check_termination",
    "detect_sybil",
    "proof_of_life_cycle",
    "ChurnConfig",
    "GeometricConfig",
    "ScenarioConfig",
    "ScenarioError",
    "TrafficMetrics",
    "run_scenario",
    "Commitment",
    "HonestProver",
    "OneBranchCheater",
    "ProofResult",
    "digest",
    "prover_commit",
    "prover_respond",
    "run_proof",
    "verifier_check",
]
