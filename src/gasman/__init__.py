"""Self-organized authentication for mobile ad-hoc networks.

A group of nodes shares a public graph whose secret Hamiltonian cycle acts as
the network key.  Members prove knowledge of the cycle through an interactive
zero-knowledge protocol; insertions and deletions splice the graph and cycle
locally so every replica stays byte-identical.  A deterministic discrete-event
simulator drives the whole life-cycle under churn and mobility.

Modules load by need: ``import gasman`` loads none of them, and reading an
exported name or a submodule imports the module that owns it, through which
the name is read again on every access (so a probe that rebinds it is seen).
"""

import importlib

__version__ = "0.1.0"

# Each module and the names it exports; ``__all__`` and the lookups below
# are read from this one table.
_EXPORTS = {
    "graph": ("Graph", "GraphError", "HamiltonianCycle", "NodeId", "Permutation",
              "apply_permutation", "assign_new_id", "build_initial_graph", "encode_cycle",
              "encode_graph", "encode_permutation", "is_hamiltonian_cycle",
              "locate_insertion_pair", "neighbor_set_for_insert", "splice_delete",
              "splice_insert"),
    "protocol": ("NodeState", "ProtocolConfig", "ProtocolError", "Replica", "access_control",
                 "apply_deletion_update", "apply_insertion_update", "authenticator_insert",
                 "check_termination", "detect_sybil", "proof_of_life_cycle"),
    "scenario": ("ChurnConfig", "GeometricConfig", "ScenarioConfig", "ScenarioError"),
    "radio": ("TrafficMetrics",),
    "simulator": ("run_scenario",),
    "zkp": ("Commitment", "HonestProver", "OneBranchCheater", "ProofResult", "digest",
            "prover_commit", "prover_respond", "run_proof", "verifier_check"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_OWNER)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _OWNER:
        return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
