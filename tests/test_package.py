"""What ``import gasman`` loads, and how the package resolves its names.

The package loads a module only when one of its names or the module itself
is first read.  The checks run in one fresh interpreter, since a test run has
loaded every module long before this file's tests start.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Every name the package exports, by the module that defines it.
EXPORTED = {
    "graph": """Graph GraphError HamiltonianCycle NodeId Permutation apply_permutation
        assign_new_id build_initial_graph encode_cycle encode_graph encode_permutation
        is_hamiltonian_cycle locate_insertion_pair neighbor_set_for_insert splice_delete
        splice_insert""".split(),
    "protocol": """NodeState ProtocolConfig ProtocolError Replica access_control
        apply_deletion_update apply_insertion_update authenticator_insert check_termination
        detect_sybil proof_of_life_cycle""".split(),
    "radio": ["TrafficMetrics"],
    "scenario": ["ChurnConfig", "GeometricConfig", "ScenarioConfig", "ScenarioError"],
    "simulator": ["run_scenario"],
    "zkp": """Commitment HonestProver OneBranchCheater ProofResult digest prover_commit
        prover_respond run_proof verifier_check""".split(),
}

CHILD = """
import importlib, json, sys

def loaded():
    return sorted(name for name in sys.modules if name.startswith("gasman."))

exported = json.loads(sys.argv[1])
report = {}
import gasman
report["import"] = loaded()
gasman.build_initial_graph, gasman.HonestProver
report["proof set-up"] = loaded()
gasman.NodeState
report["node state"] = loaded()
# ``scenario`` loads none of the others, and ``radio`` none but ``simulator``.
report["unloaded submodules"] = [
    name for name in ("scenario", "radio", "simulator") if "gasman." + name not in sys.modules
    and getattr(gasman, name) is sys.modules["gasman." + name]]
report["submodules"] = [name for name in exported if getattr(gasman, name) is sys.modules["gasman." + name]]
report["all"] = gasman.__all__
report["not its module's"] = [
    name for module, names in exported.items() for name in names
    if getattr(gasman, name) is not getattr(importlib.import_module("gasman." + module), name)]
try:
    gasman.nope
    report["unknown name"] = "read"
except AttributeError:
    report["unknown name"] = "AttributeError"
report["dir"] = dir(gasman)
star = {}
exec("from gasman import *", star)
report["star misses"] = [name for name in gasman.__all__ if star.get(name) is not getattr(gasman, name)]
from gasman import simulator
report["from-import"] = simulator is sys.modules["gasman.simulator"]
report["version"] = gasman.__version__
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def report():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(EXPORTED)], env=env,
                          check=True, stdout=subprocess.PIPE, text=True, timeout=60)
    return json.loads(proc.stdout)


def test_importing_the_package_loads_no_module(report):
    assert report["import"] == []


def test_a_name_loads_only_the_modules_it_needs(report):
    assert report["proof set-up"] == ["gasman.graph", "gasman.zkp"]
    assert report["node state"] == ["gasman.graph", "gasman.protocol", "gasman.zkp"]


def test_every_name_is_still_exported_from_its_module(report):
    assert sorted(report["all"]) == sorted(name for names in EXPORTED.values() for name in names)
    assert len(report["all"]) == 42
    assert report["not its module's"] == []
    assert report["version"] == "0.1.0"


def test_submodules_resolve_as_attributes_without_an_import(report):
    assert report["unloaded submodules"] == ["scenario", "radio", "simulator"]
    assert report["submodules"] == list(EXPORTED)
    assert report["from-import"]


def test_an_unknown_name_raises_attribute_error(report):
    assert report["unknown name"] == "AttributeError"


def test_dir_and_star_import_cover_every_export(report):
    assert set(report["all"]) <= set(report["dir"])
    assert report["star misses"] == []
