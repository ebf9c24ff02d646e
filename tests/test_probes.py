"""The benchmark's layer probes still see every call they count.

``perfbench/tracer.py`` wraps gasman's functions at the module bindings the
other layers call through, matched by object identity.  A function moved out
from under its probe is no error there: its count just reads 0 in a traced
run.  This test loads the tracer as it stands, traces two fixed runs, checks
that tracing moves no output byte, and pins each probed count, so such a move
fails here.
"""

import types
from pathlib import Path

import pytest

import gasman
from gasman import simulator, zkp
from gasman.scenario import ChurnConfig, GeometricConfig, ScenarioConfig

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer() -> types.ModuleType:
    # Compiled from its source, so that no bytecode is written beside it.
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def outputs(result) -> tuple[bytes, bytes]:
    return result.trace_text().encode(), result.metrics.to_json().encode()


# Each run inserts, deletes and re-admits members, so every probed path runs.
# The radio walks its nodes leg by leg, so no run calls ``step_mobility``.
@pytest.mark.parametrize("connectivity, expected", [
    (GeometricConfig(500.0, 20.0, 0.5, 250.0, 5.0), {
        "simulator.broadcast_deliver": 138, "simulator.reachable": 248,
        "simulator.step_mobility": 0, "simulator.events.popped": 845,
        "graph.splice_insert": 82, "graph.splice_delete": 41,
        "protocol.apply_update_record": 179, "graph.encode_graph": 52,
        "graph.encode_cycle": 36, "zkp.encode_response": 10,
    }),
    ("full_mesh", {
        "simulator.broadcast_deliver": 105, "simulator.reachable": 143,
        "simulator.step_mobility": 0, "simulator.events.popped": 537,
        "graph.splice_insert": 51, "graph.splice_delete": 48,
        "protocol.apply_update_record": 151, "graph.encode_graph": 41,
        "graph.encode_cycle": 30, "zkp.encode_response": 10,
    }),
])
def test_every_probe_counts_the_calls_of_a_fixed_run(connectivity, expected):
    cfg = ScenarioConfig(
        n_initial=12, m=24, T=5.0, l=5, duration=40.0, seed=1,
        churn=ChurnConfig(0.2, 0.2, 0.2), connectivity=connectivity,
    )
    untraced = outputs(simulator.run_scenario(cfg))
    tracer = load_tracer()
    rec = tracer.Recorder()
    probes = tracer.Probes(rec)
    try:
        probes.install()
        traced = outputs(simulator.run_scenario(cfg))
    finally:
        probes.uninstall()
    assert traced == untraced
    counts = {
        "simulator.broadcast_deliver": rec.calls["simulator.broadcast_deliver"],
        "simulator.reachable": rec.counts["simulator.reachable.calls"],
        "simulator.step_mobility": rec.calls["simulator.step_mobility"],
        "simulator.events.popped": rec.counts["simulator.events.popped"],
        "graph.splice_insert": rec.calls["graph.splice_insert"],
        "graph.splice_delete": rec.calls["graph.splice_delete"],
        "protocol.apply_update_record": rec.calls["protocol.apply_update_record"],
        "graph.encode_graph": rec.calls["graph.encode_graph"],
        "graph.encode_cycle": rec.calls["graph.encode_cycle"],
        "zkp.encode_response": rec.calls["zkp.encode_response"],
    }
    assert counts == expected


def test_no_probe_outlives_the_probes_through_the_package():
    # ``gasman`` reads an exported name through its module on every access.
    # Had it kept the probe it read while the probes were installed, that
    # binding would be one the tracer never saw, and ``uninstall`` would
    # leave it wrapped.
    tracer = load_tracer()
    probes = tracer.Probes(tracer.Recorder())
    try:
        probes.install()
        probed = [gasman.run_scenario, gasman.run_proof]
    finally:
        probes.uninstall()
    assert [fn.__wrapped__ for fn in probed] == [simulator.run_scenario, zkp.run_proof]
    assert gasman.run_scenario is simulator.run_scenario
    assert gasman.run_proof is zkp.run_proof
    assert {"run_scenario", "run_proof"}.isdisjoint(vars(gasman))
