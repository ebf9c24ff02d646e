"""Engine behavior: determinism, traffic accounting, mobility, partitions."""

import gc
import hashlib
import itertools
import json
import math
import weakref
from dataclasses import replace
from operator import attrgetter
from random import Random

import pytest
from conftest import record_air
from hypothesis import given, settings
from hypothesis import strategies as st
from state_digest import state_digest

from gasman.cli import main as gasman_cli
from gasman.graph import Graph, HamiltonianCycle
from gasman.radio import (
    Radio,
    Reach,
    WaypointState,
    broadcast_deliver,
    flood_components,
    reachable,
    step_mobility,
)
from gasman.scenario import (
    ChurnConfig,
    GeometricConfig,
    ScenarioConfig,
    ScenarioError,
    ScriptedOp,
)
from gasman.simulator import _Engine, _Member, run_scenario


def no_churn_cfg(**overrides):
    base = dict(n_initial=8, m=16, T=5.0, l=10, duration=30.0, seed=7)
    base.update(overrides)
    return ScenarioConfig(**base)


GEO = GeometricConfig(
    area_side=500.0, speed_max=20.0, pause=0.5, data_range=250.0, secure_range=5.0
)


# ---------------------------------------------------------------------------
# Scenario validation and serialization
# ---------------------------------------------------------------------------

def test_config_json_round_trip():
    cfg = ScenarioConfig(
        n_initial=15, m=30, T=10.0, l=20, duration=60.0, seed=9,
        churn=ChurnConfig(0.05, 0.1, 0.1), connectivity=GEO,
        termination_threshold=4, admission_deny_prob=0.2,
        script=(ScriptedOp(time=1.0, op="turn_off", node=3),),
    )
    assert ScenarioConfig.from_json(cfg.to_json()) == cfg


def test_zero_valued_fields_survive_a_json_round_trip():
    # Zero is a value, not an absent field: time 0.0, node 0 and author 0
    # must come back, as must the initial cycle and the neighbor group.
    cfg = no_churn_cfg(
        seed=0,
        initial_cycle=(3, 1, 4, 0, 5, 2, 6, 7),
        script=(
            ScriptedOp(time=0.0, op="insert", node=0, neighbors=(0, 1), author=0),
            ScriptedOp(time=2.0, op="delete", node=0),
        ),
    )
    text = cfg.to_json()
    assert ScenarioConfig.from_json(text) == cfg
    assert ScenarioConfig.from_json(text).to_json() == text


@pytest.mark.parametrize(
    "overrides",
    [
        {"n_initial": 3, "m": 6},
        {"m": 15},                      # 2m/n fractional for n=8
        {"duration": 0.0},
        {"termination_threshold": 2},
        {"churn": ChurnConfig(1.5, 0, 0)},
        {"initial_cycle": (1, 2, 3)},
    ],
)
def test_invalid_configs_rejected_before_any_event(overrides):
    with pytest.raises(ScenarioError):
        no_churn_cfg(**overrides).validate()


def test_malformed_json_rejected():
    with pytest.raises(ScenarioError):
        ScenarioConfig.from_json("{not json")
    with pytest.raises(ScenarioError):
        ScenarioConfig.from_json('{"n_initial": 8}')


FUZZ_DOC = json.loads(
    ScenarioConfig(
        n_initial=8, m=16, T=5.0, l=10, duration=30.0, seed=7,
        churn=ChurnConfig(0.1, 0.1, 0.1), connectivity=GEO,
        initial_cycle=tuple(range(8)),
        script=(ScriptedOp(time=1.0, op="insert", node=9, neighbors=(0, 1), author=2),),
    ).to_json()
)
FUZZ_FIELDS = [
    *((key,) for key in FUZZ_DOC),
    *(("churn", key) for key in FUZZ_DOC["churn"]),
    *(("connectivity", key) for key in FUZZ_DOC["connectivity"]),
    *(("script", 0, key) for key in FUZZ_DOC["script"][0]),
    ("initial_cycle", 0),
    ("script", 0, "neighbors", 0),
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from([2**32, 10**400, -1]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(FUZZ_FIELDS), value=JSON_VALUES)
def test_any_json_value_in_any_field_loads_or_raises_scenario_error(path, value):
    doc = json.loads(json.dumps(FUZZ_DOC))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    try:
        ScenarioConfig.from_json(json.dumps(doc))
    except ScenarioError:
        pass


# ---------------------------------------------------------------------------
# Degenerate and scripted scenarios
# ---------------------------------------------------------------------------

def test_no_churn_scenario_is_pure_proof_of_life():
    result = run_scenario(no_churn_cfg())
    assert result.outcome == "completed"
    assert all("Proof of life" in e.description for e in result.trace[1:])
    shares = result.metrics.shares()
    assert shares["proof_of_life"] == 1.0
    assert result.metrics.total_bytes > 0
    # Membership never changes: only the setup line snapshots the cycle.
    assert [e.hc_snapshot is not None for e in result.trace].count(True) == 1


def test_scripted_splices_reproduce_recorded_cycle_column():
    cfg = ScenarioConfig(
        n_initial=11, m=11, T=1000.0, l=10, duration=80.0, seed=3,
        initial_cycle=(8, 3, 9, 7, 4, 2, 6, 5, 1, 10, 0),
        script=(
            ScriptedOp(time=1.29, op="insert", node=14, neighbors=(4, 2), author=4),
            ScriptedOp(time=64.26, op="delete", node=5),
            ScriptedOp(time=75.41, op="insert", node=13, neighbors=(2, 6), author=14),
        ),
    )
    result = run_scenario(cfg)
    snapshots = [e.hc_snapshot for e in result.trace if e.hc_snapshot]
    from gasman.graph import HamiltonianCycle

    expected = [
        (8, 3, 9, 7, 4, 2, 6, 5, 1, 10, 0),
        (8, 3, 9, 7, 4, 14, 2, 6, 5, 1, 10, 0),
        (8, 3, 9, 7, 4, 14, 2, 6, 1, 10, 0),
        (8, 3, 9, 7, 4, 14, 2, 13, 6, 1, 10, 0),
    ]
    assert [HamiltonianCycle(s).order for s in snapshots] == [
        HamiltonianCycle(e).order for e in expected
    ]


def test_heavy_turn_off_terminates_the_life_cycle():
    cfg = no_churn_cfg(
        churn=ChurnConfig(0.0, 0.9, 0.0), duration=60.0, T=5.0
    )
    result = run_scenario(cfg)
    assert result.outcome == "terminated"
    assert result.terminated_at is not None
    assert "terminated" in result.trace[-1].description


def test_two_simultaneous_initiators_yield_one_summary():
    from gasman.protocol import PolSummary

    eng = _Engine(no_churn_cfg(duration=12.0))
    # Force the race: two expired clocks fire in the same microsecond, before
    # either node can hear the other's first-step broadcast.
    eng._heap.clear()
    eng.now_us = 5_500_000
    air = record_air(eng)
    eng._on_pol_check(3)
    eng._on_pol_check(5)
    assert len(eng.pending_pol) == 2
    eng.run()
    raced = [m for m in air if isinstance(m, PolSummary) and m.window == 1]
    assert len(raced) == 1
    assert raced[0].sender == 3  # same-time tie resolves to the lower id


def test_a_delivery_batch_stops_once_the_network_terminates():
    from gasman.protocol import PolSummary

    eng = _Engine(no_churn_cfg())
    # Six deletions shrink an 8-node replica below the minimum order.
    summary = PolSummary(
        sender=0, stage=eng.nodes[0].stage, sent_at=0.0, window=1,
        alive=frozenset({0, 1}), deletions=frozenset(range(2, 8)),
    )
    eng._on_deliver(summary, (1, 2))
    stops = [e for e in eng.trace if "below minimum order" in e.description]
    assert len(stops) == 1 and eng.terminated_at is not None
    assert eng.nodes[2].graph.order == 8, "the batch went on past termination"


def test_answers_reach_a_window_opened_during_their_hop():
    from gasman.protocol import PolAnswer

    eng = _Engine(no_churn_cfg(duration=12.0))
    eng._heap.clear()
    eng.now_us = 5_500_000
    answer = PolAnswer(
        sender=1, stage=eng.nodes[1].stage, sent_at=5.5, claimed_id=1, window=1
    )
    eng._broadcast(answer)
    eng._on_pol_check(3)  # node 3 starts collecting while the answer is in flight
    (msg, recipients), = [p for *_, p in eng._heap if p and p[0] is answer]
    eng._on_deliver(msg, recipients)
    assert list(eng.pending_pol[3].answers) == [1]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), max_size=8))
def test_the_initiator_keeps_the_first_answer_of_each_unflagged_sender(stream):
    from gasman.protocol import PolAnswer, detect_sybil

    cfg = no_churn_cfg(duration=12.0)
    eng = _Engine(cfg)
    eng._heap.clear()
    eng.now_us = 5_500_000
    eng._on_pol_check(0)
    window = eng.pending_pol[0].window
    answers = [
        PolAnswer(sender=s, stage=0, sent_at=5.5 + i / 1000, claimed_id=c, window=window)
        for i, (s, c) in enumerate(stream)
    ]
    for answer in answers:
        eng._on_deliver(answer, (0,))
    flagged = detect_sybil(_Engine(cfg).nodes[0], answers)
    assert eng.nodes[0].sybil_flags == flagged
    first = {}
    for answer in answers:
        first.setdefault(answer.sender, answer)
    kept = {s: a for s, a in first.items() if s not in flagged}
    assert eng.pending_pol[0].answers == kept


def test_merging_partitions_flag_a_duplicate_id_in_a_benign_run():
    # Partitions that merge leave honest authenticators proposing ids other
    # replicas already hold; the frozen bytes pin where the flags fire.
    cfg = ScenarioConfig(
        n_initial=12, m=24, T=5.0, l=5, duration=100.0, seed=0,
        churn=ChurnConfig(0.3, 0.2, 0.2),
        connectivity=GeometricConfig(500.0, 20.0, 0.5, 250.0, 5.0),
    )
    eng = _Engine(cfg)
    result = eng.run()
    flags = {v: sorted(s.sybil_flags) for v, s in eng.nodes.items() if s.sybil_flags}
    assert flags == {5: [10], 11: [10], 15: [10]}
    trace_sha = hashlib.sha256(result.trace_text().encode("utf-8")).hexdigest()
    metrics_sha = hashlib.sha256(result.metrics.to_json().encode("utf-8")).hexdigest()
    assert trace_sha == "c9e20f60b1fa39dd77b83af2c837e32a657b7fc876b59117e5c2d3c313e5f886"
    assert metrics_sha == "a6f6aa6d097b908c53941e8c6d4c163e48fe1c006e290a351c25b25ae546d9dc"


def test_replicas_share_one_instance_after_a_broadcast_insertion():
    cfg = no_churn_cfg(
        T=1000.0, duration=3.0, script=(ScriptedOp(time=1.0, op="insert", author=0),)
    )
    eng = _Engine(cfg)
    eng.run()
    online = [eng.nodes[v] for v in eng.online]
    assert len(online) == cfg.n_initial + 1 and {s.stage for s in online} == {1}
    assert all(s.graph is online[0].graph and s.cycle is online[0].cycle for s in online)


def test_replicas_share_one_instance_after_a_summary_deletes_many_nodes():
    from gasman.protocol import PolSummary

    eng = _Engine(no_churn_cfg(n_initial=16, m=32))
    # Each replica applies the six deletions one after another.
    victims = frozenset(range(10, 16))
    summary = PolSummary(
        sender=0, stage=eng.nodes[0].stage, sent_at=0.0, window=1,
        alive=frozenset(eng.online - victims), deletions=victims,
    )
    # The sender applies its summary first, as ``_on_pol_close`` does; then
    # the rest of its component hears it.
    component = tuple(sorted(eng.online))
    eng._apply_summary(eng.nodes[0], summary, traced=True)
    eng._on_deliver(summary, component)
    online = [eng.nodes[v] for v in sorted(eng.online)]
    assert len(online) == 10 and {s.graph.order for s in online} == {10}
    assert all(s.graph is online[0].graph and s.cycle is online[0].cycle for s in online)


def test_members_that_agree_keep_one_replica_object_through_a_summary():
    from gasman.protocol import PolSummary

    eng = _Engine(no_churn_cfg(n_initial=12, m=24))
    assert len({id(s.replica) for s in eng.nodes.values()}) == 1, "a replica was dealt per member"
    deliver, first = eng._on_deliver, []

    def checked_deliver(msg, recipients):
        if first or not isinstance(msg, PolSummary):
            return deliver(msg, recipients)
        # The sender applied its own summary when it sent it.
        others = [v for v in recipients if v != msg.sender]
        before = {v: eng.nodes[v].replica for v in others}
        deliver(msg, recipients)
        first.append((msg, before, {v: eng.nodes[v].replica for v in others}))

    eng._on_deliver = checked_deliver
    eng.run()
    (summary, before, after), = first
    assert len({id(r) for r in before.values()}) == 1
    assert len({id(r) for r in after.values()}) == 1, "a summary copied a replica per node"
    recipient = min(before)
    shared = after[recipient]
    assert shared is not before[recipient] and shared.fifo[-1].author == summary.sender


def _fresh_copy(replica):
    """An equal replica that shares no object carrying kept results."""
    from gasman.protocol import Replica

    graph = Graph(replica.graph.vertices, replica.graph.edges)
    return Replica(graph, HamiltonianCycle(replica.cycle.order), replica.stage, replica.fifo,
                   replica.stage_history, replica.online_view)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(8, 16),
    T=st.integers(2, 8),
    churn=st.tuples(*[st.integers(5, 40).map(lambda p: p / 100)] * 3),
    connectivity=st.sampled_from(["full_mesh", GEO, GeometricConfig(300.0, 20.0, 0.5, 120.0, 200.0)]),
    seed=st.integers(0, 2**31 - 1),
)
def test_every_kept_replica_transition_equals_a_fresh_recomputation(n, T, churn, connectivity, seed):
    # Each insertion and summary a member applies is recomputed on a copy of
    # its input replica that holds no kept result; a key that leaves out
    # something the transition reads hands some member a wrong result.  A
    # member applying what another applied to the same value gets its object.
    from unittest import mock

    from gasman import simulator
    from gasman.protocol import NodeState

    engine = _Engine(ScenarioConfig(
        n_initial=n, m=2 * n, T=float(T), l=5, duration=40.0, seed=seed,
        churn=ChurnConfig(*churn), connectivity=connectivity,
    ))
    results = {}  # (id of the input value, update, now) -> (input value, result)

    def checked(transition):
        def apply(state, update, cfg, now):
            before = state.replica
            fresh = NodeState(state.id, _fresh_copy(before))
            try:
                out = transition(state, update, cfg, now)
            except ValueError as exc:
                with pytest.raises(type(exc)):
                    transition(fresh, update, cfg, now)
                raise
            assert transition(fresh, update, cfg, now) == out
            assert fresh.replica == state.replica
            _, result = results.setdefault((id(before), update, now), (before, state.replica))
            assert result is state.replica, "an equal transition of one value made a second object"
            return out
        return apply

    with mock.patch.multiple(
        simulator,
        apply_insertion_update=checked(simulator.apply_insertion_update),
        apply_deletion_update=checked(simulator.apply_deletion_update),
    ):
        engine.run()


def test_no_graph_outlives_its_run():
    def live_instances():
        gc.collect()
        return [o for o in gc.get_objects() if type(o) in (Graph, HamiltonianCycle)]

    # Held so that no instance made by the run can take one of their ids.
    before = live_instances()
    known = {id(o) for o in before}
    cfg = no_churn_cfg(
        n_initial=12, m=24, T=5.0, l=5, duration=60.0, seed=3,
        churn=ChurnConfig(0.3, 0.3, 0.3),
    )
    eng = _Engine(cfg)
    eng.run()
    made = [weakref.ref(o) for o in live_instances() if id(o) not in known]
    assert made
    del eng
    gc.collect()
    assert [r() for r in made if r() is not None] == []


def test_engine_queues_one_tick_per_periodic_stream_for_any_duration():
    eng = _Engine(no_churn_cfg(connectivity=GEO, duration=1e5))
    kinds = [kind for _, _, kind, _ in eng._heap]
    assert kinds.count("move") == 1 and kinds.count("churn") == 1
    assert len(eng._heap) == len(eng.nodes) + 2


def test_ticks_keep_their_up_front_order_against_same_time_events():
    # Ticks are queued one by one, but sort as if all were queued at start:
    # move before churn before the scripted ops queued after them.
    script = tuple(ScriptedOp(time=t, op="turn_on", node=0) for t in (1.0, 2.0))
    eng = _Engine(no_churn_cfg(connectivity=GEO, duration=2.0, script=script))
    seen = []
    for kind in ("move", "churn", "script"):
        handler = getattr(eng, f"_on_{kind}")
        setattr(eng, f"_on_{kind}", lambda *a, kind=kind, h=handler: (
            seen.append((eng.now_us, kind)), h(*a)))
    eng.run()
    assert seen == [
        (500_000, "move"),
        (1_000_000, "move"), (1_000_000, "churn"), (1_000_000, "script"),
        (1_500_000, "move"),
        (2_000_000, "move"), (2_000_000, "churn"), (2_000_000, "script"),
    ]


@pytest.mark.parametrize("seed", [79, 82, 714])
def test_no_membership_step_acts_inside_the_hop_of_an_update(seed, tmp_path):
    # At these seeds an update is still on the air when another membership
    # step runs: a deleting summary when an insertion commits (79), an
    # insertion when a node catches up on re-entry (82) and when a proof of
    # life closes (714).  Acting before it lands gave stale trace snapshots
    # and, at 79 and 82, replicas that never converged again.
    from gasman.cli import main

    cfg = no_churn_cfg(
        n_initial=12, m=24, T=2.0, l=5, duration=60.0, seed=seed,
        churn=ChurnConfig(0.5, 0.3, 0.3),
    )
    eng = _Engine(cfg)
    result = eng.run()
    trace = tmp_path / "trace.tsv"
    trace.write_text(result.trace_text(), encoding="utf-8")
    assert main(["trace-check", str(trace)]) == 0
    online = [eng.nodes[v] for v in eng.online]
    assert len({s.fingerprint() for s in online}) == 1, "on-line replicas diverged"


@pytest.mark.parametrize(
    "duration, insert, outcome, online, offline",
    [
        (3.0, False, None, False, True),
        (8.0, False, "Node 3 re-enters the network", True, False),
        (8.0, True, "Node 3 is denied access (expired membership)", False, False),
    ],
    ids=["turned_off", "granted_reentry", "expired_reentry"],
)
def test_the_engine_moves_a_returning_node_between_its_sets(
    duration, insert, outcome, online, offline
):
    # Node 3 is off-line from 1 s and asks back in at 6 s, after a summary
    # saw it silent.  An insertion while it is away ages its stage past T.
    script = [
        ScriptedOp(time=1.0, op="turn_off", node=3),
        ScriptedOp(time=6.0, op="turn_on", node=3),
    ]
    if insert:
        script.append(ScriptedOp(time=2.0, op="insert", author=0))
    eng = _Engine(no_churn_cfg(duration=duration, script=tuple(script)))
    text = eng.run().trace_text()
    assert outcome is None or outcome in text
    assert (3 in eng.online, 3 in eng.offline) == (online, offline)
    assert 3 in eng.nodes


def test_every_status_change_replaces_the_on_line_set():
    # The radio keeps its flood table while the on-line set is the same
    # object, so a status change makes a new set and edits none.
    script = (
        ScriptedOp(time=1.0, op="turn_off", node=3),
        ScriptedOp(time=6.0, op="turn_on", node=3),
        ScriptedOp(time=7.0, op="insert", author=0),
        ScriptedOp(time=9.0, op="delete", node=5),
    )
    eng = _Engine(no_churn_cfg(duration=12.0, script=script))
    assert type(eng.online) is frozenset
    steps = []
    for name in ("_turn_off", "_on_reentry", "_spawn_member", "_apply_summary"):
        def recorded(*args, name=name, step=getattr(eng, name), **kwargs):
            before = eng.online
            step(*args, **kwargs)
            steps.append((name, before, eng.online))
        setattr(eng, name, recorded)
    eng.run()
    changed = {name for name, before, after in steps if after != before}
    assert changed == {"_turn_off", "_on_reentry", "_spawn_member", "_apply_summary"}
    for name, before, after in steps:
        assert type(after) is frozenset
        assert (after is before) == (after == before), name
    assert 3 in eng.online and 5 not in eng.online


def test_a_deleting_summary_replaces_the_on_line_set_once():
    from gasman.protocol import PolSummary

    eng = _Engine(no_churn_cfg(n_initial=16, m=32))
    victims = frozenset(range(10, 16))
    summary = PolSummary(
        sender=0, stage=eng.nodes[0].stage, sent_at=0.0, window=1,
        alive=frozenset(eng.online - victims), deletions=victims,
    )
    sets, handle = [eng.online], eng._handle_pol_summary

    def handled(state, msg):
        handle(state, msg)
        sets.append(eng.online)

    eng._handle_pol_summary = handled
    eng._on_deliver(summary, tuple(sorted(eng.online)))
    # Members 1 to 9 handle it; the first takes the victims off-line.
    assert len(sets) == 1 + 9 and sets[-1] == frozenset(range(10))
    assert len({id(s) for s in sets}) == 2, "each replica made a new on-line set"


def test_a_newcomer_on_a_reused_id_starts_with_no_windows():
    # Node 3 takes part in the first proofs of life, is deleted, and its id
    # is given to a newcomer, a new record that does not inherit the old
    # node's windows and last showed life when it joined.
    script = (
        ScriptedOp(time=10.0, op="delete", node=3),
        ScriptedOp(time=11.0, op="insert", node=3, author=0),
    )
    eng = _Engine(no_churn_cfg(duration=12.0, script=script))
    windows = attrgetter("handled_window", "answered_window", "summary_window")
    spawned = []

    def checked_spawn(auth, outcome, new_id, spawn=eng._spawn_member):
        old = eng.nodes[new_id]
        spawn(auth, outcome, new_id)
        new = eng.nodes[new_id]
        spawned.append((new_id, [w >= 0 for w in windows(old)], type(new) is _Member and new is not old,
                        windows(new), new.last_proof_us == eng.now_us))

    eng._spawn_member = checked_spawn
    eng.run()
    assert spawned == [(3, [True, True, True], True, (-1, -1, -1), True)]
    assert eng.nodes[3].stage == eng.nodes[0].stage == 2 and 3 in eng.online


def test_admission_denial_blocks_every_insertion():
    cfg = no_churn_cfg(
        churn=ChurnConfig(0.5, 0.0, 0.0), duration=40.0, admission_deny_prob=1.0
    )
    result = run_scenario(cfg)
    text = result.trace_text()
    assert "denies membership" in text
    assert "Insertion of Node" not in text
    assert result.metrics.bytes["insertion"] == 0


def test_every_window_gets_at_most_one_summary():
    cfg = no_churn_cfg(
        churn=ChurnConfig(0.1, 0.15, 0.15), duration=90.0, n_initial=12, m=24, seed=17
    )
    from gasman.protocol import PolSummary

    eng = _Engine(cfg)
    air = record_air(eng)
    eng.run()
    windows = [m.window for m in air if isinstance(m, PolSummary)]
    assert len(windows) == len(set(windows))


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(8, 20),
    T=st.integers(2, 10),
    churn=st.tuples(*[st.integers(5, 50).map(lambda p: p / 100)] * 3),
    connectivity=st.sampled_from([
        "full_mesh", GEO,
        GeometricConfig(300.0, 20.0, 0.5, 120.0, 200.0),  # secure range above data range
        GeometricConfig(800.0, 20.0, 0.5, 250.0, 5.0),
    ]),
    seed=st.integers(0, 2**31 - 1),
)
def test_each_replica_hears_summary_windows_in_order(n, T, churn, connectivity, seed):
    # A summary of window w leaves no earlier than w*T plus the answer
    # collection, so a replica never hears a window below the last it
    # applied, and the engine keeps one window number per replica.
    engine = _Engine(ScenarioConfig(
        n_initial=n, m=2 * n, T=float(T), l=5, duration=60.0, seed=seed,
        churn=ChurnConfig(*churn), connectivity=connectivity,
    ))
    handle = engine._handle_pol_summary

    def checked_handle(state, msg):
        applied = state.summary_window
        assert msg.window >= applied, f"node {state.id} heard window {msg.window} after {applied}"
        handle(state, msg)
        if engine.terminated_at is None:
            assert state.summary_window == msg.window
            before = (tuple(state.fifo), dict(state.stage_history), state.graph)
            handle(state, msg)  # the same window again changes nothing
            assert (state.fifo, state.stage_history, state.graph) == before

    engine._handle_pol_summary = checked_handle
    engine.run()


def test_a_late_summary_after_a_scripted_deletion_is_no_repeat():
    # Node 4's proof of life of window 28 opens at 57.73 s and closes past the
    # boundary, at 58.04 s; a scripted deletion at 58.01 s is labelled window
    # 29 and lands first.  The late summary is no repeat: every replica
    # applies it, as node 4 did, and the replicas end at one stage.
    engine = _Engine(ScenarioConfig(
        n_initial=10, m=20, T=2.0, l=3, duration=80.0, seed=0, churn=ChurnConfig(0.1, 0.1, 0.1),
        script=(ScriptedOp(time=58.01, op="delete", node=1),),
    ))
    handle = engine._handle_pol_summary
    late = []

    def checked_handle(state, msg):
        below = msg.window < state.summary_window
        handle(state, msg)
        if below:
            late.append(state.fifo[-1].author == msg.sender and state.fifo[-1].timestamp == engine.now_s)

    engine._handle_pol_summary = checked_handle
    engine.run()
    assert late and all(late)
    assert len({engine.nodes[v].stage for v in engine.online}) == 1


@pytest.mark.parametrize("connectivity, count, expected", [
    ("full_mesh", 966, "ef9d7768510a78a479aecfcd6adf430afaa63a38b35538718af7b74aefa5316d"),
    # The 120 m data range refuses 48 acknowledgements, which are not on the air.
    (GeometricConfig(400.0, 20.0, 0.5, 120.0, 200.0), 583,
     "7956eb8b62c929f5962879b108d7449970e507fb8dfbda3c2d17129ab6d5437e"),
])
def test_recorded_air_matches_the_engines_former_message_log(connectivity, count, expected):
    # Frozen from the engine's own list of every sent message, before it was
    # deleted; re-entries put proof rounds on the air in both scenarios.
    eng = _Engine(no_churn_cfg(
        n_initial=12, m=24, l=5, duration=100.0, seed=3,
        churn=ChurnConfig(0.2, 0.3, 0.3), connectivity=connectivity,
    ))
    air = record_air(eng)
    eng.run()
    kinds = {type(m).__name__ for m in air}
    assert {"ZkpCommit", "ZkpChallenge", "ZkpResponse", "AccessGrant"} <= kinds
    text = "".join(f"{type(m).__name__} {m.sender} {m.sent_at!r}\n" for m in air)
    assert len(air) == count
    assert hashlib.sha256(text.encode()).hexdigest() == expected


def test_determinism_trace_and_metrics_bytes():
    cfg = no_churn_cfg(
        churn=ChurnConfig(0.1, 0.1, 0.1), duration=60.0, seed=21, n_initial=12, m=24
    )
    a, b = run_scenario(cfg), run_scenario(cfg)
    assert a.trace_text() == b.trace_text()
    assert a.metrics.to_json() == b.metrics.to_json()


@pytest.mark.parametrize(
    "connectivity, terminated_at, trace_sha, metrics_sha",
    [
        (
            GeometricConfig(300.0, 20.0, 0.5, 150.0, 5.0), 47.0,
            "98dd37e48357aac2ee77081ccce8cecb15cc297e115240a8ebb1d67baeb8d552",
            "e5aa79f1e872d7376bfebbcfc31197a7170c876d99fc27f0b770d47c9aef85e8",
        ),
        (
            "full_mesh", 45.0,
            "53c7ff064cdeeb139c8389e2a4107aa2c06b36fa00bd66f480a27d6e9a5c94cb",
            "b1d06804bf3474dff89d74e0979e446c1a1f97ccb3cda0e5a13dc1b2bc463f5e",
        ),
    ],
    ids=["geometric", "full_mesh"],
)
def test_golden_trace_and_metrics_digests(connectivity, terminated_at, trace_sha, metrics_sha):
    # Frozen output bytes: an engine optimization must leave them unchanged.
    cfg = ScenarioConfig(
        n_initial=12, m=24, T=5.0, l=10, duration=80.0, seed=2,
        churn=ChurnConfig(0.2, 0.3, 0.05), connectivity=connectivity,
    )
    result = run_scenario(cfg)
    text = result.trace_text()
    # The scenario must keep exercising insertion, deletion and termination.
    assert "Insertion of Node" in text and "is deleted" in text
    assert (result.outcome, result.terminated_at) == ("terminated", terminated_at)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == trace_sha
    assert hashlib.sha256(result.metrics.to_json().encode("utf-8")).hexdigest() == metrics_sha


@pytest.mark.parametrize(
    "side, n, trace_sha, metrics_sha",
    [
        (
            500.0, 100,
            "4769813fc0acca63bb279ca6531605e7c9d915d81806d3c0205f34ea0c53764c",
            "76a89d992687d4e02922819cd2a1359083cd87b53b46f98f6124d3a550d9fed0",
        ),
        (
            1500.0, 60,
            "35da041dbd3fc05f672ab9785f4b2df476aef5aa4c6c963084adc2dd9e8b9823",
            "a98fcfcd39e064fc73a210585252af88e0b835e63f2ab0e3b1a479159ae94a22",
        ),
    ],
    ids=["connected-500m", "split-1500m"],
)
def test_golden_digests_of_geometric_runs_at_the_benchmark_size(side, n, trace_sha, metrics_sha):
    # Frozen output bytes of geometric runs at the benchmark's size.  In
    # geo_mobility's 500 m square every flood table was one component; in
    # the 1,500 m square the network split in 15 of its 19 flood tables.
    cfg = ScenarioConfig(
        n_initial=n, m=2 * n, T=10.0, l=20, duration=100.0, seed=11,
        churn=ChurnConfig(0.1, 0.1, 0.1),
        connectivity=GeometricConfig(side, 20.0, 0.5, 250.0, 5.0),
    )
    result = run_scenario(cfg)
    assert result.outcome == "completed"
    assert hashlib.sha256(result.trace_text().encode("utf-8")).hexdigest() == trace_sha
    assert hashlib.sha256(result.metrics.to_json().encode("utf-8")).hexdigest() == metrics_sha


@pytest.mark.parametrize(
    "n, trace_sha, metrics_sha",
    [
        (
            200,
            "d5574bb0de837cc19daa0b3d822f2d5a8dfbb18eeb8a2ed8674600c2550777eb",
            "da91d84356d8809ebdfef8f31100c31951dd4fe9e03dd2b7d99730c19ebb4e70",
        ),
        (
            1000,
            "f1bd223140c946040e56e6e0cb909dc8d76485c7c535cd785bd3f41398e4b3b4",
            "d80970cdfab1711319d276a877c416a5861f56705c1ae3669c8cc55b6f58d2c4",
        ),
    ],
    ids=["n200", "n1000"],
)
def test_golden_digests_of_full_mesh_runs_at_the_benchmark_size(n, trace_sha, metrics_sha):
    # Frozen output bytes of full-mesh runs at mesh_churn's size and five
    # times it, where every broadcast reaches hundreds of members.
    cfg = ScenarioConfig(
        n_initial=n, m=2 * n, T=10.0, l=20, duration=100.0, seed=11,
        churn=ChurnConfig(0.1, 0.1, 0.1),
    )
    result = run_scenario(cfg)
    assert result.outcome == "completed"
    assert hashlib.sha256(result.trace_text().encode("utf-8")).hexdigest() == trace_sha
    assert hashlib.sha256(result.metrics.to_json().encode("utf-8")).hexdigest() == metrics_sha


def membership(engine, node):
    """A node's place in the life cycle: online, offline or deleted."""
    if node in engine.online:
        return "online"
    return "offline" if node in engine.offline else "deleted"


def run_hash(cfg: ScenarioConfig) -> bytes:
    """One sha256 of a run: its trace, its metrics, and every node's
    membership, stage, flags, on-line view and instance."""
    engine = _Engine(cfg)
    result = engine.run()
    h = hashlib.sha256()
    h.update(result.trace_text().encode("utf-8"))
    h.update(result.metrics.to_json().encode("utf-8"))
    for v in sorted(engine.nodes):
        s = engine.nodes[v]
        h.update(repr((v, membership(engine, v), s.stage, sorted(s.sybil_flags),
                       sorted(s.online_view))).encode("utf-8"))
        h.update(s.fingerprint())
    return h.digest()


def test_golden_digest_over_a_grid_of_churny_scenarios():
    # Frozen over 80 scenarios, each hashed by ``run_hash``.  An engine
    # change that keeps behaviour keeps this one sha256.
    geometries = [
        "full_mesh",
        GeometricConfig(500.0, 20.0, 0.5, 250.0, 5.0),
        GeometricConfig(300.0, 20.0, 0.5, 150.0, 5.0),
        GeometricConfig(400.0, 20.0, 0.5, 120.0, 200.0),
    ]
    churns = [(0.2, 0.2, 0.2), (0.5, 0.3, 0.3)]
    total = hashlib.sha256()
    for connectivity, n, churn, seed in itertools.product(geometries, (12, 16), churns, range(5)):
        total.update(run_hash(ScenarioConfig(
            n_initial=n, m=2 * n, T=5.0, l=5, duration=100.0, seed=seed,
            churn=ChurnConfig(*churn), connectivity=connectivity,
        )))
    assert total.hexdigest() == "3f277486e0f6f78787c8525f147df8a4e91b870be7b94efec39943365f080d75"


def test_golden_digest_over_scripted_scenarios():
    # Frozen over 20 scenarios with light churn and scripted insertions,
    # deletions, turn-offs and turn-ons, each hashed by ``run_hash``.  Those
    # with an even seed start a second insertion 0.3035 s after the first,
    # inside the hop of its broadcast, so that start waits for it to land.
    def scripted(n, seed):
        t = 3.0 + seed
        ops = (
            ScriptedOp(t, "insert", author=seed),
            ScriptedOp(t + 8.0, "turn_off", node=seed + 2),
            ScriptedOp(t + 14.0, "delete", node=seed + 4),
            ScriptedOp(t + 22.0, "turn_on", node=seed + 2),
            ScriptedOp(t + 30.0, "insert", author=n - 1 - seed),
        )
        return ops + ((ScriptedOp(t + 0.3035, "insert", author=seed + 1),) if seed % 2 == 0 else ())

    geometries = ["full_mesh", GeometricConfig(500.0, 20.0, 0.5, 250.0, 5.0)]
    total = hashlib.sha256()
    for connectivity, n, seed in itertools.product(geometries, (12, 16), range(5)):
        total.update(run_hash(ScenarioConfig(
            n_initial=n, m=2 * n, T=5.0, l=5, duration=60.0, seed=seed,
            churn=ChurnConfig(0.05, 0.05, 0.05), connectivity=connectivity,
            script=scripted(n, seed),
        )))
    assert total.hexdigest() == "3221c4fad94bc7ab0e143d621da76ab9e239d8ca91512d9b9c7e1dd643487c78"


# ---------------------------------------------------------------------------
# Traffic accounting
# ---------------------------------------------------------------------------

def test_shares_sum_to_one_and_bytes_are_conserved():
    cfg = no_churn_cfg(churn=ChurnConfig(0.2, 0.1, 0.1), duration=60.0, n_initial=10, m=20)
    result = run_scenario(cfg)
    shares = result.metrics.shares()
    assert abs(sum(shares.values()) - 1.0) < 1e-9
    assert sum(result.metrics.bytes.values()) == result.metrics.total_bytes


def test_churny_full_mesh_run_reaches_every_traffic_class():
    cfg = ScenarioConfig(
        n_initial=20, m=40, T=8.0, l=10, duration=150.0, seed=2,
        churn=ChurnConfig(0.15, 0.15, 0.15),
    )
    result = run_scenario(cfg)
    m = result.metrics
    for cls in ("proof_of_life", "insertion", "graph_transfer", "cycle_transfer", "zkp", "deletion"):
        assert m.bytes[cls] > 0, cls
    assert m.shares()["proof_of_life"] > m.shares()["zkp"]


# ---------------------------------------------------------------------------
# Mobility
# ---------------------------------------------------------------------------

def test_full_speed_step_covers_speed_times_dt():
    st = WaypointState(x=0.0, y=0.0, dest_x=100.0, dest_y=0.0, speed=20.0)
    out = step_mobility({1: st}, GEO, Random(0), dt=0.5, now=10.0)[1]
    assert math.isclose(out.x, 10.0) and out.y == 0.0


def test_paused_node_does_not_move():
    st = WaypointState(x=5.0, y=5.0, dest_x=50.0, dest_y=5.0, speed=10.0, pause_until=99.0)
    out = step_mobility({1: st}, GEO, Random(0), dt=1.0, now=10.0)[1]
    assert (out.x, out.y) == (5.0, 5.0)


def test_arrival_triggers_pause_then_new_waypoint():
    st = WaypointState(x=0.0, y=0.0, dest_x=1.0, dest_y=0.0, speed=10.0)
    rng = Random(3)
    arrived = step_mobility({1: st}, GEO, rng, dt=1.0, now=0.0)[1]
    assert (arrived.x, arrived.y) == (1.0, 0.0)
    assert arrived.dest_x is None and arrived.pause_until == GEO.pause
    resumed = step_mobility({1: arrived}, GEO, rng, dt=1.0, now=GEO.pause + 0.1)[1]
    assert resumed.dest_x is not None or (resumed.x, resumed.y) != (1.0, 0.0)


def test_long_waypoint_walk_concentrates_toward_the_center():
    rng = Random(5)
    st = {1: WaypointState(x=rng.uniform(0, 500), y=rng.uniform(0, 500))}
    total_dist = 0.0
    steps = 20_000
    for step in range(steps):
        st = step_mobility(st, GEO, rng, dt=0.5, now=step * 0.5)
        p = st[1]
        total_dist += math.hypot(p.x - 250.0, p.y - 250.0)
    # Uniform placement on the square averages ~0.3826 * side from the center;
    # the waypoint walk's well-known center bias pulls the mean well below.
    assert total_dist / steps < 0.36 * 500.0


def replace_step(st, geo, rng, dt, now):
    """Reference waypoint step, written with ``dataclasses.replace``."""
    if now < st.pause_until:
        return st
    if st.dest_x is None or st.dest_y is None:
        dest_x = rng.uniform(0.0, geo.area_side)
        dest_y = rng.uniform(0.0, geo.area_side)
        speed = geo.speed_max * (1.0 - rng.random())
        st = replace(st, dest_x=dest_x, dest_y=dest_y, speed=speed)
    dx = st.dest_x - st.x
    dy = st.dest_y - st.y
    dist = math.hypot(dx, dy)
    step = st.speed * dt
    if dist <= step:
        return replace(
            st, x=st.dest_x, y=st.dest_y, dest_x=None, dest_y=None,
            speed=0.0, pause_until=now + geo.pause,
        )
    return replace(st, x=st.x + step * dx / dist, y=st.y + step * dy / dist)


COORD_500 = st.floats(0, 500)
WAYPOINT = st.one_of(
    # Paused, or with its pause over and no waypoint yet.
    st.builds(WaypointState, x=COORD_500, y=COORD_500, pause_until=st.floats(0, 20)),
    # On a leg: far from the waypoint (mid-leg) or within one step (arriving).
    st.builds(
        WaypointState, x=COORD_500, y=COORD_500, dest_x=COORD_500, dest_y=COORD_500,
        speed=st.floats(0.001, 20), pause_until=st.floats(0, 20),
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    states=st.lists(WAYPOINT, min_size=1, max_size=12),
    seed=st.integers(0, 2**32),
    now=st.floats(0, 20),
    dt=st.sampled_from([0.5, 1.0, 30.0]),
)
def test_waypoint_step_matches_a_replace_based_reference(states, seed, now, dt):
    positions = dict(enumerate(states))
    rng, ref_rng = Random(seed), Random(seed)
    out = step_mobility(positions, GEO, rng, dt, now)
    expected = {v: replace_step(positions[v], GEO, ref_rng, dt, now) for v in sorted(positions)}
    assert out == expected
    assert rng.getstate() == ref_rng.getstate()


def test_golden_digest_of_the_final_positions():
    # Frozen final waypoint state of every positioned node at the benchmark's
    # geometry.  The trace digests see a position only through the links it
    # makes, so a drift in the last bits of a coordinate would pass them.
    cfg = ScenarioConfig(
        n_initial=40, m=80, T=10.0, l=20, duration=100.0, seed=1,
        churn=ChurnConfig(0.1, 0.1, 0.1), connectivity=GEO,
    )
    eng = _Engine(cfg)
    result = eng.run()
    assert result.trace_text().count("Insertion of Node") == 7
    text = "".join(
        repr((v, p.x, p.y, p.dest_x, p.dest_y, p.speed, p.pause_until)) + "\n"
        for v, p in sorted(eng.radio.positions.items())
    )
    assert len(eng.radio.positions) == 44
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "cb4a6df5c1a5897780c037e533b5cebb9e212343b31fc063e1b3f79653f1c7e4"
    )


def test_no_step_edits_a_state_in_place():
    # States are immutable by convention only: every step and every spawn must
    # hand out new objects or share old ones, never write to one.
    cfg = ScenarioConfig(
        n_initial=12, m=24, T=5.0, l=5, duration=40.0, seed=1,
        churn=ChurnConfig(0.3, 0.1, 0.1), connectivity=GEO,
    )
    eng = _Engine(cfg)
    seen: dict[int, tuple] = {}
    shared = []

    def fields(p):
        return (p.x, p.y, p.dest_x, p.dest_y, p.speed, p.pause_until)

    def check():
        for obj, before in seen.values():
            assert fields(obj) == before
        # Objects stay referenced here, so no id is reused while checked.
        for p in eng.radio.positions.values():
            seen.setdefault(id(p), (p, fields(p)))
        shared.append(len(eng.radio.positions) - len({id(p) for p in eng.radio.positions.values()}))

    def checked_move(tick, move=eng._on_move):
        check()
        move(tick)

    eng._on_move = checked_move
    eng.run()
    check()
    assert "Insertion of Node" in "".join(e.description for e in eng.trace)
    assert max(shared) >= 1, "no newcomer shared its author's state"
    assert len(shared) == 81


# ---------------------------------------------------------------------------
# Reachability and flooding
# ---------------------------------------------------------------------------

def geo_cfg():
    return no_churn_cfg(connectivity=GEO)


def place(coords):
    return {i: WaypointState(x=x, y=y) for i, (x, y) in coords.items()}


def recipients_of(sender, components):
    """A ``broadcast_deliver`` lookup as its recipients see it: the sender's
    component less the sender, and the number of copies on the air."""
    component, deliveries = broadcast_deliver(sender, components)
    assert sender in component
    return tuple(v for v in component if v != sender), deliveries


def test_reachability_distance_bands():
    cfg = geo_cfg()
    positions = place({1: (0, 0), 2: (4, 0), 3: (100, 0), 4: (300, 0)})
    assert reachable(1, 2, positions, cfg) is Reach.DATA_AND_SECURE
    assert reachable(1, 3, positions, cfg) is Reach.DATA
    assert reachable(1, 4, positions, cfg) is Reach.NONE


def test_full_mesh_reaches_everyone_as_secure():
    cfg = no_churn_cfg()
    assert reachable(1, 2, {}, cfg) is Reach.DATA_AND_SECURE
    recipients, deliveries = recipients_of(0, flood_components(frozenset({0, 1, 2, 3}), {}, None))
    assert recipients == (1, 2, 3)
    assert deliveries == 4 * 3


def test_flood_stays_within_the_connected_component():
    positions = place({0: (0, 0), 1: (100, 0), 2: (200, 0), 3: (1000, 0), 4: (1100, 0)})
    components = flood_components(frozenset(positions), positions, GEO)
    recipients, _ = recipients_of(0, components)
    assert recipients == (1, 2)
    # The forwarders are the sender's component.
    assert components[0][0] == (0, 1, 2)


def test_each_node_forwards_a_broadcast_at_most_once():
    rng = Random(8)
    for _ in range(20):
        positions = place(
            {i: (rng.uniform(0, 500), rng.uniform(0, 500)) for i in range(12)}
        )
        sender = rng.randrange(12)
        components = flood_components(frozenset(positions), positions, GEO)
        recipients, _ = recipients_of(sender, components)
        forwarders = components[sender][0]
        # Forwarders are distinct: one transmission per node per broadcast id.
        assert len(set(forwarders)) == len(forwarders) <= 12
        assert set(recipients) <= frozenset(positions) - {sender}


def pairwise_flood(sender, online, positions, cfg):
    """Reference flood: links from pairwise ``reachable`` calls, breadth first."""
    members = online | {sender}
    near = {
        u: {v for v in members if v != u and reachable(u, v, positions, cfg) is not Reach.NONE}
        for u in members
    }
    seen, frontier = {sender}, [sender]
    while frontier:
        frontier = [v for u in frontier for v in near[u] if v not in seen]
        seen.update(frontier)
    deliveries = sum(len(near[u]) for u in seen)
    return frozenset(seen - {sender}), frozenset(seen), deliveries


# Integer coordinates and ranges put some pairs exactly on a range boundary.
COORD = st.integers(0, 400) | st.floats(0, 400)
RANGE = st.integers(1, 300) | st.floats(1, 300)


@st.composite
def far_coords(draw):
    """Points offset far from the origin, where one ulp is large (about 1.2e-4
    near 1e12), on a few x values, so that many pairs share an x."""
    base = draw(st.sampled_from([1e6, 1e12]))
    near = COORD.map(lambda c: base + c)
    xs = draw(st.lists(near, min_size=1, max_size=4))
    return draw(st.lists(st.tuples(st.sampled_from(xs), near), min_size=1, max_size=14))


@settings(max_examples=300, deadline=None)
@given(
    coords=st.lists(st.tuples(COORD, COORD), min_size=1, max_size=14) | far_coords(),
    data_range=RANGE,
    secure_range=RANGE,
    data=st.data(),
)
def test_flood_over_the_neighbor_table_matches_a_pairwise_flood(
    coords, data_range, secure_range, data
):
    positions = place(dict(enumerate(coords)))
    geo = GeometricConfig(500.0, 20.0, 0.5, data_range, secure_range)
    # A full mesh floods with no geometry, and reaches every pair.
    full_mesh = data.draw(st.booleans())
    cfg = no_churn_cfg() if full_mesh else no_churn_cfg(connectivity=geo)
    # Positioned nodes left out of ``online`` are the off-line ones.
    online = data.draw(st.sets(st.sampled_from(sorted(positions))))
    sender = data.draw(st.sampled_from(sorted(positions)))
    # The engine floods every component at once and looks each broadcast up.
    members = frozenset(online | {sender})
    components = flood_components(members, positions, None if full_mesh else geo)
    recipients, deliveries = recipients_of(sender, components)
    assert recipients == tuple(sorted(recipients))
    assert (frozenset(recipients), frozenset(components[sender][0]), deliveries) == pairwise_flood(
        sender, online, positions, cfg
    )
    assert set(components) == members
    for v in sorted(members):
        _, forwarders, deliveries = pairwise_flood(v, set(members), positions, cfg)
        assert components[v] == (tuple(sorted(forwarders)), deliveries)


def test_a_sender_that_is_not_on_line_still_floods():
    # An initiator that its own summary deleted, or a forger, is not on-line
    # yet floods: the broadcast reaches every on-line member of its
    # component, and every copy heard within that component is metered.
    from gasman.protocol import PolInitiate

    msg = PolInitiate(sender=1, stage=0, sent_at=0.0, window=1)
    radio = Radio(geo_cfg(), [], Random(0))
    # 100 m apart in a 250 m data range: links 0-1, 0-2, 1-2, 1-3 and 2-3.
    radio.positions = place(
        {0: (0, 0), 1: (100, 0), 2: (200, 0), 3: (300, 0), 4: (1000, 0), 5: (2000, 0)}
    )
    online = frozenset({0, 2, 3, 4})
    assert radio.flood(msg, online) == (0, 1, 2, 3)
    assert radio.metrics.counts["proof_of_life"] == 5 * 2
    # A lone sender reaches no one and meters nothing.
    assert radio.flood(replace(msg, sender=5), online) == (5,)
    assert radio.metrics.counts["proof_of_life"] == 5 * 2
    # On a full mesh a forger with no position reaches every on-line member.
    mesh = Radio(no_churn_cfg(), [], Random(0))
    assert mesh.flood(replace(msg, sender=10**6), frozenset(range(8))) == (*range(8), 10**6)
    assert mesh.metrics.counts["proof_of_life"] == 9 * 8


def sent_to(engine):
    """The recipients of the engine's most recently queued delivery: the
    sender's component less the sender."""
    msg, component = max(e for e in engine._heap if e[2] == "deliver")[3]
    return tuple(v for v in component if v != msg.sender)


def test_engine_floods_again_when_the_online_set_or_the_positions_change():
    from gasman.protocol import PolInitiate

    engine = _Engine(no_churn_cfg(connectivity=GEO))
    paused = 1e9  # nobody moves unless given a waypoint
    radio = engine.radio
    radio.positions = {
        v: WaypointState(x=200.0 * v, y=0.0, pause_until=paused) for v in range(8)
    }
    msg = PolInitiate(sender=0, stage=0, sent_at=0.0, window=1)
    engine._broadcast(msg)
    assert sent_to(engine) == (1, 2, 3, 4, 5, 6, 7)
    # Same positions, new components: node 3 off-line cuts the chain.
    positions, components = radio._flood[0], radio._flood[2]
    engine._turn_off(3)
    engine._broadcast(msg)
    assert radio._flood[0] is positions
    assert radio._flood[2] is not components
    assert sent_to(engine) == (1, 2)
    # A move tick takes node 2 out of range of node 1: new positions, a new flood.
    # Its waypoint is set in place, so that only the tick replaces the positions.
    components = radio._flood[2]
    radio.positions[2] = WaypointState(
        x=400.0, y=0.0, dest_x=400.0, dest_y=5000.0, speed=2000.0
    )
    engine._on_move(1)
    engine._broadcast(msg)
    assert radio._flood[0] is radio.positions is not positions
    assert radio._flood[2] is not components
    assert sent_to(engine) == (1,)
    # Deliveries are metered from the cached flood: 7 * 2 + 2 * 2 + 1 * 2 copies.
    assert radio.metrics.counts["proof_of_life"] == 14 + 4 + 2
    # Neither changed since: the next broadcast keeps the components.
    components = radio._flood[2]
    engine._broadcast(msg)
    assert radio._flood[2] is components


def test_neighbor_table_links_within_either_range():
    positions = place({0: (0, 0), 1: (50, 0), 2: (110, 0), 3: (400, 0)})
    # The secure range exceeds the data range: a pair in secure range only
    # is still reachable, so it is linked.
    geo = GeometricConfig(500.0, 20.0, 0.5, 60.0, 120.0)
    linked = ((0, 1, 2), 6)  # three links, each heard both ways
    assert flood_components(frozenset(positions), positions, geo) == {
        0: linked, 1: linked, 2: linked, 3: ((3,), 0),
    }


def test_the_x_window_keeps_a_pair_that_rounding_brings_within_range():
    # The pair's computed x gap is an exact tie that rounds down to the range,
    # so ``reachable`` links it; the left x plus the range is the same tie and
    # rounds below the right x.  An x-window without slack would drop the pair.
    u = math.ulp(GEO.data_range)
    pair = {0: (u / 2, 0.0), 1: (GEO.data_range + u, 0.0)}
    assert u / 2 + GEO.data_range < pair[1][0]
    # Alone, the component search reaches the pair from its right end; with a
    # chain 3 - 2 - 0 around it, from its left end.
    for coords in (pair, {**pair, 2: (10.0, 240.0), 3: (251.0, 250.0)}):
        positions = place(coords)
        assert reachable(0, 1, positions, geo_cfg()) is Reach.DATA
        components = flood_components(frozenset(positions), positions, GEO)
        for v in positions:
            _, forwarders, deliveries = pairwise_flood(v, set(positions), positions, geo_cfg())
            assert forwarders == frozenset(positions)
            assert components[v] == (tuple(sorted(forwarders)), deliveries)


def test_secure_channel_never_crosses_a_data_only_pair():
    from gasman.protocol import CycleTransfer

    engine = _Engine(no_churn_cfg(connectivity=GEO))
    radio = engine.radio
    radio.positions = place({0: (0.0, 0.0), 1: (100.0, 0.0), 2: (3.0, 0.0)})
    air = record_air(engine)
    assert reachable(0, 1, radio.positions, engine.cfg) is Reach.DATA
    transfer = CycleTransfer(
        sender=0, stage=0, sent_at=0.0, cycle=engine.nodes[0].cycle
    )
    # 100 m apart the pair shares only the data channel: refused, unmetered.
    assert not radio.send(transfer, 0, 1)
    assert radio.metrics.counts["cycle_transfer"] == 0 and air == []
    # 3 m apart it is within secure range.
    assert radio.send(transfer, 0, 2)
    assert radio.metrics.counts["cycle_transfer"] == 1
    assert radio.metrics.bytes["cycle_transfer"] == transfer.size()
    assert air == [transfer]


def test_a_proof_message_the_channel_refuses_aborts_the_reentry():
    from gasman.protocol import ZkpResponse

    engine = _Engine(no_churn_cfg(seed=1, script=(
        ScriptedOp(time=2.0, op="turn_off", node=3),
        ScriptedOp(time=8.0, op="turn_on", node=3),
    )))
    send = engine.radio.send

    def refuse_responses(msg, src, dst):
        return not isinstance(msg, ZkpResponse) and send(msg, src, dst)

    engine.radio.send = refuse_responses
    result = engine.run()
    text = result.trace_text()
    assert "8.04\tNode 3 is denied access (protocol aborted)\t\n" in text
    assert "re-enters" not in text
    # The request, the first commitment and its challenge went on the air;
    # the refused response ended the proof.
    assert result.metrics.counts["zkp"] == 3


def test_partitioned_minority_is_deleted_by_the_quorum_side():
    # Clusters split 5/3 and pinned in place: the majority side still meets
    # quorum, so its windows run and the silent minority is spliced out.
    cfg = ScenarioConfig(
        n_initial=8, m=16, T=4.0, l=5, duration=40.0, seed=3,
        connectivity=GeometricConfig(
            area_side=10_000.0, speed_max=0.001, pause=1000.0,
            data_range=250.0, secure_range=5.0,
        ),
    )
    engine = _Engine(cfg)
    near = {v: (float(v), 0.0) for v in range(5)}
    far = {v: (9000.0 + v, 0.0) for v in range(5, 8)}
    engine.radio.positions = place({**near, **far})
    result = engine.run()
    assert "is deleted" in result.trace_text()
    majority = engine.nodes[0]
    assert majority.graph.vertices == frozenset(range(5))


def test_evenly_split_partition_aborts_instead_of_deleting():
    # With 4/4 neither side reaches quorum: no summaries, no deletions.
    cfg = ScenarioConfig(
        n_initial=8, m=16, T=4.0, l=5, duration=30.0, seed=3,
        connectivity=GeometricConfig(
            area_side=10_000.0, speed_max=0.001, pause=1000.0,
            data_range=250.0, secure_range=5.0,
        ),
    )
    engine = _Engine(cfg)
    near = {v: (float(v), 0.0) for v in range(4)}
    far = {v: (9000.0 + v, 0.0) for v in range(4, 8)}
    engine.radio.positions = place({**near, **far})
    result = engine.run()
    text = result.trace_text()
    assert "aborted" in text
    assert "is deleted" not in text


# ---------------------------------------------------------------------------
# Whole-run properties
# ---------------------------------------------------------------------------

def test_full_engine_state_of_twenty_random_scenarios_is_unchanged():
    # The golden digests cover what a run prints.  This one also covers the
    # state no run prints, each replica's FIFO and stage history among it,
    # across full-mesh and both kinds of geometric scenarios.
    # ``python tests/state_digest.py --scenarios 400`` runs a larger batch.
    assert state_digest(20, 0) == "7881bfb044c5f8f13b6055238fc44c6e1716025e5751662ddc04a32de5b09d62"


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(8, 20),
    churn=st.tuples(*[st.integers(0, 50).map(lambda p: p / 100)] * 3),
    duration=st.integers(60, 80),
    seed=st.integers(0, 2**31 - 1),
)
def test_every_full_mesh_run_stays_valid(tmp_path_factory, n, churn, duration, seed):
    cfg = ScenarioConfig(
        n_initial=n, m=2 * n, T=5.0, l=5, duration=float(duration), seed=seed,
        churn=ChurnConfig(*churn),
    )
    engine = _Engine(cfg)
    reused = []
    spawn = engine._spawn_member

    def checked_spawn(auth, outcome, new_id):
        if new_id in engine.online or new_id in engine.offline:
            reused.append(new_id)
        spawn(auth, outcome, new_id)

    engine._spawn_member = checked_spawn
    result = engine.run()
    assert reused == [], "a newcomer got the id of a live node"
    trace = tmp_path_factory.getbasetemp() / "full_mesh_trace.tsv"
    trace.write_text(result.trace_text(), encoding="utf-8")
    assert gasman_cli(["trace-check", str(trace)]) == 0
    by_stage = {}
    for v in engine.online:
        state = engine.nodes[v]
        by_stage.setdefault(state.stage, set()).add(state.fingerprint())
    assert all(len(prints) == 1 for prints in by_stage.values()), "replicas diverged"
    assert all(s.stage in s.stage_history for s in engine.nodes.values())
    assert all(not s.sybil_flags for s in engine.nodes.values())
    assert_fifos_ordered_and_retained(engine)


def assert_fifos_ordered_and_retained(engine):
    """Every on-line FIFO is in time order and spans at most the retention 2T."""
    for v in engine.online:
        times = [r.timestamp for r in engine.nodes[v].fifo]
        assert times == sorted(times), f"node {v}: fifo out of time order"
        if times:
            assert times[0] >= times[-1] - 2 * engine.cfg.T, f"node {v}: retention exceeded"


def test_a_returning_replica_prunes_its_caught_up_fifo():
    # Node 4 re-enters with records from before its absence and the grant's
    # newer ones; unpruned, its FIFO spanned 10.13 s > 2T.
    cfg = ScenarioConfig(
        n_initial=8, m=16, T=5.0, l=5, duration=64.0, seed=65348,
        churn=ChurnConfig(0.35, 0.29, 0.3),
    )
    engine = _Engine(cfg)
    engine.run()
    assert 4 in engine.online
    assert_fifos_ordered_and_retained(engine)


def test_an_insertion_started_while_the_last_one_is_on_the_air_flags_no_one():
    # At 56 s Node 25's insertion of id 12 is still on the air when Node 3
    # starts the next one; announced at once, Node 3's replica proposed id 12
    # again and every other replica flagged Node 3 as a Sybil.
    cfg = ScenarioConfig(
        n_initial=13, m=26, T=5.0, l=5, duration=60.0, seed=985216,
        churn=ChurnConfig(0.45, 0.48, 0.46),
    )
    engine = _Engine(cfg)
    engine.run()
    assert all(not s.sybil_flags for s in engine.nodes.values())


def test_a_scripted_insertion_started_inside_another_ones_hop_waits():
    # Node 0's insertion of id 8 goes on the air at 1.303 s and lands at
    # 1.304 s; Node 1's scripted start falls between.  Started at once, it
    # proposed id 8 again, aborted, and every other replica flagged Node 1.
    cfg = no_churn_cfg(script=(
        ScriptedOp(time=1.0, op="insert", author=0),
        ScriptedOp(time=1.3035, op="insert", author=1),
    ))
    engine = _Engine(cfg)
    text = engine.run().trace_text()
    assert "Insertion of Node 8 is broadcast by Node 0" in text
    assert "Insertion of Node 9 is broadcast by Node 1" in text
    assert all(not s.sybil_flags for s in engine.nodes.values())


# ---------------------------------------------------------------------------
# Trace formatting
# ---------------------------------------------------------------------------

def test_online_replicas_hold_every_protocol_invariant_after_churn():
    from gasman.graph import is_hamiltonian_cycle

    cfg = no_churn_cfg(
        churn=ChurnConfig(0.15, 0.15, 0.15), duration=120.0, n_initial=14, m=28, seed=31
    )
    engine = _Engine(cfg)
    engine.run()
    online = [engine.nodes[v] for v in sorted(engine.online)]
    assert len(online) >= cfg.termination_threshold
    prints = {s.fingerprint() for s in online}
    assert len(prints) == 1, "on-line replicas diverged"
    for s in online:
        assert is_hamiltonian_cycle(s.graph, s.cycle)
        assert s.id in s.graph.vertices
    assert_fifos_ordered_and_retained(engine)
    deleted = [
        s for v, s in engine.nodes.items() if v not in engine.online | engine.offline
    ]
    vertices = online[0].graph.vertices
    for s in deleted:
        assert s.id not in vertices or engine.nodes[s.id] is not s  # id may be reused


def test_trace_lines_are_tab_separated_with_sparse_snapshots():
    result = run_scenario(no_churn_cfg())
    lines = result.trace_text().splitlines()
    assert lines, "trace must not be empty"
    for line in lines:
        assert line.count("\t") == 2
    first = lines[0].split("\t")
    assert first[2]  # setup line carries the cycle
    assert all(line.split("\t")[2] == "" for line in lines[1:])
