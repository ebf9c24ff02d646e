"""Forged membership messages on the air: what a forger can do today.

These tests record measured effects, not wanted behaviour.  Membership
messages carry no authentication, so every replica applies a forgery that
passes the stage and Sybil checks.
"""

from random import Random

from air_adversary import at, forge, overhear, stand

from gasman.graph import neighbor_set_for_insert
from gasman.protocol import NeighborSetBroadcast, PolAnswer, PolInitiate, PolSummary, insert_degree
from gasman.scenario import ChurnConfig, GeometricConfig, ScenarioConfig, ScriptedOp
from gasman.simulator import _Engine

FORGER = 10**6  # an id no replica holds
PHANTOM = 10**6 + 1  # the id a forged insertion adds


def online_orders(engine) -> tuple[int, set[int]]:
    return len(engine.online), {engine.nodes[v].graph.order for v in engine.online}


def test_a_forged_summary_deletes_all_but_three_members_in_one_hop():
    """A full-mesh run (n 30, m 60, T 10, l 20, seed 11, churn 0.1 each) has
    33 members on-line at 30 s, each holding a graph of order 34.  There a
    ``PolSummary`` from id 10**6 names members 0, 1 and 2 alive and every
    other member for deletion.  Every on-line replica applies it one hop
    later: on-line falls from 33 to 3, and every on-line graph from order 34
    to 3."""
    engine = _Engine(ScenarioConfig(
        n_initial=30, m=60, T=10.0, l=20, duration=40.0, seed=11,
        churn=ChurnConfig(0.1, 0.1, 0.1),
    ))
    seen = []

    def send():
        seen.append(online_orders(engine))
        alive = frozenset({0, 1, 2})
        members = engine.nodes[0].graph.vertices
        forge(engine, PolSummary(
            sender=FORGER, stage=engine.nodes[0].stage, sent_at=engine.now_s,
            window=3, alive=alive, deletions=members - alive,
        ))

    at(engine, 30.0, send)
    at(engine, 30.002, lambda: seen.append(online_orders(engine)))
    engine.run()
    assert seen == [(33, {34}), (3, {3})]
    assert engine.online == {0, 1, 2}


def test_a_forged_summary_in_a_geometric_run_reaches_the_forgers_component():
    """The run of the test above on a 1000 m square (speed up to 20 m/s,
    pause 0.5 s, data range 250 m, secure range 5 m) has 29 members on-line
    at 30 s.  The forger stands beside member 0 and sends the same
    ``PolSummary``.  Its flood reaches 28 of them: all but node 8, which no
    path of the square links to the forger.  Members 0, 1 and 2 apply it and
    drop every graph to order 3, and the other 25 recipients are off-line by
    the time their copy is handled.  Node 8 leaves the on-line set too,
    without hearing the forgery: the engine keeps one status per member, and
    a member one replica deletes is deleted.  At 32 s member 0 turns off and
    the network terminates with two members on-line.

    The forger stays on the square.  It copies member 0's waypoint, so the
    walk moves it in step with member 0 to the end of this run, and the run
    draws nothing more from its generator.  In a 100 s run of the
    same scenario without the forgery, the two pause at 52.5 s and draw
    separate waypoints.  The walk's extra draws then shift the churn's: from
    56 s the run no longer matches one without a forger."""
    engine = _Engine(ScenarioConfig(
        n_initial=30, m=60, T=10.0, l=20, duration=40.0, seed=11,
        churn=ChurnConfig(0.1, 0.1, 0.1),
        connectivity=GeometricConfig(1000.0, 20.0, 0.5, 250.0, 5.0),
    ))
    seen, online, reached = [], set(), []
    overhear(engine, lambda msg, recipients: msg.sender == FORGER and reached.append(recipients))

    def send():
        seen.append(online_orders(engine))
        online.update(engine.online)
        stand(engine, FORGER, 0)
        alive = frozenset({0, 1, 2})
        members = engine.nodes[0].graph.vertices
        forge(engine, PolSummary(
            sender=FORGER, stage=engine.nodes[0].stage, sent_at=engine.now_s,
            window=3, alive=alive, deletions=members - alive,
        ))

    at(engine, 30.0, send)
    at(engine, 30.002, lambda: seen.append(online_orders(engine)))
    engine.run()
    assert seen == [(29, {30}), (3, {3})]
    assert reached == [tuple(sorted(online - {8}))]
    assert (engine.terminated_at, engine.online) == (32.0, {1, 2})
    assert engine.radio.positions[FORGER] == engine.radio.positions[0]


def test_a_forged_insertion_keeps_a_phantom_in_every_graph_for_two_windows():
    """A full-mesh run as in the first test has 33 members on-line at 30 s,
    at stage 6 with graphs of order 34.  There a ``NeighborSetBroadcast``
    from id 10**6 inserts id 10**6 + 1, which no replica holds, with a
    neighbour set drawn on member 0's replica (a forger that reads no
    replica would have to guess a cycle-adjacent pair).  One hop later every
    on-line replica has spliced the phantom in: order 35, stage 7, and no
    Sybil flag raised.  Nothing ever answers for it.  The summaries of
    30.37 s and 40.40 s report it silent, and that of 50.47 s deletes it
    from every on-line replica.  A member off-line at 50.47 s keeps it."""
    engine = _Engine(ScenarioConfig(
        n_initial=30, m=60, T=10.0, l=20, duration=60.0, seed=11,
        churn=ChurnConfig(0.1, 0.1, 0.1),
    ))

    def phantoms():
        online = sorted(engine.online)
        states = [engine.nodes[v] for v in online]
        return (len(online), {s.graph.order for s in states}, {s.stage for s in states},
                sum(PHANTOM in s.graph.vertices for s in states))

    seen = []

    def send():
        seen.append(phantoms())
        graph, cycle = engine.nodes[0].graph, engine.nodes[0].cycle
        neighbors = neighbor_set_for_insert(graph, cycle, insert_degree(graph), Random(0))
        forge(engine, NeighborSetBroadcast(
            sender=FORGER, stage=engine.nodes[0].stage, sent_at=engine.now_s,
            node=PHANTOM, neighbors=neighbors,
        ))

    at(engine, 30.0, send)
    at(engine, 30.002, lambda: seen.append(phantoms()))
    text = engine.run().trace_text()
    assert seen == [(33, {34}, {6}, 0), (33, {35}, {7}, 33)]
    events = [line.split("\t")[:2] for line in text.splitlines()]
    assert [event for event in events if str(PHANTOM) in event[1]] == [
        ["30.37", "Nodes 8, 34, 1000001 do not answer to the proof of life"],
        ["40.40", "Nodes 2, 1000001 do not answer to the proof of life"],
        ["50.47", "Nodes 2, 21, 22, 1000001 do not answer to the proof of life"],
        ["50.47", "Node 1000001 is deleted"],
    ]
    assert not any(PHANTOM in engine.nodes[v].graph.vertices for v in engine.online)
    assert not any(state.sybil_flags for state in engine.nodes.values())


def test_forged_answers_keep_a_silent_member_in_every_graph():
    """With zero churn (full mesh n 30, m 60, T 10, l 20, seed 11, 100 s),
    node 7 turns off at 5 s.  Left alone, the proof of life of window 1
    reports it silent at 10.30 s and that of window 2 deletes it at 20.35 s.
    A forger that hears each ``PolInitiate`` and answers it 0.1 s later in
    node 7's name, nine answers in the run, keeps node 7 in every on-line
    graph to the end, and no window reports it silent."""

    def run(forged: bool):
        engine = _Engine(ScenarioConfig(
            n_initial=30, m=60, T=10.0, l=20, duration=100.0, seed=11,
            script=(ScriptedOp(time=5.0, op="turn_off", node=7),),
        ))
        answers = []

        def hear(msg, recipients):
            if forged and isinstance(msg, PolInitiate):
                answer = PolAnswer(
                    sender=7, stage=msg.stage, sent_at=msg.sent_at + 0.1,
                    claimed_id=7, window=msg.window,
                )
                answers.append(answer)
                at(engine, answer.sent_at, lambda: forge(engine, answer))

        overhear(engine, hear)
        text = engine.run().trace_text()
        kept = all(7 in engine.nodes[v].graph.vertices for v in engine.online)
        node_7 = [line for line in text.splitlines() if "Node 7 " in line]
        return len(answers), kept, node_7

    assert run(forged=False) == (0, False, [
        "5.00\tNode 7 turns off\t",
        "10.30\tNode 7 does not answer to the proof of life\t",
        "20.35\tNode 7 does not answer to the proof of life\t",
        "20.35\tNode 7 is deleted\t0,10,8,1,2,4,26,3,20,15,23,5,6,18,16,25,29,24,17,27,14,19,9,13,12,22,11,28,21",
    ])
    assert run(forged=True) == (9, True, ["5.00\tNode 7 turns off\t"])
