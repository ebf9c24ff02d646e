"""Forged membership messages on the air: what a forger can do today.

These tests record measured effects, not wanted behaviour.  Membership
messages carry no authentication, so every replica applies a forgery that
passes the stage and Sybil checks.
"""

from air_adversary import at, forge, overhear

from gasman.protocol import PolAnswer, PolInitiate, PolSummary
from gasman.scenario import ChurnConfig, ScenarioConfig, ScriptedOp
from gasman.simulator import _Engine

FORGER = 10**6  # an id no replica holds


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

        def hear(msg):
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
