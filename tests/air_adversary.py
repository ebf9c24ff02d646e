"""A test-side adversary on the air: forged membership messages.

GASMAN's membership messages (``PolInitiate``, ``PolAnswer``, ``PolSummary``,
``InsertionAnnounce``, ``InsertionAck``, ``NeighborSetBroadcast``) carry a
self-reported ``sender`` and no tag.  A receiver checks stage order and the
Sybil rules (``protocol.detect_sybil``), nothing more, so anyone in radio
range can put any of them on the air.  This adversary hears every broadcast
of a run, and at chosen simulated times puts forged messages on the air
through the engine's one broadcast entry, ``_Engine._broadcast``: the radio
floods a forgery as it floods any member's broadcast, and meters its copies.
In a geometric run the radio floods only from a placed sender, so a forger
first stands beside a member (``stand``).

Standard library only; no part of gasman uses it.
"""

from __future__ import annotations

from typing import Callable


def at(engine, when: float, action: Callable[[], None]) -> None:
    """Run ``action()`` at ``when`` simulated seconds, as one event of the run.

    It is queued like any engine event, so it runs after the events already
    queued for the same microsecond.
    """
    engine._on_adversary = lambda act: act()
    engine._push(round(when * 1_000_000), "adversary", (action,))


def forge(engine, msg) -> None:
    """Put ``msg`` on the air now, from its self-reported sender."""
    engine._broadcast(msg)


def stand(engine, forger: int, beside: int) -> None:
    """Stand ``forger`` where member ``beside`` stands now, so that the radio
    of a geometric run can flood its forgeries; a full mesh needs no place.
    It stays on the square, and the waypoint walk moves it from then on."""
    engine.radio.place(forger, beside)


def overhear(engine, hear: Callable[[object, tuple], None]) -> None:
    """Call ``hear(msg, recipients)`` for every broadcast the radio puts on
    the air, with the members it reaches in id order: the sender's component
    less the sender."""
    radio = engine.radio
    flood = radio.flood

    def heard(msg, online):
        component = flood(msg, online)
        hear(msg, tuple(v for v in component if v != msg.sender))
        return component

    radio.flood = heard
