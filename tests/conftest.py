import sys
from pathlib import Path

# Allow running the suite straight from a checkout, without installing.
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def record_air(engine) -> list:
    """Return a list that collects every message ``engine`` puts on the air.

    The engine keeps no message log; its radio's ``TrafficMetrics`` only
    count.  This wraps the radio's two send paths on the instance: every
    broadcast is logged, and a unicast only when the channel carried it.  The
    engine and the proof transport call the radio through an attribute, so
    they see the wrappers.
    """
    air: list = []
    radio = engine.radio
    flood, send = radio.flood, radio.send

    def logged_flood(msg, sender, online):
        recipients = flood(msg, sender, online)
        air.append(msg)
        return recipients

    def logged_send(msg, src, dst):
        sent = send(msg, src, dst)
        if sent:
            air.append(msg)
        return sent

    radio.flood = logged_flood
    radio.send = logged_send
    return air
