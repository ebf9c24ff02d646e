import sys
from pathlib import Path

# Allow running the suite straight from a checkout, without installing.
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def record_air(engine) -> list:
    """Return a list that collects every message ``engine`` puts on the air.

    The engine keeps no message log; its ``TrafficMetrics`` only count.  This
    wraps the engine's two send paths on the instance: every broadcast is
    logged, and a unicast only when the channel carried it.  The proof
    transport calls the engine through an attribute, so it sees the wrapper.
    """
    air: list = []
    broadcast, meter_unicast = engine._broadcast, engine._meter_unicast

    def logged_broadcast(msg, sender):
        broadcast(msg, sender)
        air.append(msg)

    def logged_unicast(msg, src, dst):
        sent = meter_unicast(msg, src, dst)
        if sent:
            air.append(msg)
        return sent

    engine._broadcast = logged_broadcast
    engine._meter_unicast = logged_unicast
    return air
