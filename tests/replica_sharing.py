"""How many replica objects the on-line members hold, against how many
distinct replica contents they hold.

Members that agree should share one ``Replica`` value, so that each
membership update is computed once per distinct content.  Each run below is
sampled every 10 simulated seconds, after every event due by then.  A sample
counts, over the on-line members, the distinct ``Replica`` objects, the
distinct contents (graph, cycle, stage, FIFO, stage history and on-line
view) and the members.  A row sums those three counts over the samples.

The runs: full mesh n = 100 and n = 1000, and geometric n = 100 on a 500 m
square (speed 20, pause 0.5, data range 250, secure range 5), each with
m = 2n, T 10, l 20, churn 0.1 each, seed 11 and 200 simulated seconds.

    python tests/replica_sharing.py [--expect RATIO]

prints one row per run, ``objects / contents in members``, and with
``--expect`` exits 1 when some row holds more than RATIO objects per
distinct content.  Standard library only; ``gasman`` is imported from the
checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import heapq
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from gasman.scenario import ChurnConfig, GeometricConfig, ScenarioConfig  # noqa: E402
from gasman.simulator import _Engine  # noqa: E402

SAMPLE_US = 10_000_000
RUNS = (
    ("full mesh n=100", 100, "full_mesh"),
    ("full mesh n=1000", 1000, "full_mesh"),
    ("geometric n=100", 100, GeometricConfig(500.0, 20.0, 0.5, 250.0, 5.0)),
)


def content(replica) -> tuple:
    return (replica.graph, replica.cycle, replica.stage, replica.fifo,
            frozenset(replica.stage_history.items()), replica.online_view)


def samples(engine: _Engine):
    """Run ``engine`` as ``_Engine.run`` does, yielding the on-line members'
    replicas after every event due by each sample time."""
    heap = engine._heap
    for t_us in range(SAMPLE_US, int(engine.cfg.duration * 1_000_000) + 1, SAMPLE_US):
        while heap and engine.terminated_at is None and heap[0][0] <= t_us:
            engine.now_us, _, kind, payload = heapq.heappop(heap)
            engine._act(kind, payload)
        yield [engine.nodes[v].replica for v in sorted(engine.online)]


def sharing(n: int, connectivity) -> tuple[int, int, int]:
    """Distinct objects, distinct contents and members, summed over samples."""
    engine = _Engine(ScenarioConfig(
        n_initial=n, m=2 * n, T=10.0, l=20, duration=200.0, seed=11,
        churn=ChurnConfig(0.1, 0.1, 0.1), connectivity=connectivity,
    ))
    objects = contents = members = 0
    for replicas in samples(engine):
        objects += len({id(r) for r in replicas})
        contents += len({content(r) for r in replicas})
        members += len(replicas)
    return objects, contents, members


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--expect", type=float, metavar="RATIO",
                        help="exit 1 if a row holds more than RATIO objects per content")
    args = parser.parse_args(argv)
    failed = False
    for name, n, connectivity in RUNS:
        objects, contents, members = sharing(n, connectivity)
        print(f"{name}: {objects} / {contents} in {members}")
        if args.expect is not None and objects > args.expect * contents:
            print(f"{name}: more than {args.expect} objects per content", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
