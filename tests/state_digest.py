"""One SHA-256 over the full engine state a batch of random scenarios leaves.

The golden digests see only what a run prints: its trace and its metrics.
This one also sees the replica state nothing prints.  For each scenario it
hashes the trace, the metrics and the outcome, and for every node the engine
ever held: its membership (on-line, off-line or deleted), stage, stage
history, FIFO (record kind, stage, timestamp), on-line view, Sybil flags and
replica fingerprint.  Two versions of the engine that print the same bytes
can still be told apart by it.

The scenarios are drawn from ``Random(seed)``: n 8-40 with m = 2n; a full
mesh, a geometric square, or a geometric square whose secure range exceeds
its data range; T 2-10; each churn probability 0.05-0.5; 100 s.

    python tests/state_digest.py --scenarios 400 --seed 0 [--expect HEX]

prints the scenario count and the digest, and with ``--expect`` exits 1 when
the digest is not HEX.  Standard library only; ``gasman`` is imported from
the checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path
from random import Random

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from gasman.simulator import ChurnConfig, GeometricConfig, ScenarioConfig, _Engine  # noqa: E402


def draw_scenario(rng: Random) -> ScenarioConfig:
    n = rng.randint(8, 40)
    side = rng.choice((300.0, 500.0, 800.0))
    connectivity = rng.choice((
        "full_mesh",
        GeometricConfig(side, 20.0, 0.5, 250.0, 5.0),
        GeometricConfig(side, 20.0, 0.5, 120.0, 200.0),
    ))
    churn = ChurnConfig(*(round(rng.uniform(0.05, 0.5), 3) for _ in range(3)))
    return ScenarioConfig(
        n_initial=n, m=2 * n, T=float(rng.randint(2, 10)), l=5, duration=100.0,
        seed=rng.randrange(2**31), churn=churn, connectivity=connectivity,
    )


def node_lines(engine: _Engine):
    for v in sorted(engine.nodes):
        state = engine.nodes[v]
        membership = "on" if v in engine.online else "off" if v in engine.offline else "deleted"
        history = sorted((s, d.hex(), t) for s, (d, t) in state.stage_history.items())
        fifo = [(type(r).__name__, r.stage, r.timestamp) for r in state.fifo]
        yield repr((
            v, membership, state.stage, history, fifo, sorted(state.online_view),
            sorted(state.sybil_flags), state.fingerprint().hex(),
        ))


def state_digest(scenarios: int, seed: int) -> str:
    rng = Random(seed)
    h = hashlib.sha256()
    for _ in range(scenarios):
        cfg = draw_scenario(rng)
        engine = _Engine(cfg)
        result = engine.run()
        parts = [cfg.to_json(), result.outcome, result.trace_text(), result.metrics.to_json()]
        for text in (*parts, *node_lines(engine)):
            h.update(text.encode() + b"\n")
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scenarios", type=int, default=400)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--expect", metavar="HEX", help="exit 1 unless the digest is HEX")
    args = parser.parse_args(argv)
    digest = state_digest(args.scenarios, args.seed)
    print(args.scenarios, digest)
    if args.expect is not None and digest != args.expect:
        print(f"state digest mismatch: expected {args.expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
