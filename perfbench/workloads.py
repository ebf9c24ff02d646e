"""The benchmark's workloads: inputs made from the seed, set-up, the timed
loop and the correctness checks.

Every workload is a closed loop with one caller in one single-threaded
process.  An *operation* is one simulated second of ``run_scenario`` on the
simulator workloads and one honest 20-round ``run_proof`` on ``proof_stream``.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

from hostspeed import WallClock

#: Proof rounds, as in the paper's default negotiation.
ROUNDS = 20
#: One-branch cheater proofs per run; every one must be rejected.
CHEATER_PROOFS = 8
#: Churn probabilities per simulated second (insertion, turn-off, turn-on).
CHURN = (0.1, 0.1, 0.1)
#: Geometric mode: square side, top speed, pause, data and secure range.
GEOMETRY = (500.0, 20.0, 0.5, 250.0, 5.0)

#: Sizes per scale.  ``full`` is the benchmark; ``smoke`` only checks that
#: the harness works end to end.  Scenarios last 100 simulated seconds, the
#: length the workloads were profiled at: state such as the replicas' FIFOs
#: grows over a scenario, so shorter ones would weight the cheap start.
#: ``traced_s`` is about what one request costs in a traced run (untraced
#: plus traced pass), which sets how many requests a traced run does.
SIZES = {
    "full": {
        "mesh_churn": {"n": 200, "m": 400, "duration": 100.0, "traced_s": 8.0},
        "geo_mobility": {"n": 100, "m": 200, "duration": 100.0, "traced_s": 15.0},
        "proof_stream": {"n": 128, "m": 256, "warmup": 5, "traced_s": 0.06},
    },
    "smoke": {
        "mesh_churn": {"n": 8, "m": 16, "duration": 25.0, "traced_s": 0.25},
        "geo_mobility": {"n": 8, "m": 16, "duration": 25.0, "traced_s": 0.25},
        "proof_stream": {"n": 8, "m": 16, "warmup": 2, "traced_s": 0.02},
    },
}

_perf = time.perf_counter


def sha256(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


@dataclass
class Outcome:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    samples_s: list[float] = field(default_factory=list)  # host s per operation
    ops: float = 0.0  # operations in the timed loop
    busy_s: float = 0.0  # host seconds those operations took
    info: dict = field(default_factory=dict)
    traced_s: float = 0.0
    untraced_s: float = 0.0
    clock: object = field(default_factory=WallClock)  # times the operations

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)


def cheater_batch(gasman, graph, seed: int, out: Outcome) -> None:
    """A fixed, untimed batch of one-branch cheater proofs; all must fail."""
    rng = Random(seed)
    cheater = gasman.OneBranchCheater(graph, rng)
    for i in range(CHEATER_PROOFS):
        result = gasman.run_proof(graph, cheater, ROUNDS, rng)
        out.check(not result.accepted, f"cheater proof {i} accepted")


class Simulation:
    """``run_scenario`` on a churning network, one sub-scenario after another.

    The seed fixes a sequence of scenario seeds.  The first scenario runs
    once untimed as a warm-up; the timed loop then runs the first scenario
    again followed by fresh ones until the time is up.  Every scenario's
    trace must pass ``gasman trace-check``, and a repeated scenario must
    reproduce the first run's trace and metrics bytes.
    """

    def __init__(self, name: str, geometric: bool) -> None:
        self.name = name
        self.geometric = geometric

    def sizes(self, scale: str) -> dict:
        return SIZES[scale][self.name]

    def scenario(self, gasman, scale: str, seed: int):
        size = self.sizes(scale)
        connectivity = gasman.GeometricConfig(*GEOMETRY) if self.geometric else "full_mesh"
        return gasman.ScenarioConfig(
            n_initial=size["n"], m=size["m"], T=10.0, l=ROUNDS,
            duration=size["duration"], seed=seed,
            churn=gasman.ChurnConfig(*CHURN), connectivity=connectivity,
        )

    @staticmethod
    def scenario_seeds(seed: int):
        rng = Random(f"scenarios:{seed}")
        while True:
            yield rng.randrange(2**31)

    def setup(self, gasman, scale: str, seed: int):
        """The initial instance of the first scenario, through public calls:
        the dealt graph and cycle plus one replica per member."""
        size = self.sizes(scale)
        first = next(self.scenario_seeds(seed))
        graph, cycle = gasman.build_initial_graph(size["n"], size["m"], Random(first))
        replicas = [gasman.NodeState.initial(v, graph, cycle) for v in sorted(graph.vertices)]
        return graph, cycle, replicas

    def run(self, gasman, scale, seed, instance, seconds, out: Outcome, workdir: Path,
            recorder=None, probes=None) -> None:
        graph, cycle, _ = instance
        cheater_batch(gasman, graph, seed, out)
        seeds = self.scenario_seeds(seed)
        first = next(seeds)
        checker = _TraceChecker(gasman, workdir / f"trace-{self.name}-{seed}.tsv", out)

        warm = self._call(gasman, self.scenario(gasman, scale, first), out.clock)[0]
        expected_snapshot = ",".join(str(v) for v in cycle.order)
        out.check(warm.trace[0].hc_snapshot is not None
                  and ",".join(map(str, warm.trace[0].hc_snapshot)) == expected_snapshot,
                  "first scenario did not start from the set-up instance")
        checker.check(first, warm)
        out.info["trace_sha256"] = checker.digests[first][0]
        out.info["metrics_sha256"] = checker.digests[first][1]

        queue = [first]
        more = _budget(seconds, recorder, self.sizes(scale)["traced_s"])
        while more(len(out.samples_s)):
            sub = queue.pop() if queue else next(seeds)
            cfg = self.scenario(gasman, scale, sub)
            results, wall = _request(lambda: self._call(gasman, cfg, out.clock),
                                     out, recorder, probes)
            for result in results:
                checker.check(sub, result)
            simulated = result.terminated_at if result.terminated_at is not None else cfg.duration
            out.samples_s.append(wall / simulated)
            out.ops += simulated
            out.busy_s += wall
        out.info["scenarios"] = len(out.samples_s)

    @staticmethod
    def _call(gasman, cfg, clock):
        run_scenario = gasman.simulator.run_scenario  # looked up late: probes may wrap it
        start = clock.now()
        result = run_scenario(cfg)
        return result, clock.now() - start


class _TraceChecker:
    """Runs ``gasman trace-check`` on a run's trace and compares digests."""

    def __init__(self, gasman, path: Path, out: Outcome) -> None:
        self.gasman = gasman
        self.path = path
        self.out = out
        self.digests: dict[int, tuple[str, str]] = {}

    def check(self, seed: int, result) -> None:
        text = result.trace_text()
        self.path.write_text(text, encoding="utf-8")
        code = self.gasman.cli.main(["trace-check", str(self.path)])
        self.out.check(code == 0, f"scenario {seed}: trace-check exited {code}")
        digests = (sha256(text), sha256(result.metrics.to_json()))
        first = self.digests.setdefault(seed, digests)
        self.out.check(digests == first, f"scenario {seed}: rerun changed the trace or metrics bytes")


class ProofStream:
    """Honest 20-round proofs on one fixed instance, back to back."""

    name = "proof_stream"

    def sizes(self, scale: str) -> dict:
        return SIZES[scale][self.name]

    def setup(self, gasman, scale: str, seed: int):
        """The shared instance and an honest prover; the prover draws its
        permutations from the same generator as the verifier's challenges."""
        size = self.sizes(scale)
        graph, cycle = gasman.build_initial_graph(size["n"], size["m"],
                                                  Random(f"instance:{seed}"))
        draws = Random(f"proofs:{seed}")
        return graph, cycle, gasman.HonestProver(graph, cycle, draws), draws

    def run(self, gasman, scale, seed, instance, seconds, out: Outcome, workdir: Path,
            recorder=None, probes=None) -> None:
        graph, cycle, prover, draws = instance
        size = self.sizes(scale)
        cheater_batch(gasman, graph, seed, out)

        transcript: list = []
        sample_rng = Random(f"transcript:{seed}")
        result = gasman.run_proof(graph, gasman.HonestProver(graph, cycle, sample_rng),
                                  ROUNDS, sample_rng, transcript)
        out.check(result.accepted, "transcript proof rejected")
        out.info["transcript_sha256"] = sha256(gasman.zkp.encode_transcript(transcript))

        for _ in range(size["warmup"]):
            out.check(gasman.run_proof(graph, prover, ROUNDS, draws).accepted,
                      "warm-up proof rejected")

        def call():
            run_proof = gasman.zkp.run_proof  # looked up late: probes may wrap it
            start = out.clock.now()
            result = run_proof(graph, prover, ROUNDS, draws)
            return result, out.clock.now() - start

        more = _budget(seconds, recorder, size["traced_s"])
        while more(len(out.samples_s)):
            # The traced pass repeats the untraced proof's draws.
            state = draws.getstate()
            results, wall = _request(call, out, recorder, probes,
                                     rewind=lambda: draws.setstate(state))
            for result in results:
                out.check(result.accepted, "honest proof rejected")
            out.samples_s.append(wall)
            out.ops += 1
            out.busy_s += wall


def _request(call, out: Outcome, recorder, probes, rewind=None):
    """One request: ``call()`` returns ``(result, wall)``.  With a recorder,
    the request runs again with the probes installed, and the two passes'
    wall times feed the tracing overhead.  Returns every pass's result and
    the last pass's wall time."""
    result, wall = call()
    if recorder is None:
        return [result], wall
    out.untraced_s += wall
    recorder.request += 1
    if rewind is not None:
        rewind()
    probes.install()
    try:
        traced, wall = call()
    finally:
        probes.uninstall()
    out.traced_s += wall
    return [result, traced], wall


def _budget(seconds: float, recorder, traced_s: float):
    """When to stop.  Untraced loops run for ``seconds``; a traced run does a
    fixed number of requests (``seconds / traced_s``), so that its counts
    repeat exactly from run to run and from commit to commit."""
    if recorder is not None:
        requests = max(1, int(seconds // traced_s))
        return lambda done: done < requests
    start = _perf()
    return lambda done: _perf() - start < seconds


WORKLOADS = {
    "mesh_churn": Simulation("mesh_churn", geometric=False),
    "geo_mobility": Simulation("geo_mobility", geometric=True),
    "proof_stream": ProofStream(),
}


def throughput(out: Outcome) -> float:
    """Operations per second over the whole timed loop, in the clock's seconds."""
    return out.ops / out.busy_s
