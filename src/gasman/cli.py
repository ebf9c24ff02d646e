"""Command-line front end: run scenarios, exercise single proofs, validate
trace files, and emit scenario presets."""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from dataclasses import replace
from pathlib import Path
from random import Random
from typing import Optional

from .graph import (
    GraphError,
    HamiltonianCycle,
    build_initial_graph,
)
from .simulator import (
    ChurnConfig,
    GeometricConfig,
    ScenarioConfig,
    ScenarioError,
    run_scenario,
)
from .zkp import HonestProver, OneBranchCheater, run_proof


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gasman",
        description="Self-organized membership authentication: simulator and proof tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate a scenario file")
    run_p.add_argument("--scenario", required=True, help="scenario JSON path")
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run_p.add_argument("--trace", required=True, help="trace output path")
    run_p.add_argument("--metrics", required=True, help="metrics JSON output path")
    run_p.set_defaults(func=cmd_run)

    prove_p = sub.add_parser("prove", help="run one honest and one cheating proof")
    prove_p.add_argument("--nodes", type=int, required=True)
    prove_p.add_argument("--edges", type=int, required=True)
    prove_p.add_argument("--rounds", type=int, required=True)
    prove_p.add_argument("--seed", type=int, required=True)
    prove_p.add_argument("--cheat", action="store_true", help="measure the cheater accept rate")
    prove_p.add_argument("--trials", type=int, default=1000, help="cheater trials with --cheat")
    prove_p.set_defaults(func=cmd_prove)

    check_p = sub.add_parser("trace-check", help="validate a trace file's cycle snapshots")
    check_p.add_argument("path", help="trace file to validate")
    check_p.set_defaults(func=cmd_trace_check)

    gen_p = sub.add_parser("gen-scenario", help="emit scenario presets")
    gen_p.add_argument("--preset", default="paperV", help="preset family name")
    gen_p.add_argument("--out", required=True, help="output directory")
    gen_p.set_defaults(func=cmd_gen_scenario)
    return parser


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def cmd_run(args: argparse.Namespace) -> int:
    try:
        text = Path(args.scenario).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = ScenarioConfig.from_json(text)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        result = run_scenario(cfg)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        Path(args.trace).write_text(result.trace_text(), encoding="utf-8")
        Path(args.metrics).write_text(result.metrics.to_json(), encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    if result.outcome == "terminated":
        print(f"life-cycle terminated at {result.terminated_at:.2f}s", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# prove
# ---------------------------------------------------------------------------

def cmd_prove(args: argparse.Namespace) -> int:
    for flag, count in (("--rounds", args.rounds), ("--trials", args.trials)):
        if count < 1:
            print(f"error: {flag} must be at least 1, got {count}", file=sys.stderr)
            return 1
    rng = Random(args.seed)
    try:
        graph, cycle = build_initial_graph(args.nodes, args.edges, rng)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    honest = run_proof(graph, HonestProver(graph, cycle, rng), args.rounds, rng)
    print(f"honest proof: {'accept' if honest.accepted else 'reject'} "
          f"({honest.rounds_completed} rounds)")

    cheater = OneBranchCheater(graph, rng)
    single = run_proof(graph, cheater, args.rounds, rng)
    if single.accepted:
        print(f"cheater proof: accept ({args.rounds} rounds)")
    else:
        print(f"cheater proof: reject at round {single.failed_round} ({single.reason})")

    ok = honest.accepted
    if args.cheat:
        accepted = sum(
            1 for _ in range(args.trials)
            if run_proof(graph, cheater, args.rounds, rng).accepted
        )
        rate = accepted / args.trials
        expected = 0.5 ** args.rounds
        print(f"cheater accept rate: {rate:.4f} over {args.trials} trials "
              f"(expected {expected:.4g})")
        sigma = math.sqrt(expected * (1 - expected) / args.trials)
        if abs(rate - expected) > 5 * sigma + 0.01:
            print("cheater accept rate outside expectation", file=sys.stderr)
            ok = False
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# trace-check
# ---------------------------------------------------------------------------

def cmd_trace_check(args: argparse.Namespace) -> int:
    """Exit 0 if every non-blank line holds a time, an event and a cycle
    snapshot, tab-separated; times finite and never decreasing, as the engine
    writes them; each snapshot empty or distinct ids one splice from the last
    snapshot.  Else print ``error: ...`` and exit 1."""
    try:
        lines = Path(args.path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 1
    previous: Optional[HamiltonianCycle] = None
    last_time = -math.inf
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) == 2:
            parts.append("")  # tolerate a stripped trailing tab on empty snapshots
        if len(parts) != 3:
            print(f"error: line {number}: expected 3 tab-separated fields", file=sys.stderr)
            return 1
        time_text, _, hc_text = parts
        try:
            time = float(time_text)
        except ValueError:
            time = math.nan
        if not math.isfinite(time) or time < last_time:
            print(f"error: line {number}: bad or decreasing time {time_text!r}", file=sys.stderr)
            return 1
        last_time = time
        if not hc_text.strip():
            continue
        try:
            ids = tuple(int(x) for x in hc_text.split(","))
            snapshot = HamiltonianCycle(ids)
        except ValueError:
            print(f"error: line {number}: bad cycle snapshot", file=sys.stderr)
            return 1
        if len(set(ids)) != len(ids):
            print(f"error: line {number}: repeated id in snapshot", file=sys.stderr)
            return 1
        if previous is not None and not _splice_consistent(previous, snapshot):
            print(
                f"error: line {number}: snapshot is not a single splice of the previous one",
                file=sys.stderr,
            )
            return 1
        previous = snapshot
    return 0


def _splice_consistent(old: HamiltonianCycle, new: HamiltonianCycle) -> bool:
    """True iff ``new`` is ``old`` with one node spliced in or out."""
    shorter, longer = sorted((old, new), key=lambda hc: len(hc.vertices))
    fewer, more = shorter.vertices, longer.vertices
    if len(more) != len(fewer) + 1 or not fewer < more:
        return False
    (spliced,) = more - fewer
    return HamiltonianCycle(tuple(v for v in longer.order if v != spliced)).order == shorter.order


# ---------------------------------------------------------------------------
# gen-scenario
# ---------------------------------------------------------------------------

#: Sweep values for the preset family: node counts, churn levels, square areas.
PRESET_NODES = (15, 30, 50, 100)
PRESET_CHURN = (0.05, 0.10, 0.25)
PRESET_AREAS = (250.0, 500.0, 750.0)


def cmd_gen_scenario(args: argparse.Namespace) -> int:
    if args.preset != "paperV":
        print(f"error: unknown preset {args.preset!r}", file=sys.stderr)
        return 1
    variants: list[tuple[str, object]] = [("fullmesh", "full_mesh")]
    for area in PRESET_AREAS:
        geo = GeometricConfig(area_side=area, speed_max=20.0, pause=0.5,
                              data_range=250.0, secure_range=5.0)
        variants.append((f"area{int(area)}", geo))
    files: dict[str, str] = {}
    for n, churn, (label, connectivity) in itertools.product(PRESET_NODES, PRESET_CHURN, variants):
        cfg = ScenarioConfig(n_initial=n, m=2 * n, T=10.0, l=20, duration=200.0, seed=1,
                             churn=ChurnConfig(churn, churn, churn), connectivity=connectivity)
        files[f"n{n}_churn{int(churn * 100):02d}_{label}.json"] = cfg.to_json()
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write scenarios: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(files)} scenario files to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
