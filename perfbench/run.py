#!/usr/bin/env python3
"""gasman benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mesh_churn --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with no probes installed, in
reference seconds (see ``hostspeed.py``).  ``--trace 1`` runs the same work twice per request, untraced and then traced,
and reports the per-layer metrics, the tracing overhead, and the spans file
under ``perfbench/out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The line before it
holds the plain fields (output digests, ``nproc``, Python version).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-ups per run, each in a fresh interpreter, half before and half after
#: the timed loop; ``setup_s`` is their median.  The host's speed drifts over
#: seconds, and one short burst of set-ups would sample a single instant of
#: it.  Child processes keep their imports out of this process's peak RSS.
SETUP_REPEATS = 6

#: What ``ops_per_s`` is called in the table, per workload kind.
ALIASES = {
    "simulation": {"ops_per_s": ("sim_speed", "simulated s/s")},
    "proofs": {"ops_per_s": ("proofs_per_s", "1/s")},
}
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=["mesh_churn", "geo_mobility", "proof_stream", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "smoke"], default="full",
                        help="smoke: tiny sizes that only check the harness")
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_sample(args) -> int:
    """In a fresh interpreter: time ``import gasman`` plus the initial
    instance, between calibration kernels (``hostspeed.py``)."""
    from hostspeed import kernel_s, slowdown
    from workloads import WORKLOADS

    kernels = [kernel_s() for _ in range(3)]
    start = time.perf_counter()
    gasman = importlib.import_module("gasman")
    WORKLOADS[args.workload].setup(gasman, args.scale, args.seed)
    took = time.perf_counter() - start
    kernels += [kernel_s() for _ in range(3)]
    print(json.dumps({"host_s": took, "slowdown": slowdown(kernels)}))
    return 0


def setup_samples(args, count) -> list[dict]:
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--scale", args.scale, "--setup-sample"]
    samples = []
    for _ in range(count):
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True,
                              timeout=60)
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


def run_one(args) -> int:
    from hostspeed import HostClock
    from workloads import WORKLOADS, Outcome, percentile, throughput

    workload = WORKLOADS[args.workload]
    setups = [] if args.trace else setup_samples(args, SETUP_REPEATS // 2)
    gasman = importlib.import_module("gasman")
    importlib.import_module("gasman.cli")
    start = time.perf_counter()
    instance = workload.setup(gasman, args.scale, args.seed)
    build_s = time.perf_counter() - start
    OUT.mkdir(exist_ok=True)
    out = Outcome()
    kind = "proofs" if args.workload == "proof_stream" else "simulation"

    if args.trace:
        from tracer import Probes, Recorder

        rec = Recorder()
        probes = Probes(rec)
        # One set-up under the probes, so set-up work shows per layer too.
        probes.install()
        try:
            start = time.perf_counter()
            workload.setup(gasman, args.scale, args.seed)
            out.traced_s += time.perf_counter() - start
        finally:
            probes.uninstall()
        out.untraced_s += build_s
        workload.run(gasman, args.scale, args.seed, instance, args.seconds, out, OUT, rec, probes)
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        rec.write(spans_path)
        metrics = layer_metrics(rec, out)
        coverage = sum(rec.layer_self_s().values()) / out.traced_s
        out.check(0.97 <= coverage <= 1.0 + 1e-9,
                  f"layer self times cover {coverage:.4f} of the traced wall time")
        out.info.update(spans=str(spans_path.relative_to(ROOT)), spans_recorded=len(rec.spans),
                        layer_coverage=round(coverage, 6))
    else:
        out.clock = clock = HostClock()
        clock.start()
        try:
            workload.run(gasman, args.scale, args.seed, instance, args.seconds, out, OUT)
        finally:
            clock.stop()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setups += setup_samples(args, SETUP_REPEATS - len(setups))
        # Host seconds over the kernel's slowdown are reference seconds.
        metrics = {
            "setup_s": statistics.median(s["host_s"] / s["slowdown"] for s in setups),
            "ops_per_s": throughput(out) * clock.slowdown(),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()}
        out.info.update(
            host_setup_s=statistics.median(s["host_s"] for s in setups),
            host_ops_per_s=throughput(out), host_slowdown=clock.slowdown(),
            kernel_samples=len(clock.samples))

    failed_ratio = out.failed / out.attempted
    print(f"gasman benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} scale={args.scale}")
    print("  times in " + ("host seconds" if args.trace else "reference seconds (hostspeed.py)"))
    for name, metric in metrics.items():
        alias, unit = ALIASES[kind].get(name, (name, metric["unit"]))
        print(f"  {alias:42s} {metric['value']:.6g} {unit}")
    if kind == "proofs" and not args.trace:
        # Printed, not metrics: on a machine whose speed flips between states
        # for seconds at a time, the median proof jumps between those states.
        for q in (0.5, 0.95):
            name = f"proof_ms_p{round(100 * q)}"
            value = 1000 * percentile(out.samples_s, q)
            print(f"  {name:42s} {value:.6g} ms (of {len(out.samples_s)} proofs)")
    print(f"  {'failed_ratio':42s} {failed_ratio:.6g} fraction "
          f"({out.failed} of {out.attempted} operations)")
    for problem in out.problems:
        print(f"  FAILED: {problem}")
    info = {"workload": args.workload, "seed": args.seed, "failed_ratio": failed_ratio,
            **out.info, "nproc": os.cpu_count(), "python": platform.python_version()}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": out.failed == 0, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


def layer_metrics(rec, out) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from one traced run."""
    calls, self_s, counts, maxima = rec.calls, rec.self_s, rec.counts, rec.maxima

    def ratio(part, whole):
        return part / whole if whole else 0.0

    def distinct(key, whole):
        return ratio(len(rec.unique.get(key, ())), whole)

    splices = calls["graph.splice_insert"] + calls["graph.splice_delete"]
    values = {}
    for name in ("graph.Graph_init", "graph.encode_graph", "graph.splice_insert",
                 "graph.splice_delete", "graph.permute_graph", "graph.is_hamiltonian_cycle",
                 "zkp.run_proof", "protocol.apply_update_record", "protocol.prune_fifo",
                 "simulator.broadcast_deliver"):
        values[name + ".calls"] = (calls[name], "count")
        values[name + ".self_s"] = (self_s[name], "s")
    for name in ("graph.neighbor_set_for_insert", "graph.build_initial_graph",
                 "zkp.prover_commit", "zkp.verifier_check", "protocol.apply_insertion_update",
                 "protocol.apply_deletion_update", "simulator.step_mobility",
                 "simulator.run_scenario", "simulator.heap"):
        values[name + ".self_s"] = (self_s[name], "s")
    values.update({
        "graph.encode_graph.unique_ratio": (
            distinct("graph.encode_graph", calls["graph.encode_graph"]), "ratio"),
        "graph.splice.unique_ratio": (distinct("graph.splice", splices), "ratio"),
        "zkp.digest.calls": (calls["zkp.digest"], "count"),
        "zkp.digest.bytes": (counts["zkp.digest.bytes"], "bytes"),
        "zkp.rounds": (calls["zkp.verifier_check"], "count"),
        "zkp.accept_ratio": (
            ratio(counts["zkp.run_proof.accepted"], calls["zkp.run_proof"]), "ratio"),
        "protocol.fifo.max_len": (maxima["protocol.fifo.max_len"], "count"),
        "protocol.access_control.calls": (calls["protocol.access_control"], "count"),
        "protocol.access_control.granted_ratio": (
            ratio(counts["protocol.access_control.granted"], calls["protocol.access_control"]), "ratio"),
        "protocol.authenticator_insert.committed_ratio": (
            ratio(counts["protocol.authenticator_insert.committed"],
                  calls["protocol.authenticator_insert"]), "ratio"),
        "protocol.apply_catch_up.records": (counts["protocol.apply_catch_up.records"], "count"),
        "simulator.reachable.calls": (counts["simulator.reachable.calls"], "count"),
        "simulator.events.popped": (counts["simulator.events.popped"], "count"),
        "simulator.deliver.total": (counts["simulator.deliver.total"], "count"),
        "simulator.deliver.PolAnswer": (counts["simulator.deliver.PolAnswer"], "count"),
        "simulator.heap.max_len": (maxima["simulator.heap.max_len"], "count"),
        "trace.wall_s": (out.traced_s, "s"),
        "trace.overhead": (out.traced_s / out.untraced_s, "ratio"),
    })
    for layer, seconds in rec.layer_self_s().items():
        values[f"layer.{layer}.self_s"] = (seconds, "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def run_all(args) -> int:
    """Every workload, one after another, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("mesh_churn", "geo_mobility", "proof_stream"):
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gasman" / "__init__.py").is_file():
        print(f"error: no gasman sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    if args.setup_sample:
        return setup_sample(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
