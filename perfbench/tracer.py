"""Span recorder and layer probes for the traced benchmark run.

The probes wrap gasman's public functions from the outside, at the module
bindings the other layers call through (``gasman.protocol.splice_insert``,
``gasman.simulator.broadcast_deliver``, ``gasman.graph.Graph.__post_init__``
and so on).  Nothing under ``src/`` changes.  Every span belongs to one of the
four layers (the package modules ``graph``, ``zkp``, ``protocol`` and
``simulator``), so the layers' self times add up to the wall time of the
traced requests.

A span records its name, start, end, parent span and request id.  Spans stay
in memory and are written out as JSON lines when the run ends.  A span's self
time is its duration minus the time its child spans cover.  Two very hot
engine calls are probed more cheaply: the heap operations are timed and
counted without a span record (their time still counts as a child of the
enclosing span), and ``reachable`` is only counted.
"""

from __future__ import annotations

import heapq
import json
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("graph", "zkp", "protocol", "simulator")

_perf = time.perf_counter


class Recorder:
    """In-memory spans plus per-name aggregates, filled by the probes."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index, request id)
        self.stack: list = []  # open spans: [index, child seconds]
        self.request = 0
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.unique: dict[str, set] = {}

    def wrap(self, name: str, fn, observe=None):
        """A callable that runs ``fn`` inside a span called ``name``.

        ``observe(args, kwargs, result)`` runs inside the span, so a probe's
        own cost is charged to the layer it measures.
        """
        spans, stack, calls, self_s = self.spans, self.stack, self.calls, self.self_s
        rec = self

        def probe(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, kwargs, result)
                return result
            finally:
                end = _perf()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[index] = (name, start, end, parent, rec.request)
                calls[name] += 1
                self_s[name] += duration - frame[1]

        probe.__wrapped__ = fn
        return probe

    def charge(self, name: str, seconds: float) -> None:
        """Book a short call that gets no span record of its own."""
        self.self_s[name] += seconds
        if self.stack:
            self.stack[-1][1] += seconds

    def see(self, key: str, value) -> None:
        self.unique.setdefault(key, set()).add(value)

    def high(self, key: str, value: int) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    def layer_self_s(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            totals[name.split(".", 1)[0]] += seconds
        return totals

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")


class HeapProbe:
    """Stands in for the ``heapq`` module inside ``gasman.simulator``."""

    def __init__(self, rec: Recorder) -> None:
        self._rec = rec

    def __getattr__(self, attr):
        return getattr(heapq, attr)

    def heappush(self, heap, item) -> None:
        start = _perf()
        heapq.heappush(heap, item)
        self._rec.charge("simulator.heap", _perf() - start)
        self._rec.high("simulator.heap.max_len", len(heap))

    def heappop(self, heap):
        start = _perf()
        item = heapq.heappop(heap)
        rec = self._rec
        rec.charge("simulator.heap", _perf() - start)
        rec.counts["simulator.events.popped"] += 1
        # Engine events are (time, sequence, kind, payload) tuples.
        if len(item) >= 4 and item[2] == "deliver":
            rec.counts["simulator.deliver.total"] += 1
            rec.counts["simulator.deliver." + type(item[3][0]).__name__] += 1
        return item


class Probes:
    """Installs the probes on the loaded ``gasman`` modules and removes them."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self._undo: list = []

    def _modules(self):
        return [m for n, m in sys.modules.items() if n == "gasman" or n.startswith("gasman.")]

    def _rebind(self, original, replacement) -> None:
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def _set(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def function(self, layer: str, fn, observe=None) -> None:
        self._rebind(fn, self.rec.wrap(f"{layer}.{fn.__name__}", fn, observe))

    def method(self, layer: str, cls, attr: str, name: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self.rec.wrap(f"{layer}.{name}", raw.__func__)))
        else:
            self._set(cls, attr, self.rec.wrap(f"{layer}.{name}", raw))

    def install(self) -> None:
        from gasman import graph, protocol, simulator, zkp

        rec = self.rec
        see, high, counts = rec.see, rec.high, rec.counts

        # graph: constructors of the immutable values, encodings, splices,
        # relabeling and the cycle check.
        self.method("graph", graph.Graph, "__post_init__", "Graph_init")
        self.method("graph", graph.HamiltonianCycle, "__post_init__", "HamiltonianCycle_init")
        self.method("graph", graph.Permutation, "__post_init__", "Permutation_init")
        self.method("graph", graph.Permutation, "random", "Permutation_random")
        self.function("graph", graph.encode_graph,
                      lambda a, k, out: see("graph.encode_graph", hash(out)))
        for fn in (graph.encode_cycle, graph.encode_permutation, graph.is_hamiltonian_cycle,
                   graph.permute_graph, graph.apply_permutation, graph.build_initial_graph,
                   graph.neighbor_set_for_insert):
            self.function("graph", fn)
        self.function("graph", graph.splice_insert, lambda a, k, out: see(
            "graph.splice", hash(("insert", a[0], a[1], a[2], frozenset(a[3])))))
        self.function("graph", graph.splice_delete, lambda a, k, out: see(
            "graph.splice", hash(("delete", a[0], a[1], a[2]))))

        # zkp: the multi-round proof loop, both sides of a round, and the hash.
        def on_digest(a, k, out):
            counts["zkp.digest.bytes"] += len(a[0])

        def on_proof(a, k, result):
            counts["zkp.run_proof.accepted"] += bool(result.accepted)

        self.function("zkp", zkp.digest, on_digest)
        self.function("zkp", zkp.run_proof, on_proof)
        for fn in (zkp.prover_commit, zkp.commitment_for, zkp.prover_respond,
                   zkp.verifier_check, zkp.encode_response):
            self.function("zkp", fn)
        for attr in ("__init__", "next_commitment", "answer"):
            self.method("zkp", zkp.HonestProver, attr, f"HonestProver.{attr.strip('_')}")

        # protocol: the replica mutation path and the membership handlers.
        def on_access(a, k, result):
            counts["protocol.access_control.granted"] += type(result).__name__ == "Granted"

        def on_insert(a, k, result):
            counts["protocol.authenticator_insert.committed"] += (
                type(result).__name__ == "InsertCommitted")

        def fifo_len(a, k, result):
            # Records a replica retains after an update, pruning included.
            high("protocol.fifo.max_len", len(a[0].fifo))

        def on_catch_up(a, k, result):
            counts["protocol.apply_catch_up.records"] += len(a[1].records)
            fifo_len(a, k, result)

        self.function("protocol", protocol.prune_fifo)
        self.function("protocol", protocol.apply_update_record, fifo_len)
        self.function("protocol", protocol.access_control, on_access)
        self.function("protocol", protocol.authenticator_insert, on_insert)
        self.function("protocol", protocol.apply_catch_up, on_catch_up)
        self.function("protocol", protocol.apply_deletion_update, fifo_len)
        for fn in (protocol.apply_insertion_update, protocol.proof_of_life_cycle,
                   protocol.deletion_candidates, protocol.check_termination,
                   protocol.detect_sybil, protocol.insert_degree):
            self.function("protocol", fn)
        self.method("protocol", protocol.NodeState, "initial", "NodeState.initial")

        # simulator: flooding and mobility get spans; the heap is timed by a
        # shim and ``reachable`` is only counted, since both run millions of
        # times on the larger workloads.
        self.function("simulator", simulator.run_scenario)
        self.function("simulator", simulator.broadcast_deliver)
        self.function("simulator", simulator.step_mobility)
        reachable = simulator.reachable

        def counted_reachable(*args, **kwargs):
            counts["simulator.reachable.calls"] += 1
            return reachable(*args, **kwargs)

        self._rebind(reachable, counted_reachable)
        self._set(simulator, "heapq", HeapProbe(rec))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
