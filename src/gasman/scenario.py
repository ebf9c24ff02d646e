"""The scenario file format: what one simulated run is asked to do.

The initial group, the proof-of-life period and rounds, churn, connectivity
and scripted operations.  ``ScenarioConfig.validate`` rejects what cannot be
simulated, and the JSON form round-trips.  Times are whole microseconds.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Optional, Union

from .graph import NodeId


class ScenarioError(ValueError):
    """The scenario configuration is invalid; nothing was simulated."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_node_id(value) -> bool:
    # Ids travel in the canonical encodings as unsigned 32-bit integers.
    return _is_int(value) and 0 <= value < 2**32


def _is_number(value, scale: int = 1) -> bool:
    """An int or float, not a bool, that stays a finite float times ``scale``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(float(value) * scale)
    except OverflowError:  # an int beyond the float range
        return False


@dataclass(frozen=True)
class ChurnConfig:
    """Per-second probabilities of one network-wide churn event each."""

    insertion_request: float = 0.0
    node_turn_off: float = 0.0
    node_turn_on: float = 0.0


@dataclass(frozen=True)
class GeometricConfig:
    """Random-waypoint mobility in a square, in metres and seconds, and the two radio ranges."""
    area_side: float
    speed_max: float
    pause: float
    data_range: float
    secure_range: float


@dataclass(frozen=True)
class ScriptedOp:
    """A deterministic event injected at a fixed time.

    ``insert`` may force an explicit id and neighbor group (needed to replay
    externally recorded traces); ``delete``, ``turn_off`` and ``turn_on``
    name the affected node.
    """

    time: float
    op: str
    node: Optional[NodeId] = None
    neighbors: Optional[tuple[NodeId, ...]] = None
    author: Optional[NodeId] = None


@dataclass(frozen=True)
class ScenarioConfig:
    """What one simulated run is asked to do; ``validate`` rejects what cannot be simulated."""
    n_initial: int
    m: int
    T: float
    l: int
    duration: float
    seed: int
    churn: ChurnConfig = ChurnConfig()
    connectivity: Union[str, GeometricConfig] = "full_mesh"
    termination_threshold: int = 3
    admission_deny_prob: float = 0.0
    initial_cycle: Optional[tuple[NodeId, ...]] = None
    script: tuple[ScriptedOp, ...] = ()

    def validate(self) -> None:
        for name in ("n_initial", "m", "l", "seed", "termination_threshold"):
            if not _is_int(getattr(self, name)):
                raise ScenarioError(f"invalid scenario: {name} must be an integer")
        # Times are simulated in whole microseconds.
        for name in ("T", "duration"):
            if not _is_number(getattr(self, name), 1_000_000):
                raise ScenarioError(f"invalid scenario: {name} must be a finite number")
        probabilities = (
            ("insertion_request", self.churn.insertion_request),
            ("node_turn_off", self.churn.node_turn_off),
            ("node_turn_on", self.churn.node_turn_on),
            ("admission_deny_prob", self.admission_deny_prob),
        )
        for name, p in probabilities:
            if not _is_number(p):
                raise ScenarioError(f"invalid scenario: probability {name} must be a number")
        if self.n_initial < 4 or self.m < self.n_initial:
            raise ScenarioError("invalid scenario: need n_initial >= 4 and m >= n_initial")
        if (2 * self.m) % self.n_initial != 0:
            raise ScenarioError("invalid scenario: 2m/n must be an integer")
        if _us(self.T) < 1 or self.duration <= 0 or self.l < 1:
            raise ScenarioError("invalid scenario: T (at least 1 us), duration and l must be positive")
        if self.termination_threshold < 3:
            raise ScenarioError("invalid scenario: termination threshold below 3")
        for name, p in probabilities:
            if not 0.0 <= p <= 1.0:
                raise ScenarioError(f"invalid scenario: probability {name} out of range")
        if isinstance(self.connectivity, GeometricConfig):
            geo = self.connectivity
            lengths = (geo.area_side, geo.speed_max, geo.pause, geo.data_range, geo.secure_range)
            if not all(_is_number(x) for x in lengths):
                raise ScenarioError("invalid scenario: geometric parameters must be finite numbers")
            if min(geo.area_side, geo.speed_max, geo.data_range, geo.secure_range) <= 0:
                raise ScenarioError("invalid scenario: geometric ranges must be positive")
            if geo.pause < 0:
                raise ScenarioError("invalid scenario: pause must be non-negative")
        elif self.connectivity != "full_mesh":
            raise ScenarioError("invalid scenario: unknown connectivity mode")
        if self.initial_cycle is not None:
            ids = tuple(self.initial_cycle)
            if not all(_is_node_id(v) for v in ids):
                raise ScenarioError("invalid scenario: initial_cycle ids must be 32-bit unsigned integers")
            if len(ids) != self.n_initial or len(set(ids)) != len(ids):
                raise ScenarioError("invalid scenario: initial_cycle must list n_initial distinct ids")
        for op in self.script:
            if op.op not in ("insert", "delete", "turn_off", "turn_on"):
                raise ScenarioError(f"invalid scenario: unknown scripted op {op.op!r}")
            if not _is_number(op.time, 1_000_000):
                raise ScenarioError("invalid scenario: scripted op time must be a finite number")
            if op.time < 0:
                raise ScenarioError("invalid scenario: scripted op before time 0")
            named = (op.node, op.author, *(op.neighbors or ()))
            if not all(v is None or _is_node_id(v) for v in named):
                raise ScenarioError("invalid scenario: scripted node ids must be 32-bit unsigned integers")

    def to_json(self) -> str:
        doc = asdict(self)
        if isinstance(self.connectivity, GeometricConfig):
            doc["connectivity"] = {"mode": "geometric", **doc["connectivity"]}
        else:
            doc["connectivity"] = {"mode": "full_mesh"}
        if self.initial_cycle is None:
            del doc["initial_cycle"]
        if self.script:
            # An op names only the fields it sets: no None, no empty neighbors.
            doc["script"] = [
                {k: v for k, v in op.items() if v is not None and (k != "neighbors" or v)}
                for op in doc["script"]
            ]
        else:
            del doc["script"]
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
            raise ScenarioError(f"invalid scenario: not valid JSON ({exc})") from exc
        if not isinstance(doc, dict):
            raise ScenarioError("invalid scenario: top level must be an object")
        churn_doc = doc.get("churn", {})
        conn_doc = doc.get("connectivity", {"mode": "full_mesh"})
        script_doc = doc.get("script", [])
        if not isinstance(churn_doc, dict) or not isinstance(conn_doc, dict):
            raise ScenarioError("invalid scenario: churn and connectivity must be objects")
        if not isinstance(script_doc, list) or not all(isinstance(e, dict) for e in script_doc):
            raise ScenarioError("invalid scenario: script must be a list of objects")
        try:
            churn = ChurnConfig(**churn_doc)
            connectivity = conn_doc.get("mode", "full_mesh")
            if connectivity == "geometric":
                connectivity = GeometricConfig(**_fields_of(GeometricConfig, conn_doc))
            script = tuple(
                ScriptedOp(**{**_fields_of(ScriptedOp, entry), "neighbors": _ids(entry.get("neighbors"))})
                for entry in script_doc
            )
            parsed = dict(churn=churn, connectivity=connectivity, script=script,
                          initial_cycle=_ids(doc.get("initial_cycle")))
            cfg = cls(**{**_fields_of(cls, doc), **parsed})
        except (KeyError, TypeError) as exc:
            raise ScenarioError(f"invalid scenario: {exc}") from exc
        cfg.validate()
        return cfg


def _fields_of(kind, doc: dict) -> dict:
    """The values ``doc`` gives the fields of the dataclass ``kind``: other keys
    are ignored, and a field with no default that ``doc`` lacks raises KeyError."""
    return {f.name: doc[f.name] for f in fields(kind) if f.name in doc or f.default is MISSING}


def _ids(value) -> Optional[tuple]:
    # A missing or empty id list in a scenario file means none.
    return tuple(value) if value else None


def _us(seconds: float) -> int:
    return round(seconds * 1_000_000)
