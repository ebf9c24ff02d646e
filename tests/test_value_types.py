"""Gasman's value types: records that cannot change, and dataclasses that
carry their own docstrings."""

import importlib
import pkgutil
from dataclasses import is_dataclass
from random import Random

import pytest

import gasman
from gasman.graph import Permutation, build_initial_graph
from gasman.protocol import (
    AccessGrant,
    Aborted,
    CycleTransfer,
    DeletionRecord,
    Denied,
    Granted,
    GraphTransfer,
    InsertCommitted,
    InsertionRecord,
    NeighborSetBroadcast,
    PolAbortedOutcome,
    PolCompleted,
    PolRecord,
    PolSummary,
)
from gasman.simulator import TraceEvent
from gasman.zkp import Commitment, ProofResult, RevealCycle, RevealPermutation, TranscriptRound


def plain_records():
    """One value of each of the fifteen record types."""
    g, hc = build_initial_graph(8, 16, Random(1))
    commitment = Commitment(bytes(32), bytes(32))
    reveal = RevealCycle(g, hc)
    return [
        InsertionRecord(1, 8, frozenset({0, 1}), 0, 1.0),
        DeletionRecord(2, 8, 0, 2.0),
        PolRecord(2, frozenset({0, 1}), 0, 3.0),
        InsertCommitted(
            NeighborSetBroadcast(sender=0, stage=1, node=8, neighbors=frozenset({0, 1})),
            GraphTransfer(sender=0, stage=1, graph=g),
            CycleTransfer(sender=0, stage=1, cycle=hc),
        ),
        Aborted("quorum not met (1 of 8)"),
        Granted(AccessGrant(sender=0, stage=1, records=(), current_stage=1, window=0)),
        Denied("zkp failed"),
        PolCompleted(PolSummary(sender=0, stage=1, window=0, alive=frozenset({0}),
                                deletions=frozenset())),
        PolAbortedOutcome(2),
        commitment,
        reveal,
        RevealPermutation(Permutation.identity(g.vertices)),
        TranscriptRound(commitment, 0, reveal),
        ProofResult(True, 20),
        TraceEvent(1.0, "Node 3 turns off"),
    ]


@pytest.mark.parametrize("record", plain_records(), ids=lambda r: type(r).__name__)
def test_no_record_can_be_changed(record):
    # A record is shared once built, and FIFO records sit in interning keys.
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.note = "extra"  # no instance dict holds an attribute of its own


def test_no_record_type_is_a_dataclass():
    # Each frozen dataclass costs ``import gasman`` six ``exec``s to decorate;
    # a NamedTuple is defined by one ``eval``.
    record_types = {type(record) for record in plain_records()}
    assert len(record_types) == 15
    assert [cls.__name__ for cls in record_types if is_dataclass(cls)] == []


def gasman_dataclasses():
    """Every class that ``@dataclass`` decorated in a gasman module."""
    for info in pkgutil.iter_modules(gasman.__path__):
        module = importlib.import_module(f"gasman.{info.name}")
        for value in vars(module).values():
            if (isinstance(value, type) and value.__module__ == module.__name__
                    and "__dataclass_fields__" in vars(value)):
                yield value


def test_every_dataclass_has_a_docstring_of_its_own():
    # Decorating a class that has none writes one from ``inspect.signature``
    # during the import: "Name(field: type, ...)".
    found = list(gasman_dataclasses())
    assert {"Message", "ScenarioConfig", "_PolWindow"} <= {cls.__name__ for cls in found}
    for cls in found:
        assert cls.__doc__ and not cls.__doc__.startswith(f"{cls.__name__}("), cls.__name__
