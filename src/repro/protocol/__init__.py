"""Contra protocol runtime: the behaviour of the synthesized per-switch programs."""

from repro.protocol.contra_switch import ContraRouting, ContraSystem
from repro.protocol.probe import ContraProbe, probe_wire_size
from repro.protocol.tables import (
    BestChoiceTable,
    FlowletEntry,
    FlowletTable,
    ForwardingEntry,
    ForwardingTable,
    FwdKey,
    LoopDetectionTable,
)

__all__ = [
    "ContraSystem",
    "ContraRouting",
    "ContraProbe",
    "probe_wire_size",
    "ForwardingTable",
    "ForwardingEntry",
    "FwdKey",
    "BestChoiceTable",
    "FlowletTable",
    "FlowletEntry",
    "LoopDetectionTable",
]
