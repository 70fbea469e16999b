"""Contra protocol runtime: the behaviour of the synthesized per-switch programs."""

from repro import lazy_exports

_EXPORTS = {
    "ContraSystem": "contra_switch",
    "ContraRouting": "contra_switch",
    "ContraProbe": "probe",
    "probe_wire_size": "probe",
    "ForwardingTable": "tables",
    "ForwardingEntry": "tables",
    "FwdKey": "tables",
    "BestChoiceTable": "tables",
    "FlowletTable": "tables",
    "FlowletEntry": "tables",
    "LoopDetectionTable": "tables",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
