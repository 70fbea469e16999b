"""Discrete-event network simulator substrate (the reproduction's ns-3 stand-in)."""

from repro import lazy_exports

_EXPORTS = {
    "Simulator": "engine",
    "PeriodicEvent": "engine",
    "Flow": "flow",
    "TRANSPORT_MODES": "flow",
    "SenderState": "flow",
    "ReceiverState": "flow",
    "Host": "host",
    "SimLink": "link",
    "Network": "network",
    "RoutingSystem": "network",
    "Packet": "packet",
    "PacketKind": "packet",
    "Probe": "packet",
    "DATA_PACKET_BYTES": "packet",
    "ACK_PACKET_BYTES": "packet",
    "BASE_PROBE_BYTES": "packet",
    "StatsCollector": "stats",
    "FlowRecord": "stats",
    "StreamingHistogram": "accumulators",
    "ReservoirSampler": "accumulators",
    "RoutingLogic": "switchnode",
    "SwitchNode": "switchnode",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
