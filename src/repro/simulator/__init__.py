"""Discrete-event network simulator substrate (the reproduction's ns-3 stand-in)."""

from repro.simulator.accumulators import ReservoirSampler, StreamingHistogram
from repro.simulator.engine import PeriodicEvent, Simulator
from repro.simulator.flow import TRANSPORT_MODES, Flow, ReceiverState, SenderState
from repro.simulator.host import Host
from repro.simulator.link import SimLink
from repro.simulator.network import Network, RoutingSystem
from repro.simulator.packet import (
    ACK_PACKET_BYTES,
    BASE_PROBE_BYTES,
    DATA_PACKET_BYTES,
    Packet,
    PacketKind,
    Probe,
)
from repro.simulator.stats import FlowRecord, StatsCollector
from repro.simulator.switchnode import RoutingLogic, SwitchNode

__all__ = [
    "Simulator",
    "PeriodicEvent",
    "Flow",
    "TRANSPORT_MODES",
    "SenderState",
    "ReceiverState",
    "Host",
    "SimLink",
    "Network",
    "RoutingSystem",
    "Packet",
    "PacketKind",
    "Probe",
    "DATA_PACKET_BYTES",
    "ACK_PACKET_BYTES",
    "BASE_PROBE_BYTES",
    "StatsCollector",
    "FlowRecord",
    "StreamingHistogram",
    "ReservoirSampler",
    "RoutingLogic",
    "SwitchNode",
]
