"""Workload generation: Poisson flow arrivals tuned to a target network load.

The FCT experiments sweep "network load" from 10% to 90% (§6.3): the offered
load is the fraction of the senders' access-link capacity consumed by the
generated flows.  Given a flow-size distribution with mean ``m`` packets and a
host link capacity of ``C`` packets/ms, a per-sender arrival rate of
``load * C / m`` flows/ms achieves that offered load; arrivals are Poisson
(exponential inter-arrival times), matching standard datacenter workload
methodology.

Every draw comes from :class:`~repro.workloads.distributions.Generator`,
numpy's ``default_rng`` stream in pure Python (ARCHITECTURE.md §7).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import MAX_LOAD, WorkloadError
from repro.simulator.flow import Flow
from repro.topology.graph import Topology
from repro.workloads.distributions import EmpiricalCDF, Generator

__all__ = [
    "MAX_LOAD",
    "WorkloadSpec",
    "FlowStream",
    "generate_workload",
    "stream_workload",
    "resolve_endpoints",
    "split_senders_receivers",
    "incast_pairs",
    "permutation_pairs",
]


@dataclass
class WorkloadSpec:
    """A fully described workload: who sends to whom, how much, and when."""

    flows: List[Flow]
    senders: List[str]
    receivers: List[str]
    target_load: float
    duration: float
    distribution_name: str

    @property
    def total_packets(self) -> int:
        return sum(f.size_packets for f in self.flows)

    def offered_load(self, host_capacity: float) -> float:
        """The realised offered load as a fraction of sender capacity."""
        if not self.senders or self.duration <= 0:
            return 0.0
        capacity_packets = len(self.senders) * host_capacity * self.duration
        return self.total_packets / capacity_packets if capacity_packets else 0.0


class FlowStream:
    """A lazily generated workload: flows arrive as a time-ordered iterator.

    The streaming counterpart of :class:`WorkloadSpec` for million-flow fluid
    scenarios — the full flow list is never materialized.  Iterating yields
    :class:`~repro.simulator.flow.Flow` objects in non-decreasing
    ``start_time`` order with sequential ``flow_id``s; each iteration (and the
    ``flows`` property) builds a fresh generator, so a stream can drive any
    number of runs with identical flows.
    """

    def __init__(self, senders: List[str], receivers: List[str],
                 target_load: float, duration: float, distribution_name: str,
                 factory: Callable[[], Iterator[Flow]]):
        self.senders = senders
        self.receivers = receivers
        self.target_load = target_load
        self.duration = duration
        self.distribution_name = distribution_name
        self._factory = factory

    def __iter__(self) -> Iterator[Flow]:
        return self._factory()

    @property
    def flows(self) -> Iterator[Flow]:
        """A fresh arrival-ordered flow iterator (mirrors ``WorkloadSpec.flows``)."""
        return self._factory()


def stream_workload(
    topology: Topology,
    distribution: EmpiricalCDF,
    load: float,
    duration: float,
    host_capacity: float = 10.0,
    seed: int = 0,
    senders: Optional[Sequence[str]] = None,
    receivers: Optional[Sequence[str]] = None,
    pair_senders_receivers: bool = False,
    start_after: float = 0.0,
) -> FlowStream:
    """The lazy counterpart of :func:`generate_workload`.

    Same Poisson arrival process and parameters, O(senders) memory: each
    sender owns three substreams (inter-arrival gaps, sizes, destinations)
    seeded ``(seed, sender_index, field)`` and drawn one flow at a time; the
    per-sender streams are lazily merged by ``(start_time, sender_index,
    seq)``.  Every flow is a pure function of the arguments.

    The draw necessarily differs from :func:`generate_workload`'s single
    shared generator (its across-sender interleaving cannot be replayed
    without materializing every sender's arrivals), so the two paths produce
    statistically equivalent but not flow-identical workloads.  Packet-level
    scenarios keep the eager path; the fluid plane switches to this one when
    the expected flow count would make the eager list a memory hazard.
    """
    if not 0.0 < load <= MAX_LOAD:
        raise WorkloadError(f"load must be in (0, {MAX_LOAD}], got {load}")
    if duration <= 0:
        raise WorkloadError("duration must be positive")
    senders, receivers, options = resolve_endpoints(
        topology, senders, receivers, pair_senders_receivers)

    mean_gap = 1.0 / (load * host_capacity / distribution.mean())  # ms per flow
    size_at = distribution.size_at
    end = start_after + duration

    def sender_stream(index: int, sender: str):
        exponential = Generator((seed, index, 0)).exponential
        uniform = Generator((seed, index, 1)).random
        choices = options[index]
        # (A paired sender's one receiver draws nothing: no third substream.)
        pick = None if pair_senders_receivers \
            else Generator((seed, index, 2)).integers
        time = start_after
        seq = 0
        while True:
            time += exponential(mean_gap)
            if time >= end:
                return
            receiver = choices[pick(0, len(choices))] if pick is not None \
                else choices[0]
            yield (time, index, seq, sender, receiver, size_at(uniform()))
            seq += 1

    def merged() -> Iterator[Flow]:
        streams = [sender_stream(index, sender)
                   for index, sender in enumerate(senders)]
        for flow_id, (time, _index, _seq, src, dst, size) in enumerate(
                heapq.merge(*streams)):
            yield Flow(src_host=src, dst_host=dst, size_packets=size,
                       start_time=time, flow_id=flow_id)

    return FlowStream(
        senders=senders,
        receivers=receivers,
        target_load=load,
        duration=duration,
        distribution_name=distribution.name,
        factory=merged,
    )


def resolve_endpoints(
    topology: Topology,
    senders: Optional[Sequence[str]],
    receivers: Optional[Sequence[str]],
    paired: bool,
) -> Tuple[List[str], List[str], List[List[str]]]:
    """Default and validate the endpoints of both generators.

    Returns ``(senders, receivers, options)``: ``options[i]`` is the list
    sender ``i`` draws its destinations from — its one partner when
    ``paired``, otherwise every receiver but itself (one shared list for the
    senders that are not receivers, which is all of them under the default
    split).  An endpoint that is not a host, a sender left with nothing to
    draw from and unequal paired lists are refused here, once, so neither
    generator can meet them mid-draw.
    """
    # (A defaulted list comes from the topology's own hosts.)
    for field, names in (("senders", senders), ("receivers", receivers)):
        if names is not None and not names:
            raise WorkloadError(f"{field} is empty (None is the default split)")
        for name in names or ():
            if not topology.is_host(name):
                raise WorkloadError(
                    f"{field} entry {name!r} is not a host of {topology.name!r}")
    if senders is None or receivers is None:
        default_senders, default_receivers = split_senders_receivers(topology)
        senders = default_senders if senders is None else senders
        receivers = default_receivers if receivers is None else receivers
    senders = list(senders)
    receivers = list(receivers)
    if paired:
        if len(senders) != len(receivers):
            raise WorkloadError(
                "paired workloads need equally many senders and receivers")
        return senders, receivers, [[receiver] for receiver in receivers]
    also_receive = set(senders).intersection(receivers)
    options = [[r for r in receivers if r != sender] if sender in also_receive
               else receivers for sender in senders]
    for sender, choices in zip(senders, options):
        if not choices:
            raise WorkloadError(f"sender {sender!r} has no eligible receiver")
    return senders, receivers, options


def split_senders_receivers(topology: Topology) -> Tuple[List[str], List[str]]:
    """The paper's default host split: half the hosts send, the other half receive.

    Hosts are interleaved so that senders and receivers are spread across edge
    switches rather than clustered on one side of the fabric.
    """
    hosts = topology.hosts
    if len(hosts) < 2:
        raise WorkloadError("need at least two hosts to generate traffic")
    senders = hosts[0::2]
    receivers = hosts[1::2]
    if not receivers:
        receivers = [hosts[-1]]
    return senders, receivers


def incast_pairs(
    topology: Topology,
    fanin: Optional[int] = None,
    seed: int = 0,
) -> Tuple[List[str], List[str]]:
    """N-to-1 fan-in pairing: every sender targets the same receiver host.

    The returned lists are positionally paired (use
    ``pair_senders_receivers=True``): the receiver list repeats the single
    sink once per sender.  The sink is drawn deterministically from
    ``seed``; ``fanin=None`` uses every other host as a sender, otherwise
    ``fanin`` senders are drawn (seed-deterministically) without replacement.
    """
    hosts = topology.hosts
    if len(hosts) < 2:
        raise WorkloadError("need at least two hosts for incast traffic")
    rng = Generator(seed)
    receiver = rng.choice(hosts)
    candidates = [h for h in hosts if h != receiver]
    if fanin is None:
        senders = candidates
    else:
        if not 1 <= fanin <= len(candidates):
            raise WorkloadError(
                f"incast fan-in must be in [1, {len(candidates)}], got {fanin}")
        senders = rng.choice(candidates, size=fanin, replace=False)
    return senders, [receiver] * len(senders)


def permutation_pairs(topology: Topology, seed: int = 0) -> Tuple[List[str], List[str]]:
    """Random derangement pairing: every host sends to exactly one other host.

    A seed-deterministic permutation of the hosts with fixed points repaired
    by swapping, so no host ever sends to itself and every host receives from
    exactly one sender (use ``pair_senders_receivers=True``).
    """
    hosts = topology.hosts
    if len(hosts) < 2:
        raise WorkloadError("need at least two hosts for permutation traffic")
    perm = Generator(seed).permutation(len(hosts))
    for i in range(len(perm)):
        if perm[i] == i:
            j = (i + 1) % len(perm)
            perm[i], perm[j] = perm[j], perm[i]
    return list(hosts), [hosts[p] for p in perm]


def generate_workload(
    topology: Topology,
    distribution: EmpiricalCDF,
    load: float,
    duration: float,
    host_capacity: float = 10.0,
    seed: int = 0,
    senders: Optional[Sequence[str]] = None,
    receivers: Optional[Sequence[str]] = None,
    pair_senders_receivers: bool = False,
    start_after: float = 0.0,
) -> WorkloadSpec:
    """Generate Poisson flow arrivals achieving ``load`` over ``duration`` ms.

    Parameters
    ----------
    load:
        Target offered load as a fraction of the senders' access capacity
        (0 < load <= 1.5; the paper sweeps 0.1–0.9, and moderate
        overload points up to 1.5 are accepted for stress scenarios).
        The load describes the *arrival process* only — how the offered
        work actually drains depends on the hosts' transport mode
        (``fixed`` blasts a full window at flow start; ``slowstart`` /
        ``paced`` ramp via the congestion window — see
        :mod:`repro.simulator.flow`), and delivered work is reported as
        goodput (unique segments), never inflated by retransmitted
        duplicates.
    pair_senders_receivers:
        When True, sender ``i`` only talks to receiver ``i`` (the Abilene
        four-pair setup); otherwise destinations are drawn uniformly from the
        receiver set (the fat-tree setup).
    start_after:
        Warm-up delay in milliseconds: the first flow of every sender arrives
        after this time, giving the routing protocol time to converge before
        traffic is measured.  Arrivals then span
        ``[start_after, start_after + duration)``.
    """
    if not 0.0 < load <= MAX_LOAD:
        raise WorkloadError(f"load must be in (0, {MAX_LOAD}], got {load}")
    if duration <= 0:
        raise WorkloadError("duration must be positive")
    senders, receivers, options = resolve_endpoints(
        topology, senders, receivers, pair_senders_receivers)

    # Draw-order contract (ARCHITECTURE.md §7): one shared generator, and per
    # flow ``exponential -> integers -> random``, sender by sender — the
    # generator's ``poisson_arrivals``.  ``choices[integers(0, n)]`` is
    # ``choice(choices)``, and a paired sender's one choice draws nothing
    # (``integers(0, 1)`` takes no word), so both modes draw alike.
    rng = Generator(seed)
    size_at = distribution.size_at
    mean_gap = 1.0 / (load * host_capacity / distribution.mean())  # ms per flow
    end = start_after + duration

    arrivals: List[Tuple[float, str, str, int]] = []
    for sender, choices in zip(senders, options):
        for time, pick, uniform in rng.poisson_arrivals(
                mean_gap, start_after, end, len(choices)):
            arrivals.append((time, sender, choices[pick], size_at(uniform)))

    # Stable by start time only (ties keep draw order).  Ids follow arrival
    # order: they seed the stable flow hash that drives ECMP/flowlet
    # placement, so they must be a deterministic function of the workload
    # parameters, not of a process-global counter.
    arrivals.sort(key=itemgetter(0))
    flows = [Flow(sender, receiver, size, time, flow_id)
             for flow_id, (time, sender, receiver, size) in enumerate(arrivals)]
    return WorkloadSpec(
        flows=flows,
        senders=senders,
        receivers=receivers,
        target_load=load,
        duration=duration,
        distribution_name=distribution.name,
    )
