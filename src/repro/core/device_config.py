"""Per-switch device configurations produced by the Contra compiler.

The paper's compiler emits one P4 program per switch; the behaviour of that
program is fully determined by a small amount of switch-local configuration:

* how an incoming probe's tag maps onto one of this switch's own virtual-node
  tags (``probe_transition``),
* which neighbours a probe must be multicast to next (``multicast_neighbors``),
* the acceptance signature of each local tag, used when the switch evaluates
  the user policy to pick its overall best entry, and
* the tag in which probes originated by this switch (as a destination) start.

:class:`DeviceConfig` captures exactly that configuration.  The simulator's
Contra switch interprets it directly, and :mod:`repro.core.p4gen` renders it
as a P4-style program, mirroring the two backends the paper describes
(ns-3 execution and P4 source).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.attributes import ATTRIBUTES
from repro.core.regex import PathRegex
from repro.exceptions import CompilationError

__all__ = ["TagInfo", "DeviceConfig", "StateEstimate", "FLOWLET_SLOTS",
           "LOOP_TABLE_SLOTS"]

#: Flowlet-table slots provisioned per (tag, pid) on every switch; mirrors
#: the fixed-size register arrays a P4 program would allocate.
FLOWLET_SLOTS = 256
#: Loop-detection table slots (packet-hash keyed) on every switch.
LOOP_TABLE_SLOTS = 256


@dataclass(frozen=True)
class TagInfo:
    """Everything a switch knows about one of its virtual-node tags."""

    tag: int
    #: Automaton state vector (informational; the data plane only needs the tag).
    states: Tuple[int, ...]
    #: Per-regex acceptance: True when a traffic path ending in this tag
    #: satisfies the corresponding policy regex.
    acceptance: Tuple[bool, ...]
    #: Topology neighbours to which probes carrying this tag are multicast.
    multicast_neighbors: Tuple[str, ...]


@dataclass(frozen=True)
class StateEstimate:
    """Estimated switch memory footprint of the generated program (Figure 10)."""

    fwdt_bytes: int
    bestt_bytes: int
    flowlet_bytes: int
    loop_table_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.fwdt_bytes + self.bestt_bytes + self.flowlet_bytes + self.loop_table_bytes



@dataclass
class DeviceConfig:
    """The switch-local program configuration for one switch."""

    switch: str
    #: Original-policy regexes in order (shared across all switches).
    regexes: Tuple[PathRegex, ...]
    #: tag -> TagInfo for this switch's virtual nodes.
    tags: Dict[int, TagInfo]
    #: (neighbor switch, neighbor tag) -> this switch's tag, or absent if the
    #: probe must be dropped (no product-graph edge).
    probe_transition: Dict[Tuple[str, int], int]
    #: The tag newly originated probes carry when this switch is a destination.
    probe_origin_tag: int
    #: Attribute names carried in every probe's metric vector, in wire order.
    carried_attrs: Tuple[str, ...]
    #: Number of probe ids (subpolicies) in the decomposed policy.
    num_probe_ids: int
    #: Total number of switches in the network (used for sizing estimates).
    network_size: int = 0

    # ------------------------------------------------------------------ helpers

    def tag_info(self, tag: int) -> TagInfo:
        try:
            return self.tags[tag]
        except KeyError:
            raise CompilationError(f"switch {self.switch!r} has no tag {tag}") from None

    def multicast_targets(self, tag: int) -> Tuple[str, ...]:
        """Neighbours to which a probe in ``tag`` is propagated next."""
        return self.tag_info(tag).multicast_neighbors

    def acceptance_of(self, tag: int) -> Dict[PathRegex, bool]:
        """Acceptance keyed by the original regex objects (for policy evaluation)."""
        return dict(zip(self.regexes, self.tag_info(tag).acceptance))

    @property
    def num_tags(self) -> int:
        return len(self.tags)

    def tag_bits(self) -> int:
        """Bits needed to encode a tag on the wire (compiler minimises this)."""
        return max(1, math.ceil(math.log2(max(2, self.num_tags))))

    def metric_bits(self) -> int:
        """Bits of the metric vector carried by each probe."""
        return sum(ATTRIBUTES[name].bits for name in self.carried_attrs)

    def probe_bits(self) -> int:
        """Total probe payload size in bits (origin, pid, version, tag, metrics)."""
        origin_bits = max(1, math.ceil(math.log2(max(2, self.network_size or 2))))
        pid_bits = max(1, math.ceil(math.log2(max(2, self.num_probe_ids))))
        version_bits = 16
        return origin_bits + pid_bits + version_bits + self.tag_bits() + self.metric_bits()

    def packet_tag_bits(self) -> int:
        """Extra header bits Contra adds to every data packet (tag + pid)."""
        pid_bits = max(1, math.ceil(math.log2(max(2, self.num_probe_ids))))
        return self.tag_bits() + pid_bits

    # ----------------------------------------------------------- state estimate

    def state_estimate(self) -> StateEstimate:
        """Estimate the switch memory used by the generated program.

        The forwarding table has one row per (destination, local tag, probe
        id); the best-choice table one row per destination; flowlet and loop
        tables are fixed-size register arrays whose rows scale with the number
        of (tag, pid) combinations, exactly as the policy-aware flowlet
        switching refinement requires (§5.3).
        """
        destinations = max(1, self.network_size)
        mv_bytes = max(1, self.metric_bits() // 8)
        fwdt_row = mv_bytes + 2 + 1 + 2  # metrics + version + next tag + next hop/port
        fwdt_bytes = destinations * self.num_tags * self.num_probe_ids * fwdt_row
        bestt_row = 1 + 1 + 2            # tag + pid + key bookkeeping
        bestt_bytes = destinations * bestt_row
        flowlet_row = 2 + 1 + 4          # next hop + tag + timestamp
        flowlet_bytes = FLOWLET_SLOTS * max(1, self.num_tags) * self.num_probe_ids * flowlet_row
        loop_row = 1 + 1 + 4             # max ttl + min ttl + hash bookkeeping
        loop_bytes = LOOP_TABLE_SLOTS * loop_row
        return StateEstimate(fwdt_bytes, bestt_bytes, flowlet_bytes, loop_bytes)

    def __repr__(self) -> str:
        return (f"DeviceConfig(switch={self.switch!r}, tags={self.num_tags}, "
                f"pids={self.num_probe_ids}, metrics={list(self.carried_attrs)})")
