"""P4 code generation backend.

The paper's compiler emits one P4 program per switch; the programs differ only
in the constants baked into them (tag transition entries, multicast groups,
probe origin tag).  This module renders a :class:`~repro.core.device_config
.DeviceConfig` into a P4_16-style source file with the same structure:

* header definitions for the Contra probe and the per-packet tag,
* registers for the forwarding table (FwdT), best-choice table (BestT),
  policy-aware flowlet table and loop-detection table,
* match-action tables for probe tag transitions and probe multicast, and
* an ingress control block implementing PROCESSPROBE / SWIFORWARDPKT
  (Figure 7).

The output is meant to be human-readable and faithful to the structure of the
synthesized programs; it is not fed to an actual P4 compiler in this
reproduction (the simulator interprets the DeviceConfig directly instead).
"""

from __future__ import annotations

import zlib
from typing import Dict

from repro.core.compiler import CompiledPolicy
from repro.core.device_config import FLOWLET_SLOTS, LOOP_TABLE_SLOTS, DeviceConfig

__all__ = ["generate_p4", "generate_all_p4", "P4Program"]


class P4Program:
    """A generated per-switch P4 program plus a few summary statistics."""

    def __init__(self, switch: str, source: str, table_entries: int):
        self.switch = switch
        self.source = source
        self.table_entries = table_entries

    @property
    def lines_of_code(self) -> int:
        return len(self.source.splitlines())

    def __repr__(self) -> str:
        return f"P4Program(switch={self.switch!r}, loc={self.lines_of_code})"


def _header_block(config: DeviceConfig) -> str:
    metric_fields = "\n".join(
        f"    bit<32> metric_{name};" for name in config.carried_attrs) or "    bit<32> metric_len;"
    return f"""\
// ---- Headers -------------------------------------------------------------
header ethernet_t {{
    bit<48> dstAddr;
    bit<48> srcAddr;
    bit<16> etherType;
}}

// Contra probe header (origin, probe id, version, product-graph tag, metrics).
header contra_probe_t {{
    bit<16> origin;
    bit<8>  pid;
    bit<16> version;
    bit<{max(8, config.tag_bits())}>  tag;
{metric_fields}
}}

// Per-packet Contra tag carried by data traffic.
header contra_tag_t {{
    bit<{max(8, config.tag_bits())}>  tag;
    bit<8>  pid;
    bit<16> origin;
    bit<8>  ttl;
}}
"""


def _register_block(config: DeviceConfig) -> str:
    destinations = max(1, config.network_size)
    fwdt_size = destinations * config.num_tags * config.num_probe_ids
    flowlet_size = FLOWLET_SLOTS * max(1, config.num_tags) * config.num_probe_ids
    return f"""\
// ---- State ----------------------------------------------------------------
// Forwarding table FwdT[dst, tag, pid] -> (metrics, next tag, next hop, version)
register<bit<32>>({fwdt_size}) fwdt_metric;
register<bit<16>>({fwdt_size}) fwdt_version;
register<bit<8>>({fwdt_size})  fwdt_ntag;
register<bit<9>>({fwdt_size})  fwdt_nhop;

// Best-choice table BestT[dst] -> (tag, pid)
register<bit<8>>({destinations}) bestt_tag;
register<bit<8>>({destinations}) bestt_pid;

// Policy-aware flowlet table keyed by (tag, pid, flowlet id)
register<bit<9>>({flowlet_size})  flowlet_nhop;
register<bit<8>>({flowlet_size})  flowlet_ntag;
register<bit<48>>({flowlet_size}) flowlet_time;

// Loop detection table keyed by packet hash -> (max ttl, min ttl)
register<bit<8>>({LOOP_TABLE_SLOTS}) loop_max_ttl;
register<bit<8>>({LOOP_TABLE_SLOTS}) loop_min_ttl;
"""


def _probe_transition_table(config: DeviceConfig) -> str:
    entries = []
    for (neighbor, neighbor_tag), local_tag in sorted(config.probe_transition.items()):
        # crc32, not hash(): the builtin is salted per process
        # (PYTHONHASHSEED) and would make the emitted source nondeterministic.
        neighbor_key = zlib.crc32(neighbor.encode("utf-8")) & 0xffff
        entries.append(f"        // probe from {neighbor} tag {neighbor_tag} -> local tag {local_tag}\n"
                       f"        ({neighbor_key}, {neighbor_tag}) : "
                       f"set_local_tag({local_tag});")
    entries_text = "\n".join(entries) if entries else "        // no product-graph edges into this switch"
    return f"""\
// ---- Probe tag transition (NEXTPGNODE) -------------------------------------
action set_local_tag(bit<8> tag) {{
    meta.local_tag = tag;
}}
action drop_probe() {{
    mark_to_drop(standard_metadata);
}}
table probe_transition {{
    key = {{
        meta.ingress_neighbor : exact;
        hdr.probe.tag         : exact;
    }}
    actions = {{ set_local_tag; drop_probe; }}
    default_action = drop_probe();
    const entries = {{
{entries_text}
    }}
}}
"""


def _multicast_table(config: DeviceConfig) -> str:
    entries = []
    for tag, info in sorted(config.tags.items()):
        group = ", ".join(info.multicast_neighbors) if info.multicast_neighbors else "none"
        entries.append(f"        {tag} : set_multicast_group({tag});  // -> {group}")
    entries_text = "\n".join(entries) if entries else "        // no multicast groups"
    return f"""\
// ---- Probe multicast (MULTICASTPROBE) ---------------------------------------
action set_multicast_group(bit<16> group) {{
    standard_metadata.mcast_grp = group;
}}
table probe_multicast {{
    key = {{ meta.local_tag : exact; }}
    actions = {{ set_multicast_group; NoAction; }}
    default_action = NoAction();
    const entries = {{
{entries_text}
    }}
}}
"""


def _control_block(config: DeviceConfig) -> str:
    attrs = ", ".join(config.carried_attrs) if config.carried_attrs else "len"
    update_lines = []
    for name in config.carried_attrs:
        if name == "util":
            update_lines.append("        // util composes by max over the inbound link")
            update_lines.append("        hdr.probe.metric_util = max(hdr.probe.metric_util, "
                                "meta.link_util);")
        elif name == "lat":
            update_lines.append("        hdr.probe.metric_lat = hdr.probe.metric_lat + meta.link_lat;")
        elif name == "len":
            update_lines.append("        hdr.probe.metric_len = hdr.probe.metric_len + 1;")
    update_text = "\n".join(update_lines) or "        // static policy: no metric updates"
    return f"""\
// ---- Ingress control (PROCESSPROBE / SWIFORWARDPKT) ------------------------
control ContraIngress(inout headers hdr, inout metadata meta,
                      inout standard_metadata_t standard_metadata) {{
    apply {{
        if (hdr.probe.isValid()) {{
            // UPDATEMVEC: fold the inbound link's metrics ({attrs}) into the probe.
{update_text}
            probe_transition.apply();
            // f(pid, mv) comparison + FwdT / BestT update, then re-multicast.
            probe_multicast.apply();
        }} else if (hdr.tag.isValid()) {{
            // Policy-aware flowlet switching keyed by (tag, pid, flowlet id),
            // falling back to FwdT on expiry; loop detection by TTL delta.
            // (Populated at runtime; see Figure 7 SWIFORWARDPKT.)
        }}
    }}
}}
"""


def generate_p4(config: DeviceConfig, policy_name: str = "policy") -> P4Program:
    """Render one switch's configuration as a P4_16-style program."""
    sections = [
        f"// Contra synthesized program for switch {config.switch}\n"
        f"// policy: {policy_name}; tags: {config.num_tags}; probe ids: {config.num_probe_ids}\n"
        f"// probe payload: {config.probe_bits()} bits; packet tag overhead: "
        f"{config.packet_tag_bits()} bits\n"
        "#include <core.p4>\n#include <v1model.p4>\n",
        _header_block(config),
        _register_block(config),
        _probe_transition_table(config),
        _multicast_table(config),
        _control_block(config),
        "V1Switch(ContraParser(), ContraVerifyChecksum(), ContraIngress(),\n"
        "         ContraEgress(), ContraComputeChecksum(), ContraDeparser()) main;\n",
    ]
    source = "\n".join(sections)
    table_entries = len(config.probe_transition) + len(config.tags)
    return P4Program(config.switch, source, table_entries)


def generate_all_p4(compiled: CompiledPolicy) -> Dict[str, P4Program]:
    """Generate the per-switch P4 programs for a compiled policy."""
    return {
        switch: generate_p4(cfg, policy_name=compiled.policy.name)
        for switch, cfg in compiled.device_configs.items()
    }
