"""Static cross-checking of each device's tables against the compiled policy.

A switch runs nothing but its :class:`~repro.core.device_config.DeviceConfig`,
so a config that disagrees with the product graph it was derived from
misroutes probes silently.  This pass proves, for every device:

* the tag table is dense (``0..num_tags-1``), each ``TagInfo`` carries its
  own tag, ``probe_origin_tag`` is one of the device's tags, and multicast
  targets are real topology neighbours;
* every ``probe_transition`` entry is keyed by a real neighbour and a tag
  that neighbour defines, and maps to one of the device's own tags.

It runs standalone (:func:`crosscheck_lowered_tables`) or as a post-compile
assertion (:func:`verify_lowered_tables`, wired to
``CompileOptions(verify=True)``), raising :class:`VerificationError` on any
disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List

from repro.exceptions import VerificationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.compiler import CompiledPolicy
    from repro.core.device_config import DeviceConfig

__all__ = ["CrosscheckReport", "crosscheck_lowered_tables", "verify_lowered_tables"]


@dataclass
class CrosscheckReport:
    """Outcome of the device-table cross-check over all devices."""

    devices_checked: int = 0
    transitions_checked: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def __bool__(self) -> bool:
        return self.ok

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "devices_checked": self.devices_checked,
            "transitions_checked": self.transitions_checked,
            "problems": list(self.problems),
        }

    def render(self) -> str:
        lines = [f"cross-check: {self.devices_checked} device(s), "
                 f"{self.transitions_checked} transition entries: "
                 + ("OK" if self.ok else f"{len(self.problems)} problem(s)")]
        lines.extend(f"  PROBLEM: {p}" for p in self.problems)
        return "\n".join(lines)


def _check_device_config(compiled: "CompiledPolicy", config: "DeviceConfig",
                         report: CrosscheckReport) -> None:
    switch = config.switch
    where = f"device {switch!r}"
    valid_tags = set(config.tags)

    # Tag table density and self-consistency.
    if sorted(config.tags) != list(range(config.num_tags)):
        report.problems.append(
            f"{where}: tag table is not dense: {sorted(config.tags)}")
    neighbors = set(compiled.topology.switch_neighbors(switch))
    for tag, info in config.tags.items():
        if info.tag != tag:
            report.problems.append(
                f"{where}: tags[{tag}] carries mismatched TagInfo.tag={info.tag}")
        bogus = [n for n in info.multicast_neighbors if n not in neighbors]
        if bogus:
            report.problems.append(
                f"{where}: tag {tag} multicasts to non-neighbours {bogus}")
    if config.probe_origin_tag not in valid_tags:
        report.problems.append(
            f"{where}: probe_origin_tag {config.probe_origin_tag} is not a "
            f"local tag")

    # Transition table sanity.
    for (neighbor, neighbor_tag), local_tag in config.probe_transition.items():
        report.transitions_checked += 1
        if neighbor not in neighbors:
            report.problems.append(
                f"{where}: probe_transition keyed by non-neighbour {neighbor!r}")
        if local_tag not in valid_tags:
            report.problems.append(
                f"{where}: probe_transition[{(neighbor, neighbor_tag)}] -> "
                f"{local_tag} is not a local tag")
        neighbor_config = compiled.device_configs.get(neighbor)
        if (neighbor_config is not None
                and neighbor_tag not in neighbor_config.tags):
            report.problems.append(
                f"{where}: probe_transition expects neighbour tag "
                f"{neighbor_tag} which {neighbor!r} does not define")


def crosscheck_lowered_tables(compiled: "CompiledPolicy") -> CrosscheckReport:
    """Check every device's tables against the compiled policy."""
    report = CrosscheckReport()
    for switch in sorted(compiled.device_configs):
        report.devices_checked += 1
        _check_device_config(compiled, compiled.device_configs[switch], report)
    return report


def verify_lowered_tables(compiled: "CompiledPolicy") -> CrosscheckReport:
    """Post-compile assertion: raise on any device-table disagreement."""
    report = crosscheck_lowered_tables(compiled)
    if not report.ok:
        raise VerificationError(
            "device tables disagree with the compiled policy:\n"
            + "\n".join(f"  - {p}" for p in report.problems))
    return report
