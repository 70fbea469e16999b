"""Unit tests for the device-table cross-checker.

Clean compiles must pass; corrupted device tables (the tag table, the
transitions) must be flagged with a problem and make
``verify_lowered_tables`` raise.
"""

import dataclasses

import pytest

from repro.core import policies
from repro.core.analysis.crosscheck import crosscheck_lowered_tables, verify_lowered_tables
from repro.core.compiler import compile_policy
from repro.exceptions import VerificationError
from repro.topology.abilene import abilene
from repro.topology.graph import Topology


@pytest.fixture
def diamond():
    topo = Topology("figure6")
    for switch in ("A", "B", "C", "D"):
        topo.add_switch(switch)
    for a, b in (("A", "B"), ("A", "C"), ("B", "C"), ("B", "D"), ("C", "D")):
        topo.add_link(a, b)
    return topo


class TestCleanCompiles:
    def test_single_metric_policy_passes(self, diamond):
        compiled = compile_policy(policies.minimum_utilization(), diamond)
        report = crosscheck_lowered_tables(compiled)
        assert report.ok and bool(report)
        assert report.devices_checked == 4
        assert report.transitions_checked == sum(
            len(config.probe_transition)
            for config in compiled.device_configs.values())
        assert report.problems == []

    def test_decomposed_policy_on_abilene_passes(self):
        report = crosscheck_lowered_tables(
            compile_policy(policies.congestion_aware(), abilene()))
        assert report.ok
        assert report.devices_checked == 11

    def test_verify_passes_on_clean_compile(self, diamond):
        compiled = compile_policy(policies.minimum_utilization(), diamond)
        assert verify_lowered_tables(compiled).ok

    def test_report_serialises_and_renders(self, diamond):
        report = crosscheck_lowered_tables(
            compile_policy(policies.shortest_path(), diamond))
        data = report.to_json_dict()
        assert data == {"ok": True, "devices_checked": 4,
                        "transitions_checked": report.transitions_checked,
                        "problems": []}
        assert report.render() == (
            f"cross-check: 4 device(s), {report.transitions_checked} "
            f"transition entries: OK")


class TestCorruptionDetection:
    def test_mutated_symbolic_entry_flagged(self, diamond):
        compiled = compile_policy(policies.minimum_utilization(), diamond)
        config = compiled.device("B")
        key = sorted(config.probe_transition)[0]
        config.probe_transition[key] = config.probe_transition[key] + 17
        report = crosscheck_lowered_tables(compiled)
        assert not report.ok

    def test_transition_to_unknown_neighbor_tag_flagged(self, diamond):
        compiled = compile_policy(policies.minimum_utilization(), diamond)
        config = compiled.device("B")
        neighbor = sorted(compiled.topology.switch_neighbors("B"))[0]
        config.probe_transition[(neighbor, 97)] = config.probe_origin_tag
        report = crosscheck_lowered_tables(compiled)
        assert any("does not define" in p for p in report.problems)

    def test_transition_keyed_by_non_neighbour_flagged(self, diamond):
        compiled = compile_policy(policies.minimum_utilization(), diamond)
        config = compiled.device("A")              # A and D share no link
        config.probe_transition[("D", 0)] = config.probe_origin_tag
        report = crosscheck_lowered_tables(compiled)
        assert any("keyed by non-neighbour 'D'" in p for p in report.problems)

    def test_multicast_to_non_neighbour_flagged(self, diamond):
        compiled = compile_policy(policies.minimum_utilization(), diamond)
        config = compiled.device("A")
        tag = config.probe_origin_tag
        config.tags[tag] = dataclasses.replace(
            config.tags[tag], multicast_neighbors=("B", "D"))
        report = crosscheck_lowered_tables(compiled)
        assert any("multicasts to non-neighbours ['D']" in p
                   for p in report.problems)

    def test_sparse_tag_table_flagged(self, diamond):
        compiled = compile_policy(
            policies.failover_preference(("A", "B", "D"), ("B", ".*", "D")),
            diamond)
        config = compiled.device("D")
        tags = sorted(config.tags)
        assert len(tags) > 1
        victim = next(t for t in tags if t != config.probe_origin_tag)
        del config.tags[victim]
        report = crosscheck_lowered_tables(compiled)
        assert any("not dense" in p for p in report.problems)

    def test_verify_raises_with_problem_list(self, diamond):
        compiled = compile_policy(policies.minimum_utilization(), diamond)
        config = compiled.device("A")
        config.probe_transition[sorted(config.probe_transition)[0]] = 63
        with pytest.raises(VerificationError, match="63 is not a local tag"):
            verify_lowered_tables(compiled)
