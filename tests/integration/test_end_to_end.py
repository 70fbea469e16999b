"""End-to-end integration tests: full simulations of every routing system.

These tests exercise the whole stack — workload generation, transport,
switching, probes, flowlets, failures — on the topologies the evaluation uses,
with small durations so the suite stays fast.
"""

import pytest

from repro.baselines.ecmp import EcmpSystem, ShortestPathSystem
from repro.baselines.hula import HulaSystem
from repro.baselines.spain import SpainSystem
from repro.core.compiler import compile_policy
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (build_routing_system, datacenter_policy,
                                     default_failed_link)
from repro.protocol.contra_switch import ContraSystem
from repro.simulator.network import Network
from repro.simulator.stats import StatsCollector
from repro.topology.abilene import abilene
from repro.topology.fattree import fattree
from repro.topology.leafspine import leafspine
from repro.workloads.distributions import (
    cache_distribution,
    uniform_distribution,
    web_search_distribution,
)
from repro.workloads.generator import generate_workload

CONFIG = ExperimentConfig(workload_duration=8.0, run_duration=60.0, loads=(0.5,))


def fattree_workload(load=0.5, seed=0):
    topo = fattree(CONFIG.fattree_k, capacity=CONFIG.host_capacity,
                   oversubscription=CONFIG.oversubscription)
    spec = generate_workload(topo, web_search_distribution(0.05), load=load,
                             duration=CONFIG.workload_duration,
                             host_capacity=CONFIG.host_capacity, seed=seed)
    return topo, spec


def simulate(topo, system, flows, run_duration=CONFIG.run_duration, failed_link=None):
    """Run ``flows`` on one ``Network`` under CONFIG's transport and switch
    parameters, ``failed_link`` failed from the start; returns the stats."""
    network = Network(topo, system, buffer_packets=CONFIG.buffer_packets,
                      host_window=CONFIG.host_window, host_rto=CONFIG.host_rto,
                      util_window=CONFIG.util_window, transport=CONFIG.transport)
    network.schedule_flows(flows)
    if failed_link is not None:
        network.fail_link(failed_link[0], failed_link[1], at_time=0.0)
    return network.run(run_duration)


class TestAllSystemsComplete:
    @pytest.mark.parametrize("system_name", ["ecmp", "hula", "contra"])
    def test_fattree_systems_deliver_all_flows(self, system_name):
        topo, spec = fattree_workload()
        system = build_routing_system(system_name, topo, CONFIG)
        summary = simulate(topo, system, spec.flows).summary()
        assert summary["completion_ratio"] > 0.95
        assert summary["loop_fraction"] == 0.0 or summary["loop_fraction"] < 0.01

    @pytest.mark.parametrize("system_name", ["shortest-path", "spain", "contra"])
    def test_abilene_systems_deliver_all_flows(self, system_name):
        topo = abilene(capacity=CONFIG.abilene_capacity, hosts_per_switch=1)
        senders = ["h_IPL_0", "h_ATL_0", "h_WDC_0", "h_SNV_0"]
        receivers = ["h_KSC_0", "h_SNV_0", "h_SEA_0", "h_HOU_0"]
        spec = generate_workload(topo, cache_distribution(0.5), load=0.5,
                                 duration=8.0, host_capacity=CONFIG.abilene_capacity,
                                 senders=senders, receivers=receivers,
                                 pair_senders_receivers=True, seed=1)
        system = build_routing_system(system_name, topo, CONFIG)
        summary = simulate(topo, system, spec.flows, run_duration=80.0).summary()
        assert summary["completion_ratio"] > 0.95

    def test_load_balancers_beat_ecmp_under_congestion(self):
        """The Figure 11 headline: at high load Contra and Hula outperform ECMP."""
        topo, spec = fattree_workload(load=0.9, seed=3)
        results = {}
        for name in ("ecmp", "contra", "hula"):
            system = build_routing_system(name, topo, CONFIG)
            results[name] = simulate(topo, system, spec.flows).summary()
        assert results["contra"]["avg_fct_ms"] < results["ecmp"]["avg_fct_ms"]
        assert results["hula"]["avg_fct_ms"] < results["ecmp"]["avg_fct_ms"]

    def test_contra_close_to_hula(self):
        """§6.3: Hula outperforms Contra only slightly on its home turf."""
        topo, spec = fattree_workload(load=0.7, seed=5)
        results = {}
        for name in ("contra", "hula"):
            system = build_routing_system(name, topo, CONFIG)
            results[name] = simulate(topo, system, spec.flows).summary()
        assert results["contra"]["avg_fct_ms"] <= 1.5 * results["hula"]["avg_fct_ms"]


class TestOverheadAccounting:
    def test_contra_adds_probe_and_tag_bytes(self):
        topo, spec = fattree_workload(load=0.4)
        contra = build_routing_system("contra", topo, CONFIG)
        ecmp = build_routing_system("ecmp", topo, CONFIG)
        contra_stats = simulate(topo, contra, spec.flows)
        ecmp_stats = simulate(topo, ecmp, spec.flows)
        assert contra_stats.probe_bytes > 0
        assert contra_stats.tag_overhead_bytes > 0
        assert ecmp_stats.probe_bytes == 0
        assert contra_stats.data_bytes == pytest.approx(ecmp_stats.data_bytes, rel=0.05)

    def test_hula_probe_overhead_smaller_than_contra(self):
        """§6.3/§6.5: Contra probes more broadly than Hula (generality cost)."""
        topo, spec = fattree_workload(load=0.4)
        contra = simulate(topo, build_routing_system("contra", topo, CONFIG), spec.flows)
        hula = simulate(topo, build_routing_system("hula", topo, CONFIG), spec.flows)
        assert hula.probe_bytes < contra.probe_bytes


class TestFailureHandling:
    def test_asymmetric_fattree_contra_keeps_delivering(self):
        topo, spec = fattree_workload(load=0.6, seed=2)
        failed = default_failed_link(topo)
        contra = build_routing_system("contra", topo, CONFIG)
        summary = simulate(topo, contra, spec.flows, failed_link=failed).summary()
        assert summary["completion_ratio"] > 0.95

    def test_asymmetric_fattree_hurts_ecmp_more_than_contra(self):
        topo, spec = fattree_workload(load=0.8, seed=2)
        failed = default_failed_link(topo)
        summaries = {}
        for name in ("ecmp", "contra"):
            system = build_routing_system(name, topo, CONFIG)
            summaries[name] = simulate(topo, system, spec.flows,
                                       failed_link=failed).summary()
        assert summaries["contra"]["completion_ratio"] >= summaries["ecmp"]["completion_ratio"]
        assert summaries["ecmp"]["drops"] > summaries["contra"]["drops"]

    def test_mid_run_failure_triggers_detection_and_reroute(self):
        topo = leafspine(2, 2, hosts_per_leaf=2, capacity=50.0)
        compiled = compile_policy(datacenter_policy(), topo)
        system = ContraSystem(compiled, probe_period=0.25, failure_periods=3)
        network = Network(topo, system, stats=StatsCollector(record_paths=True))
        spec = generate_workload(topo, uniform_distribution(5, 20), load=0.4,
                                 duration=15.0, host_capacity=50.0, seed=4)
        network.schedule_flows(spec.flows)
        network.fail_link("spine0", "leaf1", at_time=5.0)
        stats = network.run(60.0)
        assert stats.failure_detections >= 1
        assert stats.completion_ratio() > 0.9
        # After the failure, delivered inter-leaf paths avoid spine0->leaf1.
        late_paths = [trace for _flow, trace in stats.delivered_paths
                      if "leaf0" in trace and "leaf1" in trace]
        assert late_paths, "no inter-leaf traffic delivered"
