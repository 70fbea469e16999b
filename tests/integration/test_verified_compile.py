"""A cross-checked compile changes no experiment result, and grid policies
have nothing for the verification plane to prune.

``verifying_compile`` runs the lowered-table cross-checker
(:func:`~repro.core.analysis.crosscheck.verify_lowered_tables`) after every
compile and raises on any disagreement, so the paper-figure
experiments must produce byte-identical summaries with and without it —
and every summary of the verified runs was produced from cross-checked
tables.  Dead-state pruning is the verification plane's
(:func:`~repro.core.analysis.prune_dead_nodes`); compile never prunes.
"""

import repro.experiments.runner as runner_module
from repro.core.analysis.reachability import prune_dead_nodes
from repro.core.analysis.crosscheck import verify_lowered_tables
from repro.core.compiler import compile_policy
from repro.core.product_graph import build_product_graph
from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import run_scenario
from repro.experiments.runner import ScenarioSpec, TopologySpec, datacenter_policy, run_grid

TINY = ExperimentConfig(workload_duration=4.0, run_duration=30.0, loads=(0.6,),
                        websearch_scale=0.05)

def verifying_compile(policy, topology, options=None):
    compiled = compile_policy(policy, topology, options)
    verify_lowered_tables(compiled)
    return compiled


def tiny_specs():
    topology = TopologySpec("fattree", k=4, capacity=TINY.host_capacity,
                            oversubscription=TINY.oversubscription)
    return [
        ScenarioSpec(name=f"fig11-like:{system}", system=system,
                     topology=topology, config=TINY, workload="web_search",
                     load=0.6, seed=TINY.seed, stop_after_completion=True)
        for system in ("contra", "ecmp")
    ]


def summaries(results):
    return [(result.name, sorted(result.summary.items())) for result in results]


class TestVerifiedEquivalence:
    def test_fig11_quick_grid_summary_byte_identical(self, monkeypatch):
        plain = run_grid(tiny_specs(), processes=1)
        monkeypatch.setattr(runner_module, "compile_policy", verifying_compile)
        verified = run_grid(tiny_specs(), processes=1)
        assert summaries(plain) == summaries(verified)

    def test_fig13_scenario_payload_identical(self, monkeypatch):
        plain = run_scenario("fig13", TINY)
        monkeypatch.setattr(runner_module, "compile_policy", verifying_compile)
        verified = run_scenario("fig13", TINY)
        assert plain.payload == verified.payload
        assert plain.text == verified.text

    def test_grid_policy_has_no_dead_nodes(self):
        topology = TopologySpec("fattree", k=4, capacity=TINY.host_capacity,
                                oversubscription=TINY.oversubscription).build()
        policy = datacenter_policy()
        graph = build_product_graph(topology, policy.regexes())
        report = prune_dead_nodes(policy, graph)
        # Grid policies are regex-free: nothing to prune, nothing pruned.
        assert report.num_dead == 0
        assert report.tags_total_before == report.tags_total_after == graph.num_nodes
