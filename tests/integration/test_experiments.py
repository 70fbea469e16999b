"""Integration tests for the experiment drivers (scaled-down configurations).

Each driver is run with tiny parameters; the assertions check the *structure*
and the qualitative relations the paper reports, not absolute numbers.
"""

import dataclasses
import math

import pytest

from repro.experiments import ablations, report
from repro.experiments.ablations import (
    flowlet_timeout_specs,
    probe_period_specs,
    run_tag_minimization_ablation,
    to_ablation_points,
    versioning_specs,
)
from repro.experiments.config import (
    PRESETS,
    ExperimentConfig,
    config_from_env,
    default_config,
    full_config,
    quick_config,
)
from repro.experiments.failure_recovery import (
    analyse_recovery_results,
    failure_recovery_specs,
)
from repro.experiments.fct import (
    abilene_fct_specs,
    fattree_fct_specs,
    queue_cdf_specs,
    to_fct_points,
)
from repro.experiments.overhead import overhead_specs, to_overhead_points
from repro.experiments.runner import (
    build_routing_system,
    datacenter_policy,
    default_failed_link,
    run_grid,
)
from repro.experiments.scalability import run_scalability_sweep, scalability_policies
from repro.exceptions import ExperimentError
from repro.topology.fattree import fattree

TINY = ExperimentConfig(workload_duration=5.0, run_duration=40.0, loads=(0.6,),
                        websearch_scale=0.05, cache_scale=0.2)


class TestConfig:
    def test_presets_scale_durations(self):
        assert quick_config().workload_duration < default_config().workload_duration
        assert len(full_config().loads) > len(default_config().loads)

    @pytest.mark.parametrize("value", ["ful", "FULL", "Quick", ""])
    def test_an_unknown_env_preset_is_refused(self, monkeypatch, value):
        # "ful" ran the quick preset, and "FULL" the full one while the
        # Fig. 9/10 benchmarks, comparing the raw value, ran quick sizes.
        monkeypatch.setenv("CONTRA_EXPERIMENT_PRESET", value)
        with pytest.raises(ExperimentError, match=r"choose one of quick, default, full"):
            config_from_env()

    @pytest.mark.parametrize("value", sorted(PRESETS))
    def test_every_preset_resolves_from_the_env(self, monkeypatch, value):
        monkeypatch.setenv("CONTRA_EXPERIMENT_PRESET", value)
        assert config_from_env() == PRESETS[value]()

    def test_scaled_overrides_loads(self):
        config = default_config().scaled(0.5, loads=(0.3,))
        assert config.loads == (0.3,)
        assert config.workload_duration == pytest.approx(
            default_config().workload_duration * 0.5)


class TestRunnerHelpers:
    def test_unknown_system_rejected(self):
        topo = fattree(4)
        with pytest.raises(ExperimentError):
            build_routing_system("ospf", topo, TINY)

    def test_default_failed_link_is_agg_core(self):
        topo = fattree(4)
        agg, core = default_failed_link(topo)
        assert topo.node_role(agg) == "aggregation"
        assert topo.node_role(core) == "core"

    def test_datacenter_policy_uses_len_then_util(self):
        assert set(datacenter_policy().attributes()) == {"len", "util"}


class TestScalabilitySweep:
    def test_sweep_produces_one_point_per_combination(self):
        points = run_scalability_sweep(families=("fattree",), fattree_sizes=(20, 45),
                                       policies=("MU", "WP"))
        assert len(points) == 4
        assert {p.policy for p in points} == {"MU", "WP"}

    def test_product_graph_grows_with_size(self):
        """Fig. 9's growth claim on the deterministic size of what is compiled:
        50 → 200 random switches gives 50 → 200 product-graph nodes and
        196 → 790 edges under MU."""
        points = run_scalability_sweep(families=("random",), random_sizes=(50, 200),
                                       policies=("MU",))
        small, large = sorted(points, key=lambda p: p.size)
        assert (small.pg_nodes, large.pg_nodes) == (50, 200)
        assert large.pg_edges >= 4 * small.pg_edges

    def test_compile_time_grows_with_size(self):
        """The same claim on wall-clock, at a size gap that measures.

        50 against 200 switches does not: each compile is a few ms, so one
        scheduler stall on a loaded host reverses the order (11.5 ms vs
        10.3 ms in a failing run).  Measured on a 2-core Xeon host: 20 single
        runs per size read 0.7 ms (50) and 5.8 ms (400) in the median, a
        400/50 ratio of at least 4.7 pairwise; the best of three runs per
        size, over 20 trials, gave a ratio of 6.3 at least and 8.5 in the
        median.  The best of three must stay above 3×.
        """
        runs = [run_scalability_sweep(families=("random",), random_sizes=(50, 400),
                                      policies=("MU",))
                for _ in range(3)]
        small, large = (min(point.compile_time_s for points in runs for point in points
                            if point.size == size)
                        for size in (50, 400))
        assert large > 3 * small

    def test_regex_policy_needs_more_state_than_mu(self):
        points = run_scalability_sweep(families=("fattree",), fattree_sizes=(20,),
                                       policies=("MU", "WP", "CA"))
        by_policy = {p.policy: p for p in points}
        assert by_policy["WP"].max_state_kb > by_policy["MU"].max_state_kb
        assert by_policy["CA"].max_state_kb > by_policy["MU"].max_state_kb
        assert by_policy["CA"].num_probe_ids == 2

    @pytest.mark.slow
    def test_state_stays_well_under_switch_capacity(self):
        """Figure 10: even at 500 switches the state stays far below MBs."""
        points = run_scalability_sweep(families=("fattree",), fattree_sizes=(500,),
                                       policies=("MU",))
        assert points[0].max_state_kb < 1024

    @pytest.mark.parametrize("arguments,complaint", (
        (dict(families=("fattree", "torus")), "family 'torus'"),
        (dict(policies=("MU", "P1")), "policy 'P1'"),
        (dict(fattree_sizes=(2.5,)), "2.5"),
        (dict(fattree_sizes=(20, 0)), "fattree size 0"),
        (dict(fattree_sizes=(True,)), "True"),
        (dict(random_sizes=(100, 4)), "random size 4"),
        (dict(random_sizes=("100",)), "'100'"),
    ))
    @pytest.mark.parametrize("processes", (1, 2))
    def test_bad_arguments_refused_before_any_topology_or_pool(
            self, monkeypatch, arguments, complaint, processes):
        """These were a bare ``ValueError`` / ``KeyError`` from inside a pool
        worker, after a topology was built — or, for 2.5, a recorded point."""
        from repro.exceptions import ExperimentError
        from repro.experiments import runner, scalability

        def untouched(*args, **kwargs):
            raise AssertionError("built a topology or started a pool for a refused sweep")

        monkeypatch.setattr(scalability, "_build_topology", untouched)
        monkeypatch.setattr(runner, "grid_map", untouched)
        with pytest.raises(ExperimentError, match=complaint):
            run_scalability_sweep(processes=processes, **arguments)

    def test_sizes_of_a_family_not_swept_are_not_judged(self):
        points = run_scalability_sweep(families=("fattree",), fattree_sizes=(20,),
                                       random_sizes=(2.5,), policies=("MU",))
        assert [p.size for p in points] == [20]

    def test_policies_bound_to_topology(self):
        topo = fattree(4, hosts_per_edge=0)
        bound = scalability_policies(topo)
        assert set(bound) == {"MU", "WP", "CA"}

    def test_report_formatting(self):
        points = run_scalability_sweep(families=("fattree",), fattree_sizes=(20,),
                                       policies=("MU",))
        text = report.format_scalability(points)
        assert "compile_s" in text and "fattree" in text


class TestFctExperiments:
    def test_fig11_shape(self):
        points = to_fct_points(run_grid(
            fattree_fct_specs(TINY, loads=(0.8,), workloads=("web_search",))))
        by_system = {p.system: p for p in points}
        assert set(by_system) == {"ecmp", "contra", "hula"}
        for point in points:
            assert point.completed > 0
            assert not math.isnan(point.avg_fct_ms)
        # At high load the utilization-aware systems are at least competitive
        # with ECMP (the paper reports a clear win; with the tiny preset we
        # only assert the ordering does not invert badly).
        assert by_system["contra"].avg_fct_ms <= by_system["ecmp"].avg_fct_ms * 1.15
        assert by_system["hula"].avg_fct_ms <= by_system["ecmp"].avg_fct_ms * 1.15
        text = report.format_fct(points)
        assert "avg_fct_ms" in text

    def test_fig12_asymmetric_hurts_ecmp(self):
        points = to_fct_points(run_grid(
            fattree_fct_specs(TINY, loads=(0.8,), workloads=("web_search",),
                              asymmetric=True)))
        by_system = {p.system: p for p in points}
        assert by_system["ecmp"].drops > by_system["contra"].drops
        assert by_system["contra"].completed >= by_system["ecmp"].completed

    def test_fig13_queue_cdf_contra_shorter_than_ecmp(self):
        cdfs = {result.system: result.queue_cdf
                for result in run_grid(queue_cdf_specs(TINY))}
        assert set(cdfs) == {"ecmp", "contra"}
        assert cdfs["contra"][1.0] <= cdfs["ecmp"][1.0]
        text = report.format_queue_cdf(cdfs)
        assert "p99" in text

    def test_fig15_contra_beats_static_routing_on_abilene(self):
        points = to_fct_points(run_grid(
            abilene_fct_specs(TINY.scaled(2.0, loads=(0.9,)), loads=(0.9,),
                              workloads=("web_search",))))
        by_system = {p.system: p for p in points}
        assert set(by_system) == {"shortest-path", "contra", "spain"}
        for point in points:
            assert point.completed > 0
        assert by_system["contra"].avg_fct_ms <= by_system["shortest-path"].avg_fct_ms


class TestOverheadExperiment:
    def test_fig16_ordering_and_magnitude(self):
        points = to_overhead_points(run_grid(
            [spec for spec in overhead_specs(TINY)
             if spec.workload == "web_search" and spec.load == 0.6]))
        by_system = {p.system: p for p in points}
        assert by_system["ecmp"].normalized_vs_ecmp == pytest.approx(1.0)
        assert by_system["hula"].normalized_vs_ecmp >= 1.0
        assert by_system["contra"].normalized_vs_ecmp >= by_system["hula"].normalized_vs_ecmp
        # Capacity-corrected overhead is small (the paper reports ~0.8%).
        assert by_system["contra"].normalized_vs_ecmp_scaled < 1.25
        assert by_system["contra"].loop_fraction < 0.01
        text = report.format_overhead(points)
        assert "norm_scaled" in text


class TestFailureRecoveryExperiment:
    def test_fig14_recovery_within_a_few_ms(self):
        specs = failure_recovery_specs(TINY, failure_time=20.0, run_duration=40.0)
        results = analyse_recovery_results(run_grid(specs), failure_time=20.0)
        assert set(results) == {"contra", "hula"}
        for result in results.values():
            assert result.baseline_rate > 0
            assert result.failure_detections >= 1
            # Either no visible dip (loss below threshold) or a fast recovery.
            assert math.isnan(result.dip_delay) or result.recovered
            if result.recovered:
                assert result.recovery_delay <= 5.0
        text = report.format_recovery(results)
        assert "recovered_after_ms" in text


def _at_half_load(specs):
    """The ablation points at 50% load instead of the ablations' 60%."""
    return [dataclasses.replace(spec, load=0.5) for spec in specs]


class TestAblations:
    def test_probe_period_ablation_runs(self):
        specs = _at_half_load(probe_period_specs(TINY, periods=(0.256, 1.024)))
        points = to_ablation_points(specs, run_grid(specs))["probe_period"]
        assert len(points) == 2
        assert all(p.completed > 0 for p in points)
        # Longer periods send fewer probes.
        assert points[1].overhead_ratio < points[0].overhead_ratio
        assert "probe_period_ms" in report.format_ablation(points)

    def test_flowlet_timeout_ablation_runs(self):
        specs = _at_half_load(flowlet_timeout_specs(TINY, timeouts=(0.1, 1.6)))
        points = to_ablation_points(specs, run_grid(specs))["flowlet_timeout"]
        assert len(points) == 2
        assert all(p.completed > 0 for p in points)

    def test_versioning_ablation_runs(self):
        specs = _at_half_load(versioning_specs(TINY))
        points = to_ablation_points(specs, run_grid(specs))["versioning"]
        assert {p.value for p in points} == {0.0, 1.0}
        assert all(p.completed > 0 for p in points)

    def test_tag_minimization_reduces_or_keeps_tags(self, monkeypatch):
        monkeypatch.setattr(ablations, "TAG_MINIMIZATION_SIZES", (20,))
        points = run_tag_minimization_ablation()
        minimized = next(p for p in points if p.minimize_tags)
        raw = next(p for p in points if not p.minimize_tags)
        assert minimized.pg_nodes <= raw.pg_nodes
        assert minimized.max_tags_per_switch <= raw.max_tags_per_switch
