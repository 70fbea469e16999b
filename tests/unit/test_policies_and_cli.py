"""Unit tests for the Figure 3 policy library and the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.core import policies
from repro.core.rank import INFINITY, Rank


class TestPolicyLibrary:
    def test_all_policies_registry(self):
        assert set(policies.ALL_POLICIES) == {f"P{i}" for i in range(1, 10)}

    def test_p1_shortest_path(self):
        assert policies.shortest_path().rank_path(["A", "B", "C"]) == Rank(2)

    def test_p2_minimum_utilization(self):
        assert policies.minimum_utilization().rank_path(["A", "B"], {"util": 0.4}) == Rank(0.4)

    def test_p3_p4_tuple_order(self):
        metrics = {"util": 0.4, "len": 3}
        assert policies.widest_shortest_paths().rank_path(["A", "B", "C", "D"], metrics) == \
            Rank((0.4, 3))
        assert policies.shortest_widest_paths().rank_path(["A", "B", "C", "D"], metrics) == \
            Rank((3, 0.4))

    def test_p5_waypointing(self):
        policy = policies.waypointing(("F1", "F2"))
        assert policy.rank_path(["A", "F1", "B"], {"util": 0.2}) == Rank(0.2)
        assert policy.rank_path(["A", "F2", "B"], {"util": 0.2}) == Rank(0.2)
        assert policy.rank_path(["A", "B"], {"util": 0.2}) == INFINITY

    def test_p5_requires_waypoints(self):
        with pytest.raises(ValueError):
            policies.waypointing(())

    def test_p6_link_preference(self):
        policy = policies.link_preference("X", "Y")
        assert policy.rank_path(["A", "X", "Y", "B"], {"util": 0.1}) == Rank(0.1)
        assert policy.rank_path(["A", "Y", "X", "B"], {"util": 0.1}) == INFINITY

    def test_p7_weighted_link(self):
        policy = policies.weighted_link("X", "Y", weight=10)
        assert policy.rank_path(["A", "X", "Y", "B"]) == Rank(13)
        assert policy.rank_path(["A", "B"]) == Rank(1)

    def test_p8_source_local_preference(self):
        policy = policies.source_local_preference("X")
        metrics = {"util": 0.3, "lat": 7.0}
        assert policy.rank_path(["X", "B"], metrics) == Rank(0.3)
        assert policy.rank_path(["A", "B"], metrics) == Rank(7.0)

    def test_p9_congestion_aware(self):
        policy = policies.congestion_aware(0.8)
        assert policy.rank_path(["A", "B"], {"util": 0.5}) == Rank((1, 0, 0.5))
        assert policy.rank_path(["A", "B", "C"], {"util": 0.9}) == Rank((2, 2, 0.9))

    def test_failover_preference(self):
        policy = policies.failover_preference(("A", "B", "D"), ("A", "C", "D"))
        assert policy.rank_path(["A", "B", "D"]) == Rank(0)
        assert policy.rank_path(["A", "C", "D"]) == Rank(1)
        assert policy.rank_path(["A", "D"]) == INFINITY

    def test_minimize_latency(self):
        assert policies.minimize_latency().rank_path(["A", "B"], {"lat": 3.5}) == Rank(3.5)

    def test_evaluation_aliases(self):
        assert policies.MU().name == "MU"
        assert policies.CA().name == "CA"
        assert policies.WP(("W1",)).name == "WP"
        assert len(policies.WP(("W1", "W2")).regexes()) == 3


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_policies_command(self, capsys):
        assert main(["policies"]) == 0
        output = capsys.readouterr().out
        assert "P1" in output and "P9" in output

    def test_compile_builtin_policy_on_leafspine(self, capsys):
        assert main(["compile", "P2", "--topology", "leafspine", "--k", "2"]) == 0
        output = capsys.readouterr().out
        assert "probe ids" in output
        assert "switch state" in output

    def test_compile_inline_policy_on_abilene(self, capsys):
        assert main(["compile", "minimize( path.lat )", "--topology", "abilene"]) == 0
        assert "product graph" in capsys.readouterr().out

    def test_compile_emits_p4(self, tmp_path, capsys):
        out_dir = tmp_path / "p4"
        assert main(["compile", "P2", "--topology", "leafspine", "--k", "2",
                     "--emit-p4", str(out_dir)]) == 0
        programs = list(out_dir.glob("*.p4"))
        assert len(programs) == 4
        assert "contra_probe_t" in programs[0].read_text()

    def test_compile_unknown_topology_fails(self):
        with pytest.raises(SystemExit):
            main(["compile", "P2", "--topology", "does-not-exist"])

    def test_compile_takes_a_paper_alias(self, capsys):
        assert main(["compile", "MU", "--topology", "fattree", "--k", "4"]) == 0
        assert f"policy        : {policies.MU()}" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["compile", "P99"], "policy 'P99': expected 'minimize' but found 'P99'"),
        (["compile", "minimize(10 - path.len)", "--topology", "abilene"],
         "policy 'minimize(10 - path.len)': policy is not monotone"),
        (["check-policy", "minimize(("],
         "policy 'minimize((': unexpected end of policy expression"),
        (["check-policy", "minimize(10 - path.len)", "--topo", "abilene"],
         "policy 'minimize(10 - path.len)': policy is not monotone"),
    ])
    def test_a_policy_error_is_one_line(self, argv, message):
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert str(raised.value.code).startswith(message)
        assert "\n" not in str(raised.value.code)

    def test_experiment_unknown_name_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-grid", "fig99"])

    def test_leafspine_shape_flags_reach_the_generator(self):
        # Regression: the CLI used to hardcode hosts_per_leaf=2 and force a
        # square leaves == spines == k fabric.
        from repro.cli import _build_topology
        args = build_parser().parse_args(
            ["compile", "P2", "--topology", "leafspine",
             "--leaves", "3", "--spines", "2", "--hosts-per-leaf", "1"])
        topo = _build_topology(args)
        assert len(topo.switches_with_role("leaf")) == 3
        assert len(topo.switches_with_role("spine")) == 2
        assert len(topo.hosts) == 3

    def test_leafspine_defaults_remain_square_k(self):
        from repro.cli import _build_topology
        args = build_parser().parse_args(
            ["compile", "P2", "--topology", "leafspine", "--k", "2"])
        topo = _build_topology(args)
        assert len(topo.switches_with_role("leaf")) == 2
        assert len(topo.switches_with_role("spine")) == 2
        assert len(topo.hosts) == 4

    def test_new_scenarios_accepted_by_run_grid_parser(self):
        for scenario in ("incast", "multi-failure", "recovery-sweep"):
            args = build_parser().parse_args(["run-grid", scenario])
            assert args.name == scenario


class TestCheckPolicyCli:
    def test_isotonic_policy_certified(self, capsys):
        assert main(["check-policy", "P2"]) == 0
        out = capsys.readouterr().out
        assert "semantic=certified" in out
        assert "verdict: OK" in out

    def test_p9_reports_concrete_counterexample(self, capsys):
        assert main(["check-policy", "P9"]) == 0  # non-isotonic is not a failure
        out = capsys.readouterr().out
        assert "WITNESS FOUND" in out
        assert "isotonicity counterexample" in out
        assert "preference inverts" in out

    def test_alias_and_inline_policies_accepted(self, capsys):
        assert main(["check-policy", "MU"]) == 0
        assert main(["check-policy", "minimize( path.lat )"]) == 0

    def test_non_monotone_policy_fails(self, capsys):
        assert main(["check-policy", "minimize( 10 - path.len )"]) == 1
        out = capsys.readouterr().out
        assert "verdict: FAILED" in out
        assert "rank decreases" in out

    def test_json_report_single_policy(self, tmp_path, capsys):
        import json
        report_path = tmp_path / "p9.json"
        assert main(["check-policy", "P9", "--json", str(report_path)]) == 0
        data = json.loads(report_path.read_text())
        assert data["policy"] == "P9-congestion-aware"
        assert data["ok"] is True
        assert data["syntactic"]["needs_metric_decomposition"] is True
        witness = data["semantic"]["isotonicity_witness"]
        assert witness is not None and "description" in witness

    def test_json_report_all_policies(self, tmp_path, capsys):
        import json
        report_path = tmp_path / "all.json"
        assert main(["check-policy", "--all", "--json", str(report_path)]) == 0
        data = json.loads(report_path.read_text())
        assert len(data) == 9
        assert {entry["policy"][:2] for entry in data} == \
            {f"P{i}" for i in range(1, 10)}

    def test_topology_run_includes_reachability_and_crosscheck(self, capsys):
        assert main(["check-policy", "P2", "--topo", "abilene"]) == 0
        out = capsys.readouterr().out
        assert "topology abilene" in out
        assert "product graph" in out
        assert "cross-check" in out

    def test_missing_policy_argument_rejected(self):
        with pytest.raises(SystemExit):
            main(["check-policy"])
