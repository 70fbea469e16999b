"""Regression tests: TopologySpec.build must apply every field or reject it.

Before the scenario-diversity refactor, several spec fields were silently
dropped (``capacity``/``hosts_per_switch`` for ``random``,
``hosts_per_switch``/``seed`` for ``fattree``, ``oversubscription`` for
``leafspine``), so two specs that compare (and cache) as *different* keys
could build *identical* networks.  Every test in this module fails on that
pre-fix behaviour.
"""

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.runner import TopologySpec


class TestRandomFamilyAppliesFields:
    def test_capacity_reaches_the_links(self):
        topo = TopologySpec("random", size=8, seed=3, capacity=42.0).build()
        assert all(link.capacity == 42.0 for link in topo.links)

    def test_hosts_per_switch_attaches_hosts(self):
        bare = TopologySpec("random", size=8, seed=3, capacity=10.0).build()
        hosted = TopologySpec("random", size=8, seed=3, capacity=10.0,
                              hosts_per_switch=2).build()
        assert len(bare.hosts) == 0
        assert len(hosted.hosts) == 16

    def test_distinct_specs_build_distinct_networks(self):
        # The original bug: these two cached under different keys but built
        # byte-identical topologies because capacity was dropped.
        low = TopologySpec("random", size=8, seed=3, capacity=10.0).build()
        high = TopologySpec("random", size=8, seed=3, capacity=99.0).build()
        assert low.links[0].capacity != high.links[0].capacity

    def test_size_required(self):
        with pytest.raises(ExperimentError):
            TopologySpec("random").build()


class TestFattreeFamily:
    def test_hosts_per_switch_sets_hosts_per_edge(self):
        default = TopologySpec("fattree", k=4).build()
        single = TopologySpec("fattree", k=4, hosts_per_switch=1).build()
        assert len(default.hosts) == 16      # k^3/4 for k=4
        assert len(single.hosts) == 8        # one host per edge switch

    def test_seed_rejected(self):
        with pytest.raises(ExperimentError, match="seed"):
            TopologySpec("fattree", k=4, seed=7).build()

    def test_size_rejected(self):
        with pytest.raises(ExperimentError, match="size"):
            TopologySpec("fattree", k=4, size=10).build()

    def test_latency_applied(self):
        topo = TopologySpec("fattree", k=4, latency=0.2).build()
        assert all(link.latency == 0.2 for link in topo.links)


class TestLeafspineFamily:
    def test_oversubscription_divides_uplink_capacity(self):
        topo = TopologySpec("leafspine", k=2, capacity=100.0,
                            oversubscription=4.0).build()
        assert topo.link("leaf0", "spine0").capacity == 25.0
        assert topo.link("h0_0", "leaf0").capacity == 100.0

    def test_oversubscription_distinguishes_specs(self):
        # Pre-fix, oversubscription was dropped for leafspine: both specs
        # built the same fabric.
        flat = TopologySpec("leafspine", k=2, capacity=100.0,
                            oversubscription=1.0).build()
        scaled = TopologySpec("leafspine", k=2, capacity=100.0,
                              oversubscription=2.0).build()
        assert flat.link("leaf0", "spine0").capacity != \
            scaled.link("leaf0", "spine0").capacity

    def test_default_oversubscription_means_no_oversubscription(self):
        # The spec default is the 0.0 sentinel = generator default (1:1);
        # the fattree-style 4:1 must be asked for explicitly.
        topo = TopologySpec("leafspine", k=2, capacity=100.0).build()
        assert topo.link("leaf0", "spine0").capacity == 100.0

    def test_non_square_leaves_and_spines(self):
        topo = TopologySpec("leafspine", leaves=4, spines=2,
                            hosts_per_switch=3, oversubscription=1.0).build()
        assert len(topo.switches_with_role("leaf")) == 4
        assert len(topo.switches_with_role("spine")) == 2
        assert len(topo.hosts) == 12

    def test_seed_rejected(self):
        with pytest.raises(ExperimentError, match="seed"):
            TopologySpec("leafspine", k=2, seed=1).build()

    def test_k_rejected_when_leaves_and_spines_both_explicit(self):
        # With both leaves and spines set, a non-default k would be silently
        # dropped: two distinct cache keys, one network.
        with pytest.raises(ExperimentError, match="'k'"):
            TopologySpec("leafspine", k=8, leaves=4, spines=4).build()

    def test_default_k_tolerated_alongside_explicit_shape(self):
        topo = TopologySpec("leafspine", leaves=4, spines=2).build()
        assert len(topo.switches_with_role("leaf")) == 4


class TestAbileneFamily:
    def test_capacity_and_hosts_applied(self):
        topo = TopologySpec("abilene", capacity=64.0, hosts_per_switch=2).build()
        assert len(topo.hosts) == 2 * len(topo.switches)
        backbone = [l for l in topo.links if topo.is_switch(l.src) and topo.is_switch(l.dst)]
        assert all(link.capacity == 64.0 for link in backbone)

    def test_oversubscription_rejected(self):
        with pytest.raises(ExperimentError, match="oversubscription"):
            TopologySpec("abilene", oversubscription=2.0).build()


class TestZooFamily:
    @pytest.mark.parametrize("name,switches", [("nsfnet", 15), ("geant_small", 13),
                                               ("ring8", 8)])
    def test_builtin_wans_build_with_hosts(self, name, switches):
        topo = TopologySpec("zoo", name=name, hosts_per_switch=1,
                            capacity=50.0).build()
        assert len(topo.switches) == switches
        assert len(topo.hosts) == switches
        backbone = [l for l in topo.links if topo.is_switch(l.src) and topo.is_switch(l.dst)]
        assert all(link.capacity == 50.0 for link in backbone)

    def test_name_required(self):
        with pytest.raises(ExperimentError, match="name"):
            TopologySpec("zoo").build()

    def test_unknown_builtin_rejected(self):
        from repro.exceptions import TopologyError
        with pytest.raises(TopologyError):
            TopologySpec("zoo", name="internet2-of-thrones").build()

    def test_seed_rejected(self):
        with pytest.raises(ExperimentError, match="seed"):
            TopologySpec("zoo", name="ring8", seed=5).build()

    def test_latency_applied_to_edge_list_wans(self):
        topo = TopologySpec("zoo", name="ring8", latency=0.3).build()
        assert all(link.latency == 0.3 for link in topo.links)

    def test_latency_rejected_for_zoo_abilene(self):
        # abilene has per-link scaled latencies, not one default; accepting
        # the field would silently drop it (distinct cache keys, same net).
        with pytest.raises(ExperimentError, match="latency"):
            TopologySpec("zoo", name="abilene", latency=0.3).build()

    def test_builtin_topology_rejects_abilene_default_latency(self):
        # The guard lives in zoo.py itself, not only in TopologySpec.
        from repro.exceptions import TopologyError
        from repro.topology.zoo import builtin_topology
        with pytest.raises(TopologyError, match="default_latency"):
            builtin_topology("abilene", default_latency=0.3)

    def test_zoo_abilene_capacity_applied(self):
        topo = TopologySpec("zoo", name="abilene", capacity=64.0).build()
        backbone = [l for l in topo.links
                    if topo.is_switch(l.src) and topo.is_switch(l.dst)]
        assert all(link.capacity == 64.0 for link in backbone)


class TestUnknownFieldsAndFamilies:
    def test_unknown_family_rejected(self):
        with pytest.raises(ExperimentError):
            TopologySpec("moebius").build()

    def test_leaves_rejected_outside_leafspine(self):
        with pytest.raises(ExperimentError, match="leaves"):
            TopologySpec("random", size=6, leaves=2).build()

    def test_name_rejected_outside_zoo(self):
        with pytest.raises(ExperimentError, match="name"):
            TopologySpec("fattree", name="nsfnet").build()


class TestNonFiniteLinkParameters:
    """A NaN latency used to build (``nan < 0`` is false), give ``max_rtt() == 0.0``
    and compile to the 0.25 ms fallback probe period without a word."""

    FAMILIES = (dict(family="fattree"), dict(family="leafspine"),
                dict(family="random", size=8), dict(family="zoo", name="ring8"))

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda kw: kw["family"])
    @pytest.mark.parametrize("field", ("latency", "capacity"))
    @pytest.mark.parametrize("value", (float("nan"), float("inf")))
    def test_refused_by_the_spec(self, family, field, value):
        with pytest.raises(ExperimentError, match=field):
            TopologySpec(**family, **{field: value}).build()

    def test_oversubscription_too(self):
        with pytest.raises(ExperimentError, match="oversubscription"):
            TopologySpec("fattree", oversubscription=float("nan")).build()
        with pytest.raises(ExperimentError, match="oversubscription"):
            TopologySpec("leafspine", oversubscription=float("inf")).build()

    def test_run_context_refuses_before_any_compile(self, monkeypatch):
        from repro.experiments import runner
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import RunContext, ScenarioSpec

        def no_compile(*args, **kwargs):
            raise AssertionError("compiled a policy for a topology that cannot exist")

        monkeypatch.setattr(runner, "compile_policy", no_compile)
        spec = ScenarioSpec(name="nan-latency", system="contra",
                            topology=TopologySpec("fattree", latency=float("nan")),
                            config=ExperimentConfig())
        with pytest.raises(ExperimentError, match="latency"):
            RunContext().run(spec)

    def test_zero_latency_still_builds(self):
        topo = TopologySpec("fattree", latency=0.0).build()
        assert topo.max_rtt() == 0.0
