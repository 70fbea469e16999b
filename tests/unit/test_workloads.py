"""Unit tests for workload distributions and generators."""

import hashlib
import math
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import WorkloadError
from repro.topology.abilene import abilene
from repro.topology.fattree import fattree
from repro.topology.leafspine import leafspine
from repro.workloads.distributions import (
    CACHE_CDF,
    WEB_SEARCH_CDF,
    EmpiricalCDF,
    Generator,
    cache_distribution,
    distribution_by_name,
    uniform_distribution,
    web_search_distribution,
)
from repro.workloads.generator import (
    FlowStream,
    generate_workload,
    incast_pairs,
    permutation_pairs,
    split_senders_receivers,
    stream_workload,
)


class TestEmpiricalCDF:
    def test_builtin_cdfs_are_valid(self):
        assert WEB_SEARCH_CDF.points[-1][0] == 1.0
        assert CACHE_CDF.points[-1][0] == 1.0

    def test_web_search_is_heavier_tailed_than_cache(self):
        assert WEB_SEARCH_CDF.mean() > CACHE_CDF.mean()
        assert WEB_SEARCH_CDF.quantile(0.99) > CACHE_CDF.quantile(0.99)

    @staticmethod
    def sample(cdf, seed, count):
        rng = Generator(seed)
        return [cdf.size_at(rng.random()) for _ in range(count)]

    def test_sampling_respects_bounds(self):
        samples = self.sample(WEB_SEARCH_CDF, 0, 1000)
        assert min(samples) >= 1
        assert max(samples) <= WEB_SEARCH_CDF.points[-1][1]

    def test_sampling_is_deterministic_given_seed(self):
        assert self.sample(WEB_SEARCH_CDF, 7, 100) == self.sample(WEB_SEARCH_CDF, 7, 100)

    def test_median_sample_close_to_cdf_median(self):
        samples = self.sample(CACHE_CDF, 1, 5000)
        assert abs(statistics.median(samples) - CACHE_CDF.quantile(0.5)) <= 2

    @pytest.mark.parametrize("cdf", [WEB_SEARCH_CDF, CACHE_CDF,
                                     web_search_distribution(0.25)],
                             ids=lambda cdf: cdf.name)
    def test_size_at_is_the_scalar_twin_of_sample(self, cdf):
        """Flows are sized with ``size_at(rng.random())`` where they once
        were with numpy's ``sample`` (``np.interp``, ``np.round``, at least
        one), kept below as the oracle: same sizes and type, and quantiles
        equal to ``np.interp``'s — on a large draw and on every knot and its
        two neighbouring floats, where the segment changes and the half-even
        rounding of a .5 size would show."""
        np = pytest.importorskip("numpy", exc_type=ImportError)

        def reference_sample(uniforms):
            probabilities, sizes, _ = cdf._knots
            sampled = np.interp(uniforms, probabilities, sizes)
            return np.maximum(1, np.round(sampled)).astype(int)

        draw = Generator(5).random
        uniforms = [draw() for _ in range(100_000)]
        for probability, _ in cdf.points:
            uniforms += [probability, math.nextafter(probability, 0.0),
                         math.nextafter(probability, 2.0)]
        uniforms += [-0.25, 1.25]           # np.interp clamps outside the table
        sizes = [cdf.size_at(u) for u in uniforms]
        assert sizes == reference_sample(np.array(uniforms)).tolist()
        assert {type(size) for size in sizes} == {int}
        probabilities, table_sizes, _ = cdf._knots
        quantiles = [cdf.quantile(u) for u in uniforms]
        assert quantiles == np.interp(uniforms, probabilities, table_sizes).tolist()

    @pytest.mark.parametrize("cdf", [WEB_SEARCH_CDF, CACHE_CDF,
                                     web_search_distribution(0.25)],
                             ids=lambda cdf: cdf.name)
    def test_size_at_is_the_rounded_quantile(self, cdf):
        """``size_at`` inlines ``quantile``: at least one packet, rounded
        half-even, at random points, every knot and its neighbouring floats."""
        draw = Generator(3).random
        uniforms = [draw() for _ in range(20_000)] + [-0.25, 1.25]
        for probability, _ in cdf.points:
            uniforms += [probability, math.nextafter(probability, 0.0),
                         math.nextafter(probability, 2.0)]
        for u in uniforms:
            assert cdf.size_at(u) == max(1, round(cdf.quantile(u))), u

    def test_scaled_distribution_shrinks_sizes(self):
        scaled = web_search_distribution(0.1)
        assert scaled.mean() < WEB_SEARCH_CDF.mean()
        assert scaled.points[0][1] >= 1

    def test_invalid_scale_rejected(self):
        with pytest.raises(WorkloadError):
            web_search_distribution(0)

    def test_uniform_distribution(self):
        samples = self.sample(uniform_distribution(5, 10), 0, 200)
        assert min(samples) >= 5 and max(samples) <= 10
        with pytest.raises(WorkloadError):
            uniform_distribution(10, 5)

    def test_invalid_cdfs_rejected(self):
        with pytest.raises(WorkloadError):
            EmpiricalCDF("bad", ((0.0, 1),))
        with pytest.raises(WorkloadError):
            EmpiricalCDF("bad", ((0.0, 5), (0.5, 3), (1.0, 10)))
        with pytest.raises(WorkloadError):
            EmpiricalCDF("bad", ((0.0, 1), (0.9, 10)))

    def test_distribution_by_name(self):
        assert distribution_by_name("web_search").name.startswith("web_search")
        assert distribution_by_name("cache").name.startswith("cache")
        with pytest.raises(WorkloadError):
            distribution_by_name("hadoop")


class TestSenderReceiverSelection:
    def test_split_interleaves_hosts(self):
        topo = fattree(4)
        senders, receivers = split_senders_receivers(topo)
        assert len(senders) + len(receivers) == len(topo.hosts)
        assert not set(senders) & set(receivers)

    def test_split_requires_two_hosts(self):
        topo = leafspine(1, 1, hosts_per_leaf=1)
        with pytest.raises(WorkloadError):
            split_senders_receivers(topo)



class TestGenerateWorkload:
    def test_flows_sorted_and_within_duration(self):
        topo = leafspine(2, 2, hosts_per_leaf=2)
        spec = generate_workload(topo, uniform_distribution(1, 5), load=0.5,
                                 duration=10.0, host_capacity=10.0, seed=0)
        times = [f.start_time for f in spec.flows]
        assert times == sorted(times)
        assert all(0.0 <= t < 10.0 for t in times)
        assert all(f.src_host != f.dst_host for f in spec.flows)

    def test_load_targets_offered_load(self):
        topo = fattree(4)
        spec = generate_workload(topo, uniform_distribution(4, 4), load=0.5,
                                 duration=200.0, host_capacity=10.0, seed=1)
        assert spec.offered_load(10.0) == pytest.approx(0.5, rel=0.2)

    def test_higher_load_generates_more_packets(self):
        topo = leafspine(2, 2, hosts_per_leaf=2)
        low = generate_workload(topo, uniform_distribution(2, 6), load=0.2,
                                duration=50.0, seed=2)
        high = generate_workload(topo, uniform_distribution(2, 6), load=0.8,
                                 duration=50.0, seed=2)
        assert high.total_packets > low.total_packets

    def test_paired_mode_respects_pairs(self):
        topo = fattree(4)
        senders, receivers = ["h3_0_0", "h3_1_1", "h3_0_0"], ["h2_1_0", "h1_0_0", "h2_1_0"]
        spec = generate_workload(topo, uniform_distribution(1, 3), load=0.3, duration=20.0,
                                 senders=senders, receivers=receivers,
                                 pair_senders_receivers=True, seed=0)
        mapping = dict(zip(senders, receivers))
        assert all(mapping[f.src_host] == f.dst_host for f in spec.flows)

    def test_paired_mode_requires_equal_lengths(self):
        topo = fattree(4)
        with pytest.raises(WorkloadError):
            generate_workload(topo, uniform_distribution(1, 3), load=0.3, duration=10.0,
                              senders=["h0_0_0"], receivers=["h1_0_0", "h2_0_0"],
                              pair_senders_receivers=True)

    def test_invalid_load_rejected(self):
        topo = leafspine(2, 2, hosts_per_leaf=1)
        with pytest.raises(WorkloadError):
            generate_workload(topo, uniform_distribution(), load=0.0, duration=10.0)
        with pytest.raises(WorkloadError):
            generate_workload(topo, uniform_distribution(), load=2.0, duration=10.0)
        with pytest.raises(WorkloadError):
            generate_workload(topo, uniform_distribution(), load=0.5, duration=0.0)

    @pytest.mark.parametrize("generate", [generate_workload, stream_workload],
                             ids=["eager", "stream"])
    def test_both_generators_refuse_the_same_bad_endpoints(self, generate):
        """One resolver for both: the eager generator used to let numpy's
        bare ``ValueError: a cannot be empty`` escape where the stream raised
        ``WorkloadError``, and both accepted a name that is not a host."""
        topo = fattree(4)
        host, other = topo.hosts[:2]

        def refused(match, **endpoints):
            with pytest.raises(WorkloadError, match=match):
                generate(topo, cache_distribution(), load=0.5, duration=5.0,
                         **endpoints)

        refused("has no eligible receiver", senders=[host], receivers=[host])
        refused("senders entry 'nope' is not a host", senders=["nope"])
        refused("receivers entry 'e0_0' is not a host", receivers=["e0_0"])
        refused("equally many", senders=[host], receivers=[other, host],
                pair_senders_receivers=True)
        # A host that also receives just never draws itself.
        flows = list(generate(topo, cache_distribution(), load=0.5, duration=5.0,
                              senders=[host, other], receivers=[host, other]).flows)
        assert flows and all(f.src_host != f.dst_host for f in flows)

    def test_determinism(self):
        topo = leafspine(2, 2, hosts_per_leaf=2)
        a = generate_workload(topo, cache_distribution(), load=0.5, duration=20.0, seed=9)
        b = generate_workload(topo, cache_distribution(), load=0.5, duration=20.0, seed=9)
        assert [(f.src_host, f.dst_host, f.size_packets, f.start_time) for f in a.flows] == \
            [(f.src_host, f.dst_host, f.size_packets, f.start_time) for f in b.flows]

    @given(st.floats(min_value=0.1, max_value=0.9), st.integers(min_value=0, max_value=10))
    @settings(max_examples=15, deadline=None)
    def test_any_load_and_seed_produce_valid_workloads(self, load, seed):
        topo = leafspine(2, 2, hosts_per_leaf=2)
        spec = generate_workload(topo, cache_distribution(0.5), load=load,
                                 duration=20.0, seed=seed)
        assert all(f.size_packets >= 1 for f in spec.flows)
        assert all(f.src_host in spec.senders for f in spec.flows)
        assert all(f.dst_host in spec.receivers for f in spec.flows)


class TestEagerDrawOrder:
    """The eager generator's flows are a contract (ARCHITECTURE.md §7): ids
    seed the flow hash behind every ECMP and flowlet placement, so a changed
    draw re-keys every packet-plane and sub-threshold fluid result.  The
    constants below were computed at the commit *before* the generator went
    scalar (``rng.choice`` over a rebuilt receiver list, ``sample(rng, 1)``,
    ids re-assigned after the sort)."""

    #: fabric:workload:scale -> (flows over seeds 1, 2 and 47, digest of the
    #: three per-seed digests).  Load 0.8, 30 ms, ``start_after=1``.
    GRID = {
        "fattree4:web_search:1.0": (17, "76a5d98082e41a4f97ab3c2ecbff49bfa9cb1ff663557a5aee20aaff2ff907e7"),
        "fattree4:web_search:0.25": (58, "ad4f77d5d5ebc6daa60daedb03f19876a87414f8eda696ec21621385ffb9bd7a"),
        "fattree4:cache:1.0": (647, "a50684b2a905e48423189a8bc5293b9ad6f5df21d14fcca8681466ed7fa1696a"),
        "fattree4:cache:0.25": (2130, "f07b93b5961d99a8a7e01e47799befaf1dfb23067cdee35a49b46d15d2711cbd"),
        "fattree8:web_search:1.0": (115, "5782494ba78f0caf745f440ccb5c076f52b69bfd64459ceb224468eb4f770edb"),
        "fattree8:web_search:0.25": (514, "fb5d615ca51f00f589dde9e9dfa13ea942ebe4c2107185f803631297e2a8d0bf"),
        "fattree8:cache:1.0": (5162, "c631443cd42b8491e232c3ce270aa93857d29f7ab7fdc353aadbf1b9ae40ed7b"),
        "fattree8:cache:0.25": (17587, "677204d5ea3994b588ff3d0c202f3306eaf1bc0c1b9a887bb40a6f9ff7f61741"),
        "abilene:web_search:1.0": (14, "a4d879c0bea02b9ae577a79f3b831e2a3649982c36c369e5cc97ed3417c7f7fd"),
        "abilene:web_search:0.25": (44, "3777b58845c7085518f97cbd8fdaea78ded4c02c9eeabf99c0b884b8e31116f0"),
        "abilene:cache:1.0": (490, "a9e81cfb71600eeea11ecf80ba3a0a590db7f4b5a1969dc5b4c9544327914cfb"),
        "abilene:cache:0.25": (1610, "1ff37a7ac186a267e9410c76bd760cb640a3dda0919b58d6619760561191a240"),
    }

    def test_default_split_flows_are_the_parents(self, flow_identity):
        fabrics = {"fattree4": fattree(4), "fattree8": fattree(8),
                   "abilene": abilene()}
        total = 0
        for key, (count, expected) in self.GRID.items():
            fabric, workload, scale = key.split(":")
            digest, flows_seen = hashlib.sha256(), 0
            for seed in (1, 2, 47):
                flows = generate_workload(
                    fabrics[fabric], distribution_by_name(workload, float(scale)),
                    load=0.8, duration=30.0, seed=seed, start_after=1.0).flows
                digest.update(flow_identity(flows).encode())
                flows_seen += len(flows)
            assert (flows_seen, digest.hexdigest()) == (count, expected), key
            total += flows_seen
        assert total == 28_388

    def test_paired_patterned_and_overlapping_flows_are_the_parents(self, flow_identity):
        wan, tree = abilene(), fattree(4)

        def flows(topology, workload, scale, seed, load=0.8, duration=30.0, **kwargs):
            return generate_workload(
                topology, distribution_by_name(workload, scale), load=load,
                duration=duration, seed=seed, start_after=1.0, **kwargs).flows

        def paired(pairs):
            senders, receivers = pairs
            return dict(senders=senders, receivers=receivers,
                        pair_senders_receivers=True)

        incast = incast_pairs(tree, fanin=6, seed=7)
        # Four Abilene host pairs, each on two distinct switches.
        wan_pairs = (["h_ATL_0", "h_DEN_0", "h_LAX_0", "h_HOU_0"],
                     ["h_SEA_0", "h_CHI_0", "h_SEA_0", "h_ATL_0"])
        hosts = tree.hosts
        cases = {
            "paired": (flows(wan, "cache", 1.0, 5, **paired(wan_pairs)),
                       104, "bcc6e4c5ee602c6dbde8950d4069a72cdcdbb671d99c56b12cf50c3580e2b60c"),
            "incast": (flows(tree, "cache", 1.0, 7, load=0.8 / len(incast[0]),
                             **paired(incast)),
                       31, "b68c6ab6b2c6f62b3a1269b82e9045e2c051cd0c6b6bdcf64f1df60fb88f503d"),
            "permutation": (flows(tree, "web_search", 0.25, 9,
                                  **paired(permutation_pairs(tree, seed=9))),
                            37, "0925c25701fdfea59c1b6aa942be0f9601c192158962db80f5bc64cd870dedce"),
            # Senders that are also receivers: the per-sender option list.
            "overlap": (flows(tree, "cache", 1.0, 11, duration=10.0,
                              senders=hosts[:6], receivers=hosts[3:9]),
                        58, "6a3412f6d0f28c3dffc6601d244125c9b319f620db17724022e63c90eeab05ea"),
        }
        for name, (generated, count, expected) in cases.items():
            assert (len(generated), flow_identity(generated)) == (count, expected), name

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 15, 16, 17, 127, 1023])
    def test_choice_and_integers_consume_the_stream_identically(self, n):
        """The premise of the scalar draw, on numpy itself (the oracle the
        generator and the numpy-backed reference workloads of
        ``test_rng_oracle.py`` are held to): ``options[rng.integers(0, n)]``
        is ``rng.choice(options)``, interleaved with the generator's other
        two draws, value for value and bit-generator state for bit-generator
        state."""
        np = pytest.importorskip("numpy", exc_type=ImportError)
        options = [f"h{index}" for index in range(n)]
        by_choice, by_integers = np.random.default_rng(n), np.random.default_rng(n)
        for _ in range(1_500):
            assert by_choice.exponential(0.37) == by_integers.exponential(0.37)
            assert str(by_choice.choice(options)) == options[by_integers.integers(0, n)]
            assert by_choice.random(1)[0] == by_integers.random()
        assert by_choice.bit_generator.state == by_integers.bit_generator.state


class TestTrafficPatternPairs:
    def test_incast_all_senders_target_one_receiver(self):
        topo = fattree(4)
        senders, receivers = incast_pairs(topo, seed=3)
        assert len(set(receivers)) == 1
        sink = receivers[0]
        assert sink not in senders
        assert len(senders) == len(topo.hosts) - 1

    def test_incast_fanin_limits_senders(self):
        topo = fattree(4)
        senders, receivers = incast_pairs(topo, fanin=4, seed=3)
        assert len(senders) == 4 and len(receivers) == 4
        assert len(set(senders)) == 4

    def test_incast_deterministic_given_seed(self):
        topo = fattree(4)
        assert incast_pairs(topo, fanin=5, seed=7) == incast_pairs(topo, fanin=5, seed=7)
        assert incast_pairs(topo, fanin=5, seed=7) != incast_pairs(topo, fanin=5, seed=8)

    def test_incast_rejects_bad_arguments(self):
        topo = leafspine(2, 2, hosts_per_leaf=1)
        with pytest.raises(WorkloadError):
            incast_pairs(topo, fanin=0)
        with pytest.raises(WorkloadError):
            incast_pairs(topo, fanin=len(topo.hosts))  # only hosts-1 candidates

    @given(st.integers(min_value=0, max_value=25))
    @settings(max_examples=25, deadline=None)
    def test_permutation_is_a_derangement(self, seed):
        topo = fattree(4)
        senders, receivers = permutation_pairs(topo, seed=seed)
        assert senders == topo.hosts
        assert sorted(receivers) == sorted(topo.hosts)     # a permutation...
        assert all(s != r for s, r in zip(senders, receivers))  # ...with no fixed point

    def test_permutation_deterministic_given_seed(self):
        topo = leafspine(2, 2, hosts_per_leaf=2)
        assert permutation_pairs(topo, seed=4) == permutation_pairs(topo, seed=4)


class TestLoadContractRegression:
    """The docstring/validation mismatch fixed by the scenario-diversity PR."""

    def test_docstring_matches_validated_bound(self):
        doc = generate_workload.__doc__
        assert "load <= 1.5" in doc
        assert "1.2" not in doc

    def test_start_after_documented(self):
        assert "start_after" in generate_workload.__doc__

    def test_bound_is_inclusive_at_1_5(self):
        topo = leafspine(2, 2, hosts_per_leaf=1)
        spec = generate_workload(topo, uniform_distribution(), load=1.5, duration=5.0)
        assert spec.target_load == 1.5

    def test_start_after_delays_first_arrival(self):
        topo = leafspine(2, 2, hosts_per_leaf=2)
        spec = generate_workload(topo, uniform_distribution(), load=0.8,
                                 duration=10.0, start_after=3.0, seed=1)
        assert spec.flows and min(f.start_time for f in spec.flows) >= 3.0
        assert max(f.start_time for f in spec.flows) < 13.0


class TestUniformByName:
    def test_uniform_distribution_by_name(self):
        dist = distribution_by_name("uniform")
        assert dist.name == "uniform"
        assert dist.quantile(1.0) == 20

    def test_uniform_scale_stretches_tail(self):
        assert distribution_by_name("uniform", 2.0).quantile(1.0) == 40


class TestStreamWorkload:
    """Contracts of the lazy workload path (ARCHITECTURE.md §7): pinned
    flows, seed determinism, re-iterability, time order."""

    def _stream(self, **kwargs):
        topo = leafspine(2, 2, hosts_per_leaf=2)
        defaults = dict(load=0.8, duration=20.0, seed=3)
        defaults.update(kwargs)
        return stream_workload(topo, uniform_distribution(), **defaults)

    def test_stream_flows_are_the_parents(self, flow_identity):
        """The stream draws one flow at a time where it once drew numpy
        batches of 1 024 per substream: the digests below were computed from
        the batched draws, so draw size never changed a streamed flow."""
        tree = fattree(4)
        cases = {
            "leafspine": (list(self._stream()), 30,
                          "1ebfa864e84b18c2b9b6f6f628fc51dbfc7e4aa471675d1a40ab5cfe1446d27f"),
            "fattree8": (list(stream_workload(
                fattree(8), distribution_by_name("cache", 0.25), load=0.8,
                duration=30.0, seed=47, start_after=1.0)), 5865,
                "8192824b97d74f3c474af91ffc7b8979d5b28937be42934e2b9ec59731546044"),
            "paired": (list(stream_workload(
                tree, distribution_by_name("cache", 1.0), load=0.8, duration=10.0,
                seed=6, start_after=1.0, senders=tree.hosts[:4],
                receivers=tree.hosts[4:8], pair_senders_receivers=True)), 46,
                "859a15bafa07fc80bd8c4fe663cac1ea3711f70d4bb28111619adeeba4d8173c"),
        }
        for name, (flows, count, expected) in cases.items():
            assert (len(flows), flow_identity(flows)) == (count, expected), name

    def test_stream_is_reiterable_and_deterministic(self):
        stream = self._stream()
        first, second = list(stream), list(stream)
        assert first == second
        again = list(self._stream())
        assert first == again
        assert first != list(self._stream(seed=4))

    def test_flows_arrive_in_time_order_with_sequential_ids(self):
        flows = list(self._stream())
        assert flows, "expected a non-empty stream at load 0.8"
        times = [f.start_time for f in flows]
        assert times == sorted(times)
        assert [f.flow_id for f in flows] == list(range(len(flows)))

    def test_start_after_delays_the_window(self):
        flows = list(self._stream(start_after=5.0, duration=10.0))
        assert min(f.start_time for f in flows) >= 5.0
        assert max(f.start_time for f in flows) < 15.0

    def test_paired_mode_fixes_each_senders_receiver(self):
        topo = leafspine(2, 2, hosts_per_leaf=2)
        senders, receivers = split_senders_receivers(topo)
        stream = stream_workload(topo, uniform_distribution(), load=0.8,
                                 duration=20.0, seed=3, senders=senders,
                                 receivers=receivers,
                                 pair_senders_receivers=True)
        pairing = dict(zip(senders, receivers))
        for flow in stream:
            assert pairing[flow.src_host] == flow.dst_host

    def test_returns_flowstream_metadata(self):
        stream = self._stream()
        assert isinstance(stream, FlowStream)
        assert stream.target_load == 0.8
        assert stream.duration == 20.0
        assert stream.distribution_name == "uniform"
        # Default selection is the disjoint half/half split, like the eager path.
        assert not set(stream.senders) & set(stream.receivers)
        assert len(stream.senders) + len(stream.receivers) == 4

    def test_validation_mirrors_eager_generator(self):
        topo = leafspine(2, 2, hosts_per_leaf=2)
        with pytest.raises(WorkloadError):
            stream_workload(topo, uniform_distribution(), load=1.6, duration=5.0)
        with pytest.raises(WorkloadError):
            stream_workload(topo, uniform_distribution(), load=0.5, duration=0.0)
        with pytest.raises(WorkloadError):
            stream_workload(topo, uniform_distribution(), load=0.5, duration=5.0,
                            senders=["h0"], receivers=["h1", "h2"],
                            pair_senders_receivers=True)
