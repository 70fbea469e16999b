"""The pure-Python :class:`Generator` against numpy, its oracle.

``Generator(seed)`` claims to be ``numpy.random.default_rng(seed)`` bit for
bit for every draw the workload generators make.  Two checks hold it to that:

* random interleavings of every reproduced call — ``exponential`` /
  ``integers`` / ``random``, ``choice`` of one option and of several without
  replacement, ``permutation``, ``poisson_arrivals`` — from seeds drawn as
  ints up to 2**128 and as nested tuples, compared value for value, and the
  bit-generator state (``state``, ``inc``, ``has_uint32``, ``uinteger``)
  after every sequence;
* the numpy-backed workload functions as they were before the generator
  (``reference_*`` below: their drawing code verbatim, docstrings and the
  argument checks that draw nothing left out, and ``EmpiricalCDF.sample``'s
  body as ``reference_sample``), against today's over a grid of fabrics,
  workloads, seeds and endpoint modes: equal flows, field for field.

Without numpy the whole file skips; ``test_workloads.py``'s pinned digests
hold the generator's flows to the same values either way.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Iterator, List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import WorkloadError
from repro.simulator.flow import Flow
from repro.topology.abilene import abilene
from repro.topology.fattree import fattree
from repro.topology.leafspine import leafspine
from repro.workloads.distributions import Generator, distribution_by_name
from repro.workloads.generator import (
    FlowStream,
    generate_workload,
    incast_pairs,
    permutation_pairs,
    resolve_endpoints,
    stream_workload,
)

np = pytest.importorskip("numpy", exc_type=ImportError)

ORACLE = settings(derandomize=True, max_examples=150, deadline=None, database=None)

#: Seeds: ints of every word count up to four, and nested tuples of them
#: (the stream path seeds with ``(seed, sender_index, field)``).
seeds = st.recursive(
    st.integers(min_value=0, max_value=2**128),
    lambda inner: st.tuples(inner) | st.tuples(inner, inner)
    | st.tuples(inner, inner, inner) | st.lists(inner, max_size=6).map(tuple),
    max_leaves=8)

#: Bounds for ``integers``: the 32-bit Lemire path and its top edges (a
#: bound past 2**31 rejects about half its draws; so do the marks of a
#: ``poisson`` call drawn there).
bounds = st.one_of(st.integers(1, 40), st.integers(1, 2**31 + 5),
                   st.sampled_from([2**32 - 1, 2**32]))
options = st.integers(1, 60).map(lambda n: [f"h{index}" for index in range(n)])

calls = st.one_of(
    st.tuples(st.just("random"), st.none()),
    st.tuples(st.just("exponential"), st.sampled_from([1.0, 0.37, 12.5])),
    st.tuples(st.just("integers"), bounds),
    st.tuples(st.just("choice"), options),
    st.tuples(st.just("choice_without"),
              options.flatmap(lambda o: st.tuples(st.just(o), st.integers(0, len(o))))),
    st.tuples(st.just("permutation"), st.integers(0, 70)),
    st.tuples(st.just("poisson"),
              st.tuples(st.sampled_from([0.05, 0.8]),
                        st.integers(1, 20) | st.integers(2**31, 2**31 + 5))),
)


def as_python(value):
    """A numpy draw as the Python value the generator returns."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return value


def numpy_poisson_arrivals(rng, scale, start, end, marks):
    """``poisson_arrivals`` spelled as the scalar numpy calls it inlines."""
    arrivals, time = [], start
    while True:
        time += rng.exponential(scale)
        if time >= end:
            break
        mark = int(rng.integers(0, marks))
        arrivals.append((time, mark, rng.random()))
    return arrivals


def draw(rng, name, argument, oracle: bool):
    if name == "random":
        return rng.random()
    if name == "exponential":
        return rng.exponential(argument)
    if name == "integers":
        return rng.integers(0, argument)
    if name == "choice":
        return rng.choice(argument)
    if name == "choice_without":
        population, size = argument
        return rng.choice(population, size=size, replace=False)
    if name == "permutation":
        return rng.permutation(argument)
    scale, marks = argument
    if oracle:
        return numpy_poisson_arrivals(rng, scale, 2.0, 9.0, marks)
    return rng.poisson_arrivals(scale, 2.0, 9.0, marks)


@ORACLE
@given(seed=seeds, sequence=st.lists(calls, max_size=40))
def test_every_draw_and_state_is_numpys(seed, sequence):
    ours, theirs = Generator(seed), np.random.default_rng(seed)
    assert ours.state == theirs.bit_generator.state
    for name, argument in sequence:
        expected = as_python(draw(theirs, name, argument, oracle=True))
        assert draw(ours, name, argument, oracle=False) == expected, name
    assert ours.state == theirs.bit_generator.state


@ORACLE
@given(seed=st.integers(0, 2**64), population=st.integers(10_001, 13_000),
       size=st.integers(0, 400))
def test_choice_without_replacement_takes_numpys_tail_shuffle(seed, population, size):
    """Over 10 000 options numpy shuffles the tail of an index range instead
    of running Floyd's algorithm when more than a fiftieth is taken."""
    ours, theirs = Generator(seed), np.random.default_rng(seed)
    indices = range(population)
    assert ours.choice(indices, size=size, replace=False) \
        == theirs.choice(population, size=size, replace=False).tolist()
    assert ours.state == theirs.bit_generator.state


def test_the_ziggurat_tail_is_numpys_log1p():
    """The base strip's tail is ``r - log1p(-u)``.  Random interleavings
    reach it about once in 2 000 exponentials, and only one uniform in 170
    tells ``log1p(-u)`` from ``log(1 - u)`` after the subtraction; seed 61's
    1 070th exponential is such a draw."""
    ours = Generator(61)
    assert [ours.exponential(1.0) for _ in range(1070)] \
        == np.random.default_rng(61).exponential(1.0, 1070).tolist()


@pytest.mark.parametrize("seed", [-1, 1.5, "7", (3, -2)])
def test_a_seed_numpy_refuses_is_refused(seed):
    with pytest.raises((TypeError, ValueError)):
        np.random.default_rng(seed)
    with pytest.raises((TypeError, ValueError)):
        Generator(seed)


def test_out_of_range_arguments_are_refused():
    rng = Generator(0)
    for low, high in ((0, 0), (5, 3), (0, 2**32 + 1)):
        with pytest.raises(ValueError):
            rng.integers(low, high)
    with pytest.raises(ValueError):
        rng.choice(["a", "b"], size=3, replace=False)
    with pytest.raises(ValueError, match="without replacement"):
        rng.choice(["a", "b"], size=2)
    for marks in (0, 2**32 + 1):
        with pytest.raises(ValueError, match="marks"):
            rng.poisson_arrivals(1.0, 0.0, 5.0, marks)


# ---------------------------------------------------------------------------
# The numpy-backed workload functions before the generator.


def reference_sample(distribution, rng, count: int = 1):
    probabilities, sizes, _ = distribution._knots
    sampled = np.interp(rng.random(count), probabilities, sizes)
    return np.maximum(1, np.round(sampled)).astype(int)


def reference_stream_workload(topology, distribution, load, duration,
                              host_capacity=10.0, seed=0, senders=None,
                              receivers=None, pair_senders_receivers=False,
                              start_after=0.0, chunk=1024) -> FlowStream:
    senders, receivers, options = resolve_endpoints(
        topology, senders, receivers, pair_senders_receivers)

    per_sender_rate = load * host_capacity / distribution.mean()
    end = start_after + duration

    def sender_stream(index: int, sender: str):
        gap_rng = np.random.default_rng((seed, index, 0))
        size_rng = np.random.default_rng((seed, index, 1))
        choices = options[index]
        dst_rng = None if pair_senders_receivers \
            else np.random.default_rng((seed, index, 2))
        time = start_after
        seq = 0
        while True:
            gaps = gap_rng.exponential(1.0 / per_sender_rate, chunk)
            sizes = reference_sample(distribution, size_rng, chunk)
            picks = dst_rng.integers(0, len(choices), chunk) \
                if dst_rng is not None else None
            for draw in range(chunk):
                time += float(gaps[draw])
                if time >= end:
                    return
                receiver = choices[int(picks[draw])] if picks is not None \
                    else choices[0]
                yield (time, index, seq, sender, receiver, int(sizes[draw]))
                seq += 1

    def merged() -> Iterator[Flow]:
        streams = [sender_stream(index, sender)
                   for index, sender in enumerate(senders)]
        for flow_id, (time, _index, _seq, src, dst, size) in enumerate(
                heapq.merge(*streams)):
            yield Flow(src_host=src, dst_host=dst, size_packets=size,
                       start_time=time, flow_id=flow_id)

    return FlowStream(
        senders=senders,
        receivers=receivers,
        target_load=load,
        duration=duration,
        distribution_name=distribution.name,
        factory=merged,
    )


def reference_incast_pairs(topology, fanin: Optional[int] = None,
                           seed: int = 0) -> Tuple[List[str], List[str]]:
    hosts = topology.hosts
    if len(hosts) < 2:
        raise WorkloadError("need at least two hosts for incast traffic")
    rng = np.random.default_rng(seed)
    receiver = str(rng.choice(hosts))
    candidates = [h for h in hosts if h != receiver]
    if fanin is None:
        senders = candidates
    else:
        if not 1 <= fanin <= len(candidates):
            raise WorkloadError(
                f"incast fan-in must be in [1, {len(candidates)}], got {fanin}")
        senders = [str(h) for h in rng.choice(candidates, size=fanin, replace=False)]
    return senders, [receiver] * len(senders)


def reference_permutation_pairs(topology, seed: int = 0) -> Tuple[List[str], List[str]]:
    hosts = topology.hosts
    if len(hosts) < 2:
        raise WorkloadError("need at least two hosts for permutation traffic")
    rng = np.random.default_rng(seed)
    perm = [int(i) for i in rng.permutation(len(hosts))]
    for i in range(len(perm)):
        if perm[i] == i:
            j = (i + 1) % len(perm)
            perm[i], perm[j] = perm[j], perm[i]
    return list(hosts), [hosts[p] for p in perm]


def reference_generate_workload(topology, distribution, load, duration,
                                host_capacity=10.0, seed=0,
                                senders: Optional[Sequence[str]] = None,
                                receivers: Optional[Sequence[str]] = None,
                                pair_senders_receivers=False,
                                start_after=0.0) -> List[Flow]:
    senders, receivers, options = resolve_endpoints(
        topology, senders, receivers, pair_senders_receivers)

    rng = np.random.default_rng(seed)
    exponential, integers, uniform = rng.exponential, rng.integers, rng.random
    size_at = distribution.size_at
    mean_gap = 1.0 / (load * host_capacity / distribution.mean())  # ms per flow
    end = start_after + duration

    arrivals: List[Tuple[float, str, str, int]] = []
    for sender, choices in zip(senders, options):
        time = start_after
        while True:
            time += exponential(mean_gap)
            if time >= end:
                break
            receiver = choices[0] if pair_senders_receivers \
                else choices[integers(0, len(choices))]
            arrivals.append((time, sender, receiver, size_at(uniform())))

    arrivals.sort(key=itemgetter(0))
    return [Flow(sender, receiver, size, time, flow_id)
            for flow_id, (time, sender, receiver, size) in enumerate(arrivals)]


FABRICS = {"fattree4": fattree(4), "abilene": abilene(),
           "leafspine": leafspine(2, 3, hosts_per_leaf=3)}


def fields(flows):
    return [(f.src_host, f.dst_host, f.size_packets, f.start_time.hex(), f.flow_id,
             type(f.size_packets), type(f.start_time)) for f in flows]


def endpoint_modes(topology, seed):
    hosts = topology.hosts
    yield "default", {}
    yield "overlap", dict(senders=hosts[:5], receivers=hosts[2:8])
    for name, pairs in (("incast", incast_pairs(topology, fanin=4, seed=seed)),
                        ("permutation", permutation_pairs(topology, seed=seed))):
        senders, receivers = pairs
        yield name, dict(senders=senders, receivers=receivers,
                         pair_senders_receivers=True)


@pytest.mark.parametrize("fabric", sorted(FABRICS))
@pytest.mark.parametrize("seed", [0, 3, 2**40 + 7])
def test_pairs_are_the_numpy_references(fabric, seed):
    topology = FABRICS[fabric]
    for fanin in (None, 1, 4):
        assert incast_pairs(topology, fanin=fanin, seed=seed) \
            == reference_incast_pairs(topology, fanin=fanin, seed=seed)
    assert permutation_pairs(topology, seed=seed) \
        == reference_permutation_pairs(topology, seed=seed)


@pytest.mark.parametrize("fabric", sorted(FABRICS))
@pytest.mark.parametrize("workload, scale", [("web_search", 0.25), ("cache", 1.0),
                                             ("uniform", 1.0)])
@pytest.mark.parametrize("seed", [1, 47])
def test_workloads_are_the_numpy_references(fabric, workload, scale, seed):
    topology = FABRICS[fabric]
    distribution = distribution_by_name(workload, scale)
    run = dict(load=0.7, duration=12.0, seed=seed, start_after=1.0)
    for mode, endpoints in endpoint_modes(topology, seed):
        eager = generate_workload(topology, distribution, **run, **endpoints).flows
        assert eager, mode
        assert fields(eager) == fields(reference_generate_workload(
            topology, distribution, **run, **endpoints)), mode
        stream = list(stream_workload(topology, distribution, **run, **endpoints))
        for chunk in (1, 1024):
            assert fields(stream) == fields(reference_stream_workload(
                topology, distribution, chunk=chunk, **run, **endpoints)), mode
