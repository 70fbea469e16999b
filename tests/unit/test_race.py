"""Unit tests for the same-tick race detector's diffing and installation.

The end-to-end sweep (``contra race-check``) runs in CI over the fast
registry scenarios; these tests pin the pieces with sharp edges — the
NaN-safe summary diff and the permutation-hook installation contract.
"""

import random

import pytest

from repro.baselines.ecmp import ShortestPathSystem
from repro.core.compiler import compile_policy
from repro.core.policies import MU
from repro.exceptions import ExperimentError
from repro.experiments.race import _canon, _diff_result, install_race
from repro.experiments.runner import RunResult
from repro.protocol.contra_switch import ContraSystem
from repro.simulator.network import Network
from repro.topology.leafspine import leafspine


def _result(**summary):
    return RunResult(name="pt", system="contra", workload="web_search",
                     load=0.5, seed=1, summary=summary)


class TestSummaryDiff:
    def test_nan_valued_keys_do_not_diverge(self):
        """Regression: ``nan != nan`` is always true, so a plain comparison
        flagged every stream-only point (FCT keys are NaN) as a race.  The
        diff must compare the *serialized* summary — the byte-identity the
        determinism contract is actually about."""
        base = _result(avg_fct_ms=float("nan"), p99_fct_ms=float("nan"),
                       delivered_bytes=1000)
        permuted = _result(avg_fct_ms=float("nan"), p99_fct_ms=float("nan"),
                           delivered_bytes=1000)
        assert _diff_result(base, permuted) == []
        assert _canon(float("nan")) == _canon(float("nan"))

    def test_real_differences_still_diverge(self):
        base = _result(delivered_bytes=1000, completion=1.0)
        permuted = _result(delivered_bytes=1024, completion=1.0)
        assert _diff_result(base, permuted) == ["delivered_bytes"]

    def test_queue_cdf_and_throughput_are_diffed_too(self):
        base = _result(x=1)
        permuted = _result(x=1)
        base.queue_cdf = {0.5: 1.0}
        permuted.queue_cdf = {0.5: 2.0}
        assert _diff_result(base, permuted) == ["queue_cdf"]


def _contra_network():
    topo = leafspine(2, 2, hosts_per_leaf=1, capacity=50.0)
    system = ContraSystem(compile_policy(MU(), topo), probe_period=0.25)
    return system, Network(topo, system, sanitize=True)


def _traced_run(permute_seed):
    _, network = _contra_network()
    network.sanitizer.trace_enabled = True
    if permute_seed is not None:
        install_race(network, permute_seed)
    summary = network.run(1.0).summary()
    assert network.sanitizer.ok
    return network.sanitizer.trace, summary


class TestInstallRace:
    @pytest.mark.no_sanitize
    def test_unsanitized_network_is_rejected(self):
        network = Network(leafspine(2, 2, hosts_per_leaf=1),
                          ShortestPathSystem())
        with pytest.raises(ExperimentError):
            install_race(network, 0)

    def test_heap_axis_swaps_adjacent_commutable_rounds(self):
        """The permuted schedule is the base one with at least one pair of
        adjacent same-tick commutable rounds fired the other way round, and
        the summary does not notice."""
        base, base_summary = _traced_run(None)
        permuted, permuted_summary = _traced_run(permute_seed=0)
        rounds = {getattr(ContraSystem, name).__qualname__
                  for name in ContraSystem.commutable_rounds}
        swapped = [
            index for index in range(len(base) - 1)
            if base[index] != base[index + 1]
            and permuted[index:index + 2] == [base[index + 1], base[index]]
            and {base[index][1][0], base[index + 1][1][0]} == rounds]
        assert swapped
        assert sorted(permuted) == sorted(base)
        assert _canon(permuted_summary) == _canon(base_summary)

    def test_hooks_armed_and_permuted_run_stays_clean(self):
        system, network = _contra_network()
        install_race(network, permute_seed=0)
        sanitizer = network.sanitizer
        # One RNG drives both axes; the commutable set resolved to the
        # system's declared rounds (underlying functions, not bound methods).
        assert system.race_rng is sanitizer.race_rng
        assert isinstance(sanitizer.race_rng, random.Random)
        assert len(sanitizer.race_commutable) == len(system.commutable_rounds)
        network.run(1.0)
        assert sanitizer.ok
