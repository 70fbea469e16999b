"""Integration tests for the scenario-diversity subsystem.

Covers the LinkEvent schedule contract (multi-failure and fail→recover
sequences through the grid runner, serial == parallel), the incast and
permutation traffic patterns, the new registry scenarios, and the
``_fig9_10`` config-override regression.
"""

import contextlib
import dataclasses
import math
import signal

import pytest

from repro.exceptions import ExperimentError
from repro.experiments import failure_recovery
from repro.experiments.config import ExperimentConfig
from repro.experiments.failure_recovery import (
    analyse_recovery_curve,
    analyse_recovery_sweep_results,
    multi_failure_specs,
    recovery_curve_specs,
    recovery_sweep_specs,
    recovery_sweep_topology,
)
from repro.experiments.registry import SCENARIOS, run_scenario
from repro.experiments.runner import (
    LinkEvent,
    RunContext,
    ScenarioSpec,
    TopologySpec,
    default_failed_link,
    run_grid,
)

TINY = ExperimentConfig(workload_duration=4.0, run_duration=24.0, loads=(0.6,),
                        websearch_scale=0.05)

WAN = TopologySpec("zoo", name="nsfnet", hosts_per_switch=1, capacity=100.0)


def _summaries(results):
    return [(result.name, sorted(result.summary.items())) for result in results]


def wan_spec(**overrides):
    base = dict(name="wan-events", system="contra", topology=WAN, config=TINY,
                policy="wan", workload="cache", load=0.5, seed=1,
                respect_compiled_probe_period=True)
    base.update(overrides)
    return ScenarioSpec(**base)


class TestLinkEventSchedules:
    def test_multi_failure_and_recovery_schedule_runs(self):
        spec = wan_spec(events=(LinkEvent(4.0, "WA", "IL", "fail"),
                                LinkEvent(8.0, "NY", "NJ", "fail"),
                                LinkEvent(14.0, "WA", "IL", "recover")))
        result = RunContext().run(spec)
        assert result.summary["flows"] > 0

    def test_unknown_action_rejected(self):
        spec = wan_spec(events=(LinkEvent(4.0, "WA", "IL", "explode"),))
        with pytest.raises(ExperimentError, match="explode"):
            RunContext().run(spec)

    def test_unknown_link_rejected(self):
        spec = wan_spec(events=(LinkEvent(4.0, "WA", "Narnia", "fail"),))
        with pytest.raises(ExperimentError, match="Narnia"):
            RunContext().run(spec)

    def test_fail_recover_grid_serial_matches_parallel(self):
        # Network.recover_link scheduling must be honored identically in
        # worker processes: a fail -> recover schedule is the sensitive case.
        specs = [wan_spec(name=f"ev:{system}", system=system,
                          events=(LinkEvent(4.0, "WA", "IL", "fail"),
                                  LinkEvent(10.0, "WA", "IL", "recover")))
                 for system in ("contra", "shortest-path")]
        serial = run_grid(specs, processes=1)
        parallel = run_grid(specs, processes=2)
        assert _summaries(serial) == _summaries(parallel)


class TestTrafficPatternScenarios:
    def _pattern_specs(self, traffic, **extra):
        return [
            ScenarioSpec(name=f"{traffic}:{system}", system=system,
                         topology=TopologySpec("fattree", k=4, capacity=100.0),
                         config=TINY, workload="cache", load=0.6, seed=2,
                         traffic=traffic, stop_after_completion=True, **extra)
            for system in ("ecmp", "contra")
        ]

    def test_incast_serial_matches_parallel(self):
        specs = self._pattern_specs("incast", incast_fanin=6)
        assert _summaries(run_grid(specs, processes=1)) == \
            _summaries(run_grid(specs, processes=2))

    def test_permutation_runs_and_is_deterministic(self):
        specs = self._pattern_specs("permutation")
        first = run_grid(specs, processes=1)
        second = run_grid(specs, processes=2)
        assert _summaries(first) == _summaries(second)
        assert all(result.summary["flows"] > 0 for result in first)

    def test_explicit_senders_conflict_with_pattern_traffic(self):
        # incast/permutation compute their own pairing; silently ignoring
        # explicit sender/receiver lists would hide a spec mistake.
        base = self._pattern_specs("incast", incast_fanin=4)[0]
        conflicted = ScenarioSpec(**{**base.__dict__,
                                     "senders": ("h0_0_0",), "receivers": ("h3_1_0",)})
        with pytest.raises(ExperimentError, match="pairing"):
            RunContext().run(conflicted)

    def test_incast_knobs_require_incast_traffic(self):
        # incast_fanin on a "flows" spec means the user forgot traffic=
        # "incast"; silently running uniform traffic would measure the wrong
        # scenario.
        base = self._pattern_specs("flows")[0]
        for traffic in ("flows", "streams"):
            forgot = ScenarioSpec(**{**base.__dict__, "traffic": traffic,
                                     "incast_fanin": 8})
            with pytest.raises(ExperimentError, match="incast"):
                RunContext().run(forgot)

    def test_incast_load_is_receiver_scoped(self):
        # Doubling the fan-in must not double the offered traffic: the load
        # target is the receiver's access link, shared across senders.
        context = RunContext()
        small, big = (self._pattern_specs("incast", incast_fanin=f)[0] for f in (4, 8))
        topology = context.topology(small.topology)
        small_packets = sum(f.size_packets for f in context._flows(small, topology))
        big_packets = sum(f.size_packets for f in context._flows(big, topology))
        assert 0.5 < small_packets / big_packets < 2.0

    def test_workload_scale_knob_changes_flow_sizes(self):
        context = RunContext()
        base = self._pattern_specs("flows")[0]
        scaled = ScenarioSpec(**{**base.__dict__, "workload_scale": 1.0})
        topology = context.topology(base.topology)
        default_total = sum(f.size_packets for f in context._flows(base, topology))
        scaled_total = sum(f.size_packets for f in context._flows(scaled, topology))
        # TINY uses cache_scale=0.25, so scale 1.0 flows are markedly larger.
        assert scaled_total > default_total


@pytest.fixture
def compiles(monkeypatch):
    """The ``compile_policy`` calls the runner makes while the test runs."""
    from repro.experiments import runner

    calls = []
    compile_policy = runner.compile_policy

    def counting(*args, **kwargs):
        calls.append(args)
        return compile_policy(*args, **kwargs)

    monkeypatch.setattr(runner, "compile_policy", counting)
    return calls


class TestMalformedProtocolOverrides:
    """A protocol timing value no switch could run is refused, not run.

    Found by hand on one fat-tree k=4 ``cache`` point: a zero or negative
    probe period escaped as a bare ``SimulationError`` after the worker had
    compiled, a NaN one *ran* (2 of 29 flows completed), ``failure_periods=0``
    ran and reported 704 spurious failure detections.  Every one is now an
    ``ExperimentError`` naming the field, raised before any compile.
    """

    def _spec(self, system="contra", config=None, **overrides):
        return ScenarioSpec(name="malformed", system=system,
                            topology=TopologySpec("fattree", k=4, capacity=100.0),
                            config=config if config is not None else TINY,
                            workload="cache", load=0.2, seed=1, **overrides)

    @pytest.mark.parametrize("field, value", [
        ("probe_period", 0.0), ("probe_period", -1.0),
        ("probe_period", math.nan), ("probe_period", math.inf),
        ("probe_period", "0.256"), ("probe_period", True),
        ("flowlet_timeout", -1.0), ("flowlet_timeout", math.nan),
        ("flowlet_timeout", math.inf),
    ])
    def test_spec_override_refused_before_any_compile(self, compiles, field, value):
        with pytest.raises(ExperimentError, match=f"spec field {field}="):
            RunContext().run(self._spec(**{field: value}))
        assert compiles == []

    @pytest.mark.parametrize("field, value", [
        ("probe_period", 0.0), ("probe_period", -1.0), ("probe_period", math.nan),
        ("flowlet_timeout", -1.0), ("flowlet_timeout", math.nan),
        ("failure_periods", 0), ("failure_periods", -2),
        ("failure_periods", 2.5), ("failure_periods", True),
    ])
    @pytest.mark.parametrize("system", ["contra", "hula", "ecmp"])
    def test_config_value_refused_before_any_compile(self, compiles, system,
                                                     field, value):
        config = dataclasses.replace(TINY, **{field: value})
        with pytest.raises(ExperimentError, match=f"config field {field}="):
            RunContext().run(self._spec(system=system, config=config))
        assert compiles == []

    def test_fluid_plane_refuses_a_malformed_config_too(self, compiles):
        config = dataclasses.replace(TINY, failure_periods=0)
        with pytest.raises(ExperimentError, match="failure_periods"):
            RunContext().run(self._spec(system="ecmp", config=config,
                                        flow_model="fluid"))
        assert compiles == []

    def test_boundary_values_still_run(self, compiles):
        # flowlet_timeout=0 (every packet its own flowlet) and
        # failure_periods=1 are legal, if aggressive.
        config = dataclasses.replace(TINY, failure_periods=1)
        result = RunContext().run(self._spec(config=config, flowlet_timeout=0.0,
                                             probe_period=0.5))
        assert result.summary["flows"] > 0
        assert len(compiles) == 1

    def test_refusal_reaches_the_grid_runner(self):
        with pytest.raises(ExperimentError, match="probe_period"):
            run_grid([self._spec(probe_period=-1.0)], processes=1)


@contextlib.contextmanager
def deadline(seconds: float):
    """Fail the enclosed block with ``TimeoutError`` instead of letting it hang."""
    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestMalformedDataPlaneConfig:
    """A link, buffer or host-transport value nothing could run is refused.

    Found by hand through ``run_grid(fattree_fct_specs(replace(quick_config(),
    ...)))``: ``util_window=0.0`` escaped as a bare ``ZeroDivisionError`` from
    the link EWMA and NaN as ``ValueError: cannot convert float NaN to
    integer``; ``buffer_packets=0`` and ``-3`` *ran* (0 of 102 flows, 172
    drops); ``host_window=0`` *ran* as window 1; ``host_rto=0.0`` never
    returned (the timeout check re-armed at the same instant) and ``-1.0``
    was a bare ``SimulationError``.  Every one is now an ``ExperimentError``
    naming the field, raised before any compile.
    """

    _spec = TestMalformedProtocolOverrides._spec

    @pytest.mark.parametrize("field, value", [
        ("util_window", 0.0), ("util_window", -0.5), ("util_window", math.nan),
        ("util_window", math.inf), ("util_window", "0.5"), ("util_window", True),
        ("host_rto", -1.0), ("host_rto", math.nan), ("host_rto", math.inf),
        ("buffer_packets", 0), ("buffer_packets", -3),
        ("buffer_packets", 500.0), ("buffer_packets", True),
        ("host_window", 0), ("host_window", -1),
        ("host_window", 2.5), ("host_window", True),
    ])
    @pytest.mark.parametrize("system", ["contra", "ecmp"])
    def test_config_value_refused_before_any_compile(self, compiles, system,
                                                     field, value):
        config = dataclasses.replace(TINY, **{field: value})
        with pytest.raises(ExperimentError, match=f"config field {field}="):
            RunContext().run(self._spec(system=system, config=config))
        assert compiles == []

    @pytest.mark.parametrize("system", ["contra", "ecmp"])
    def test_zero_rto_is_refused_instead_of_hanging(self, compiles, system):
        config = dataclasses.replace(TINY, host_rto=0.0)
        with deadline(10.0):
            with pytest.raises(ExperimentError, match="config field host_rto=0.0"):
                RunContext().run(self._spec(system=system, config=config))
        assert compiles == []

    def test_fluid_plane_refuses_a_malformed_window_too(self, compiles):
        config = dataclasses.replace(TINY, host_window=0)
        with pytest.raises(ExperimentError, match="host_window"):
            RunContext().run(self._spec(system="ecmp", config=config,
                                        flow_model="fluid"))
        assert compiles == []

    def test_boundary_values_still_run(self, compiles):
        # The smallest legal integers; any positive finite window or RTO.
        config = dataclasses.replace(TINY, buffer_packets=1, host_window=1,
                                     util_window=1e-3, host_rto=0.25)
        with deadline(60.0):
            result = RunContext().run(self._spec(config=config))
        assert result.summary["flows"] > 0
        assert len(compiles) == 1

    def test_refusal_reaches_the_grid_runner(self):
        config = dataclasses.replace(TINY, util_window=0.0)
        with pytest.raises(ExperimentError, match="util_window"):
            run_grid([self._spec(config=config)], processes=1)


class TestMalformedLinkEvents:
    """A link-event schedule no run could honour is refused, not run.

    Found by hand on a fat-tree k=4 point: a NaN or negative event time
    escaped as a bare ``SimulationError`` (on the packet plane after the
    compile), an infinite or boolean one *ran* (the failure never happened,
    or happened at 1 ms).  Every one is now an ``ExperimentError``, raised
    before anything is compiled or generated, on both planes.  A schedule
    entry must be a ``LinkEvent``: a bare ``(time, a, b, action)`` tuple is
    refused the same way.
    """

    FATTREE = TopologySpec("fattree", k=4, capacity=100.0)

    @pytest.mark.parametrize("flow_model", ["packet", "fluid"])
    @pytest.mark.parametrize("overrides, match", [
        (dict(events=(LinkEvent(math.nan, "a0_0", "c0"),)), "time nan"),
        (dict(events=(LinkEvent(-1.0, "a0_0", "c0"),)), "time -1.0"),
        (dict(events=(LinkEvent(math.inf, "a0_0", "c0"),)), "time inf"),
        (dict(events=(LinkEvent(True, "a0_0", "c0"),)), "time True"),
        (dict(events=(LinkEvent(4.0, "a0_0", "c0", "explode"),)), "explode"),
        (dict(events=(LinkEvent(4.0, "a0_0", "Narnia"),)), "Narnia"),
        (dict(events=((4.0, "a0_0", "c0", "fail"),)), "must be a LinkEvent"),
    ])
    def test_refused_before_any_compile(self, compiles, flow_model, overrides,
                                        match):
        spec = ScenarioSpec(**{**dict(name="events", system="contra",
                                      topology=self.FATTREE, config=TINY,
                                      workload="cache", load=0.2, seed=1,
                                      flow_model=flow_model), **overrides})
        context = RunContext()
        with pytest.raises(ExperimentError, match=match):
            context.run(spec)
        assert compiles == []
        assert context._workloads == {}

    def test_no_agg_core_link_to_fail_on_a_leaf_spine(self):
        with pytest.raises(ExperimentError, match="no aggregation-core link"):
            default_failed_link(recovery_sweep_topology(TINY).build())


class TestMalformedTrafficFields:
    """A traffic or measurement value no run can honour is refused, not run.

    Found by hand on a fat-tree k=4 point.  Some ran reinterpreted: empty
    sender and receiver lists ran over every host, ``streams_per_pair=0``
    delivered nothing, ``cdf_points`` outside [0, 1] reported clamped
    percentiles, a NaN ``run_duration`` ran until the event queue emptied
    (never, once probes flow) and -1 ran nothing.  The rest failed only after the compile, as a bare
    ``WorkloadError``, ``TypeError``, ``SimulationError``, ``ValueError`` or
    ``IndexError``.  Every one is now an ``ExperimentError``, raised before
    anything is compiled or generated, on both planes.
    """

    @pytest.mark.parametrize("flow_model", ["packet", "fluid"])
    @pytest.mark.parametrize("overrides, match", [
        (dict(senders=(), receivers=()), "senders is empty"),
        (dict(streams_per_pair=0), "streams_per_pair=0"),
        (dict(cdf_points=(2.0,)), "cdf_points entry 2.0"),
        (dict(cdf_points=(-1.0,)), "cdf_points entry -1.0"),
        (dict(run_duration=math.nan), "run_duration=nan"),
        (dict(run_duration=-1.0), "run_duration=-1.0"),
        (dict(traffic="incast", incast_fanin=0), "incast_fanin=0"),
        (dict(traffic="incast", incast_fanin=99), "incast_fanin=99"),
        (dict(traffic="incast", incast_fanin=True), "incast_fanin=True"),
        (dict(traffic="streams", stream_rate=math.nan), "stream_rate=nan"),
        (dict(traffic="streams", stream_rate=-1.0), "stream_rate=-1.0"),
        (dict(traffic="streams", senders=(), receivers=()), "senders is empty"),
        (dict(workload_scale=0.0), "workload_scale=0.0"),
        (dict(workload_scale=math.nan), "workload_scale=nan"),
        (dict(workload_host_rate=-1.0), "workload_host_rate=-1.0"),
        (dict(fct_percentiles=(150.0,)), "fct_percentiles entry 150.0"),
    ])
    def test_refused_before_any_compile(self, compiles, flow_model, overrides,
                                        match):
        spec = ScenarioSpec(**{**dict(name="traffic", system="contra",
                                      topology=TopologySpec("fattree", k=4,
                                                            capacity=100.0),
                                      config=TINY, workload="cache", load=0.2,
                                      seed=1, flow_model=flow_model),
                               **overrides})
        context = RunContext()
        with pytest.raises(ExperimentError, match=match):
            context.run(spec)
        assert compiles == []
        assert context._workloads == {}


class TestMalformedEndpoints:
    """Explicit senders/receivers no generator can draw from are refused.

    Found by hand on one fat-tree k=4 point: ``senders == receivers == (h,)``
    escaped as numpy's bare ``ValueError: a cannot be empty`` and a name that
    is not a host as ``KeyError: 'nope'``, on either plane.  Both are now an
    ``ExperimentError`` naming the fields, raised before any compile.
    """

    HOST = "h0_0_0"

    def _spec(self, flow_model, **overrides):
        return ScenarioSpec(name="endpoints",
                            system="contra",
                            topology=TopologySpec("fattree", k=4, capacity=100.0),
                            config=TINY, workload="cache", load=0.2, seed=1,
                            flow_model=flow_model, **overrides)

    @pytest.mark.parametrize("flow_model", ["packet", "fluid"])
    @pytest.mark.parametrize("endpoints, match", [
        (dict(senders=("nope",)), "senders entry 'nope' is not a host"),
        (dict(receivers=("a0_0",)), "receivers entry 'a0_0' is not a host"),
        (dict(senders=(HOST,), receivers=(HOST,)), "no eligible receiver"),
        (dict(senders=(HOST,), receivers=("h1_0_0", "h2_0_0"),
              pair_senders_receivers=True), "equally many"),
    ])
    def test_refused_before_any_compile(self, compiles, flow_model, endpoints,
                                        match):
        with pytest.raises(ExperimentError,
                           match=rf"spec field senders=.* receivers=.*{match}"):
            RunContext().run(self._spec(flow_model, **endpoints))
        assert compiles == []

    def test_well_formed_endpoints_still_run(self, compiles):
        result = RunContext().run(self._spec(
            "packet", senders=(self.HOST, "h1_0_0"),
            receivers=(self.HOST, "h1_0_0")))
        assert result.summary["flows"] > 0
        assert len(compiles) == 1


class TestUnknownNames:
    """A routing system, workload or policy no builder knows is refused first.

    Measured on an ECMP fat-tree k=4 point: ``system='bogus'`` with
    ``respect_compiled_probe_period`` was refused only after one compile,
    ``system=None`` was a bare ``AttributeError``, ``system='Contra'`` ran
    the datacenter policy whatever ``policy`` said, and ``workload='bogus'``
    escaped as a bare ``WorkloadError`` (Contra's after the compile), on the
    fluid plane too.  Each is now an ``ExperimentError``, raised before
    anything is compiled or generated.
    """

    def _spec(self, **overrides):
        return ScenarioSpec(**{**dict(name="names", system="ecmp",
                                      topology=TopologySpec("fattree", k=4,
                                                            capacity=100.0),
                                      config=TINY, workload="cache", load=0.2,
                                      seed=1), **overrides})

    @pytest.mark.parametrize("overrides", [
        dict(system="bogus"),
        dict(system="bogus", respect_compiled_probe_period=True),
        dict(system=None),
        dict(system="Contra", policy="wan"),
    ])
    def test_unknown_system_refused_before_any_compile(self, compiles, overrides):
        context = RunContext()
        with pytest.raises(ExperimentError, match="unknown routing system"):
            context.run(self._spec(**overrides))
        assert compiles == []
        assert context._workloads == {}

    @pytest.mark.parametrize("flow_model", ["packet", "fluid"])
    @pytest.mark.parametrize("system", ["ecmp", "contra"])
    def test_unknown_workload_refused_before_any_compile(self, compiles, system,
                                                         flow_model):
        context = RunContext()
        with pytest.raises(ExperimentError,
                           match=r"unknown workload 'bogus'; available: \("):
            context.run(self._spec(system=system, workload="bogus",
                                   flow_model=flow_model))
        assert compiles == []
        assert context._workloads == {}

    @pytest.mark.parametrize("flow_model", ["packet", "fluid"])
    @pytest.mark.parametrize("system", ["ecmp", "hula", "spain", "contra"])
    def test_unknown_policy_refused_before_any_compile(self, compiles, system,
                                                       flow_model):
        """Fluid Contra raised a SimulationError from its path model, and the
        ECMP, Hula and SPAIN points ignored the field."""
        context = RunContext()
        with pytest.raises(ExperimentError,
                           match=r"unknown policy 'bogus'; available: \["):
            context.run(self._spec(system=system, policy="bogus",
                                   flow_model=flow_model))
        assert compiles == []
        assert context._workloads == {}

    def test_the_fluid_plane_names_its_own_systems_first(self, compiles):
        with pytest.raises(ExperimentError, match="does not support system 'bogus'"):
            RunContext().run(self._spec(system="bogus", workload="bogus",
                                        flow_model="fluid"))
        assert compiles == []


class TestRecoverySweepScenario:
    @pytest.fixture(autouse=True)
    def short_schedule(self, monkeypatch):
        """Fail at 6 ms, recover at 14 ms, stop at 22 ms: builder and projection."""
        monkeypatch.setattr(failure_recovery, "SWEEP_FAIL_TIME", 6.0)
        monkeypatch.setattr(failure_recovery, "SWEEP_RECOVER_TIME", 14.0)
        monkeypatch.setattr(failure_recovery, "SWEEP_RUN_DURATION", 22.0)

    def test_dip_at_failure_and_recovery_above_95_percent(self):
        specs = recovery_sweep_specs(TINY)
        results = analyse_recovery_sweep_results(run_grid(specs))
        assert set(results) == {"contra", "hula"}
        for system, outcome in results.items():
            assert outcome.baseline_rate > 0, system
            # The failure is visible: some bin after fail_time dips.
            assert not math.isnan(outcome.dip_delay), system
            # ...and throughput returns to >= 95% of baseline after recovery.
            assert outcome.recovery_ratio >= 0.95, (system, outcome.recovery_ratio)

    def test_late_recovery_still_measures_the_final_bin(self):
        # When recover_time + settling leaves only the (possibly truncated)
        # final bin, the analysis must use it rather than report rate 0.
        from repro.experiments.failure_recovery import _analyse_sweep
        series = [(float(t), 10.0) for t in range(5)]
        outcome = _analyse_sweep("s", series, fail_time=2.0, recover_time=3.0)
        assert outcome.post_recovery_rate == 10.0

    def test_sweep_serial_matches_parallel(self):
        specs = recovery_sweep_specs(TINY)
        serial = analyse_recovery_sweep_results(run_grid(specs, processes=1))
        parallel = analyse_recovery_sweep_results(run_grid(specs, processes=2))
        for system in serial:
            assert serial[system].throughput == parallel[system].throughput


class TestMultiFailureScenario:
    def test_contra_outperforms_static_routing_under_failures(self):
        results = {r.system: r for r in run_grid(multi_failure_specs(TINY))}
        assert set(results) == {"shortest-path", "contra"}
        static, contra = results["shortest-path"], results["contra"]
        # Static shortest paths keep feeding the failed links; Contra routes
        # around both failures in turn.
        assert contra.summary["completed_flows"] >= static.summary["completed_flows"]
        assert contra.summary["drops"] <= static.summary["drops"]

    def test_multi_failure_serial_matches_parallel(self):
        serial = run_grid(multi_failure_specs(TINY), processes=1)
        parallel = run_grid(multi_failure_specs(TINY), processes=2)
        assert _summaries(serial) == _summaries(parallel)


class TestRegistryScenarios:
    def test_new_scenarios_registered(self):
        assert {"incast", "multi-failure", "recovery-sweep"} <= set(SCENARIOS)

    def test_recovery_sweep_scenario_end_to_end(self):
        outcome = run_scenario("recovery-sweep", TINY)
        assert "recovery_ratio" in outcome.text
        for system, payload in outcome.payload.items():
            assert payload["recovery_ratio"] >= 0.95, system

    def test_fig9_10_respects_config_sizes(self):
        # Regression: _fig9_10 ignored its ExperimentConfig, so run-grid
        # overrides never reached the scalability sweep.
        config = ExperimentConfig(scalability_fattree_sizes=(20,),
                                  scalability_random_sizes=())
        outcome = run_scenario("fig9-10", config)
        assert {point["size"] for point in outcome.payload} == {20}
        assert {point["family"] for point in outcome.payload} == {"fattree"}


def _contra_curve(monkeypatch):
    """Contra's points of a two-outage curve (2 and 6 ms)."""
    monkeypatch.setattr(failure_recovery, "RECOVERY_CURVE_OUTAGES", (2.0, 6.0))
    return [spec for spec in recovery_curve_specs(TINY) if spec.system == "contra"]


class TestRecoveryCurveScenario:
    def test_registered(self):
        assert {"recovery-curve", "flow-size-sensitivity"} <= set(SCENARIOS)

    def test_grid_axis_is_the_event_schedule(self, monkeypatch):
        specs = _contra_curve(monkeypatch)
        schedules = [spec.events for spec in specs]
        assert len(set(schedules)) == 2
        for spec in specs:
            fail, recover = spec.events
            assert fail.action == "fail" and recover.action == "recover"
            assert recover.time > fail.time
            # The run must outlast its own schedule's settle-out.
            assert spec.run_duration > recover.time

    def test_curve_end_to_end(self, monkeypatch):
        monkeypatch.setattr(failure_recovery, "CURVE_FAIL_TIME", 6.0)
        specs = _contra_curve(monkeypatch)
        points = analyse_recovery_curve(run_grid(specs))
        assert [p.outage_ms for p in points] == [2.0, 6.0]
        for point in points:
            assert point.baseline_rate > 0
            assert 0.0 <= point.dip_depth <= 1.0
            # The link comes back, so throughput must return to >= 95%.
            assert not math.isnan(point.recovery_time_ms)

    def test_scenario_outcome_has_curve_table(self):
        outcome = run_scenario("recovery-curve", TINY)
        assert "outage_ms" in outcome.text
        assert len(outcome.payload) == 2 * 3       # 2 systems x 3 outages
        assert {row["system"] for row in outcome.payload} == {"contra", "hula"}


class TestFlowSizeSensitivityScenario:
    def test_scale_factors_multiply_the_workload_scale(self):
        from repro.experiments.fct import flow_size_sensitivity_specs
        specs = [spec for spec in flow_size_sensitivity_specs(TINY)
                 if spec.system == "ecmp" and ":1.0x:" not in spec.name]
        scales = [spec.workload_scale for spec in specs]
        assert scales == [0.5 * TINY.websearch_scale, 2.0 * TINY.websearch_scale]

    def test_scenario_end_to_end(self):
        outcome = run_scenario("flow-size-sensitivity", TINY)
        assert "scale" in outcome.text
        assert len(outcome.payload) == 3 * 2       # 3 factors x 2 systems
        by_factor = {}
        for row in outcome.payload:
            factor = row["name"].split(":")[1]
            by_factor.setdefault(factor, []).append(row)
        assert set(by_factor) == {"0.5x", "1.0x", "2.0x"}
        for rows in by_factor.values():
            for row in rows:
                assert row["summary"]["completed_flows"] > 0
        # The offered load is held constant, so scaling every flow up means
        # proportionally *fewer* flows — the knob moved the distribution, not
        # the demand.
        flows = {factor: rows[0]["summary"]["flows"]
                 for factor, rows in by_factor.items()}
        assert flows["0.5x"] > flows["1.0x"] > flows["2.0x"]
