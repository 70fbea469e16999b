"""The field-domain schema (:mod:`repro.exceptions`), driven by a fuzzer.

Every domain declared on a ``ScenarioSpec``, ``ExperimentConfig``,
``TopologySpec`` or ``LinkEvent`` field yields a strategy: in-domain boundary
values beside violators (NaN, ±inf, 0, -1, ``True``, a string).  One or two
fields of a tiny valid fat-tree k=4 point are perturbed, for Contra, Hula and
ECMP on both planes.  Each example either runs, or is refused before any
compile — by an ``ExperimentError``, ``CompilationError`` or
``SimulationError``, or by the topology generator's own ``TopologyError`` for
a family relation such as a fat-tree's even arity — and within 5 s.
"""

import contextlib
import dataclasses
import math
import signal

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from repro.exceptions import (CompilationError, ExperimentError, SimulationError,
                              TopologyError, fault, schema)
from repro.experiments import runner
from repro.experiments.config import ExperimentConfig, quick_config
from repro.experiments.runner import LinkEvent, RunContext, ScenarioSpec, TopologySpec

TINY = quick_config().scaled(0.1)
BASE = ScenarioSpec(name="fuzz", system="ecmp",
                    topology=TopologySpec("fattree", k=4, capacity=100.0),
                    config=TINY, workload="cache", load=0.2, seed=1,
                    stop_after_completion=True)
REFUSALS = (ExperimentError, CompilationError, SimulationError, TopologyError)

OWNERS = (("spec", ScenarioSpec), ("config", ExperimentConfig),
          ("topology", TopologySpec), ("event", LinkEvent))
FIELDS = tuple((owner, name, domain, plane)
               for owner, cls in OWNERS
               for name, domain, plane, _ in schema(cls))

VIOLATORS = (math.nan, math.inf, -math.inf, 0, -1, True, "x")
#: Small on purpose: an admitted duration, rate or period must run in time.
EDGES = (None, 0, 0.0, 0.5, 1, 1.5)


def values(domain):
    """The draws for one domain: its edges, its named values and violators."""
    pool = EDGES + domain.choices + VIOLATORS
    return pool + ((),) + tuple((value,) for value in pool) if domain.entries else pool


def admitted(domain, value):
    return fault(domain, value) is None


def perturb(spec, owner, name, value):
    if owner == "spec":
        return dataclasses.replace(spec, **{name: value})
    if owner == "config":
        return dataclasses.replace(
            spec, config=dataclasses.replace(spec.config, **{name: value}))
    if owner == "topology":
        return dataclasses.replace(
            spec, topology=dataclasses.replace(spec.topology, **{name: value}))
    event = dataclasses.replace(LinkEvent(1.0, "a0_0", "c0"), **{name: value})
    return dataclasses.replace(spec, events=spec.events + (event,))


@contextlib.contextmanager
def deadline(seconds):
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


@contextlib.contextmanager
def counting_compiles():
    """The ``compile_policy`` calls the runner makes inside the block."""
    calls = []
    compile_policy = runner.compile_policy

    def counting(*args, **kwargs):
        calls.append(args)
        return compile_policy(*args, **kwargs)

    runner.compile_policy = counting
    try:
        yield calls
    finally:
        runner.compile_policy = compile_policy


def run_or_refuse(spec):
    """Run ``spec``; a refusal must come before any compile."""
    with counting_compiles() as compiles, deadline(5.0):
        try:
            RunContext().run(spec)
        except REFUSALS:
            assert compiles == [], spec
            return False
    return True


def test_every_domain_is_fuzzed_both_ways():
    for owner, name, domain, _ in FIELDS:
        draws = values(domain)
        assert any(admitted(domain, value) for value in draws), (owner, name)
        assert not all(admitted(domain, value) for value in draws), (owner, name)


def perturbation(entry):
    """One field's draw: an admitted value or a violator, evenly."""
    inside = [value for value in values(entry[2]) if admitted(entry[2], value)]
    outside = [value for value in values(entry[2]) if not admitted(entry[2], value)]
    return st.tuples(st.just(entry), st.sampled_from(inside) | st.sampled_from(outside))


@settings(derandomize=True, max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(system=st.sampled_from(("contra", "hula", "ecmp")),
       plane=st.sampled_from(("packet", "fluid")),
       perturbations=st.lists(st.sampled_from(FIELDS), min_size=1, max_size=2,
                              unique_by=lambda entry: entry[:2]).flatmap(
           lambda entries: st.tuples(*map(perturbation, entries))))
def test_every_example_runs_or_is_refused_before_any_compile(system, plane,
                                                             perturbations):
    spec = dataclasses.replace(BASE, system=system, flow_model=plane)
    for (owner, name, _, _), value in perturbations:
        spec = perturb(spec, owner, name, value)
    ran = run_or_refuse(spec)
    event("ran" if ran else "refused")
    for (owner, name, domain, _), value in perturbations:
        if not admitted(domain, value):
            assert not ran, (owner, name, value)


MARKED = [(name, domain, plane, default)
          for name, domain, plane, default in schema(ScenarioSpec) if plane]


def test_the_packet_only_fields_and_the_sketch_are_marked():
    assert {name: plane for name, _, plane, _ in MARKED} == {
        **dict.fromkeys(("transport", "record_paths", "cdf_points",
                         "collect_throughput", "probe_period",
                         "flowlet_timeout", "respect_compiled_probe_period",
                         "use_versioning"), "packet"),
        "flow_sketch": "fluid"}


@pytest.mark.parametrize("name, domain, plane, default", MARKED,
                         ids=[entry[0] for entry in MARKED])
def test_a_marked_field_is_refused_on_the_other_plane(name, domain, plane, default):
    other = "fluid" if plane == "packet" else "packet"
    value = next(value for value in values(domain)
                 if admitted(domain, value) and value != default)
    spec = dataclasses.replace(BASE, flow_model=other, **{name: value})
    with counting_compiles() as compiles:
        with pytest.raises(ExperimentError,
                           match=f"spec field {name}=.*no {other}-plane equivalent"):
            RunContext().run(spec)
    assert compiles == []


def test_field_metadata_stays_out_of_the_canonical_form():
    canonical = runner.canonical_spec(BASE)
    assert set(canonical) == {field.name for field in dataclasses.fields(ScenarioSpec)}
    assert "metadata" not in repr(canonical) and "domain" not in repr(canonical)


class TestSequenceFields:
    """``cdf_points`` and ``fct_percentiles`` take a tuple or a list of in-range
    entries; a string or a bare number is refused."""

    @pytest.mark.parametrize("name, entries", [("cdf_points", [0.5, 0.99]),
                                               ("fct_percentiles", [50.0, 99.0])])
    def test_a_list_runs_as_its_tuple(self, name, entries):
        as_list = dataclasses.replace(BASE, **{name: entries})
        as_tuple = dataclasses.replace(BASE, **{name: tuple(entries)})
        assert runner.spec_hash(as_list) == runner.spec_hash(as_tuple)
        assert RunContext().run(as_list) == RunContext().run(as_tuple)

    @pytest.mark.parametrize("name, value, complaint", [
        ("cdf_points", [0.5, 2.0], r" entry 2.0 must be a finite number in \[0, 1\]"),
        ("fct_percentiles", [math.nan], r" entry nan must be a finite number in \[0, 100\]"),
        ("cdf_points", 0.5, "=0.5 must be a tuple or list"),
        ("fct_percentiles", "50", "='50' must be a tuple or list"),
    ])
    def test_refused_before_any_compile(self, name, value, complaint):
        spec = dataclasses.replace(BASE, **{name: value})
        with counting_compiles() as compiles:
            with pytest.raises(ExperimentError, match=f"spec field {name}{complaint}"):
                RunContext().run(spec)
        assert compiles == []


class TestMeasuredDefects:
    """Inputs that hung, crashed, or ran on one plane before the schema.

    Measured on an ECMP fat-tree k=4 point: a NaN ``workload_duration``,
    ``warmup`` or ``host_capacity`` never returned; ``host_capacity=0`` was a
    bare ``ZeroDivisionError``; ``warmup=-5`` a bare ``SimulationError`` from
    the engine; ``websearch_scale=nan`` a bare ``ValueError``; a zero
    ``websearch_scale``, a negative ``workload_duration`` and Contra's
    ``load`` of 2.0 or 0 a ``WorkloadError`` (Contra's after the compile);
    ``seed=-3`` numpy's ``ValueError``; and on the fluid plane only, an
    unknown ``traffic`` or config ``transport`` ran and reported results.
    """

    @pytest.mark.parametrize("plane", ["packet", "fluid"])
    @pytest.mark.parametrize("owner, name, value, extra", [
        ("config", "workload_duration", math.nan, {}),
        ("config", "warmup", math.nan, {}),
        ("config", "host_capacity", math.nan, {}),
        ("config", "host_capacity", 0.0, {}),
        ("config", "warmup", -5.0, {}),
        ("config", "websearch_scale", math.nan, {"workload": "web_search"}),
        ("config", "websearch_scale", 0.0, {"workload": "web_search"}),
        ("config", "workload_duration", -1.0, {}),
        ("spec", "seed", -3, {}),
        ("spec", "load", 2.0, {"system": "contra"}),
        ("spec", "load", 0.0, {"system": "contra"}),
        ("spec", "traffic", "bogus", {}),
        ("config", "transport", "bogus", {}),
    ])
    def test_refused_before_any_compile(self, plane, owner, name, value, extra):
        spec = perturb(dataclasses.replace(BASE, flow_model=plane, **extra),
                       owner, name, value)
        with counting_compiles() as compiles, deadline(5.0):
            with pytest.raises(ExperimentError, match=f"{owner} field {name}="):
                RunContext().run(spec)
        assert compiles == []
