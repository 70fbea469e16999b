"""Exception hierarchy and field domains for the Contra reproduction.

Every error raised by this library derives from :class:`ContraError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish the individual failure modes.

The second half is the one declaration every refusal of a malformed value
derives from.  A :class:`Domain` is a predicate plus the phrase a refusal
quotes ("must be a finite number > 0").  A dataclass field declares its
domain with :func:`within`, in the field's metadata — which ``asdict`` never
sees, so a spec's canonical form and hash do not change — and
:func:`check_fields` judges an instance against every declared domain;
:func:`require` judges one constructor argument.  Only a value's own domain
lives here: a relation between fields stays with the code that knows both.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, field, fields
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Tuple


class ContraError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class PolicyError(ContraError):
    """A policy expression is malformed or uses an unsupported construct."""


class PolicyParseError(PolicyError):
    """The textual policy could not be parsed."""

    def __init__(self, message: str, position: int | None = None, text: str | None = None):
        self.position = position
        self.text = text
        if position is not None and text is not None:
            snippet = text[max(0, position - 20):position + 20]
            message = f"{message} (at offset {position}: ...{snippet!r}...)"
        super().__init__(message)


class PolicyAnalysisError(PolicyError):
    """Static analysis of the policy failed (e.g. non-monotonic policy)."""


class TopologyError(ContraError):
    """The topology description is invalid or inconsistent."""


class CompilationError(ContraError):
    """The compiler could not generate device programs for the policy/topology."""


class VerificationError(CompilationError):
    """A compiled artifact disagrees with its symbolic source of truth.

    Raised by the device-table cross-checker when a device's tag table or
    ``probe_transition`` entries disagree with the compiled policy.
    """


class SimulationError(ContraError):
    """The discrete-event simulator encountered an invalid state."""


class WorkloadError(ContraError):
    """A workload description or generator parameter is invalid."""


class ExperimentError(ContraError):
    """An experiment driver was configured inconsistently."""


# ------------------------------------------------------------------ field domains


class Domain(NamedTuple):
    """Which values a field admits, and the phrase a refusal quotes."""
    admits: Callable[[object], bool]
    phrase: str
    choices: Tuple = ()                 # the values a one_of domain names
    entries: bool = False               # each(): a tuple or list judged entry by entry


def _real(value: object) -> bool:
    """A finite int or float, and not a bool (``True`` is not 1 ms)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def at_least(low: float) -> Domain:
    return Domain(lambda v: _real(v) and v >= low, f"must be a finite number >= {low}")


def closed(low: float, high: float) -> Domain:
    return Domain(lambda v: _real(v) and low <= v <= high,
                  f"must be a finite number in [{low}, {high}]")


def integer(low: int) -> Domain:
    return Domain(lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= low,
                  f"must be an integer >= {low}")


def one_of(choices: Tuple, noun: str) -> Domain:
    """Exactly one of ``choices``, type included (``1`` is not ``True``)."""
    exact = frozenset((type(c), c) for c in choices)
    types = frozenset(type(c) for c in choices)
    return Domain(lambda v: type(v) in types and (type(v), v) in exact,
                  f"is an unknown {noun} (expected one of {choices!r})", choices)


def optional(domain: Domain) -> Domain:
    """``None`` (no override), or a value of ``domain``."""
    return domain._replace(admits=lambda v: v is None or domain.admits(v))


def each(domain: Domain) -> Domain:
    """A tuple or list whose every entry lies in ``domain``."""
    return domain._replace(entries=True)


POSITIVE = Domain(lambda v: _real(v) and v > 0, "must be a finite number > 0")
NON_NEGATIVE = at_least(0)
COUNT = integer(1)
NATURAL = integer(0)
FLAG = one_of((False, True), "flag")

# The names and bounds a spec field is judged against, declared here so the
# spec layer judges them without loading the plane that reads them; each
# plane's module re-exports its own.

#: Highest offered load a generator (and ``ScenarioSpec.load``) accepts.
MAX_LOAD = 1.5
#: The flow-size distributions ``repro.workloads.distribution_by_name`` knows.
WORKLOAD_NAMES = ("web_search", "cache", "uniform")
#: Routing systems with a fluid path-resolution analogue (all of them).
FLUID_SYSTEM_NAMES = ("ecmp", "shortest-path", "spain", "hula", "contra")


def within(domain: Domain, default: object = MISSING, plane: Optional[str] = None):
    """A dataclass field (defaulting to ``default``) whose values lie in ``domain``;
    ``plane`` marks a field only that flow model honours (see :func:`check_fields`)."""
    return field(default=default, metadata={"domain": domain, "plane": plane})


@lru_cache(maxsize=None)
def schema(cls: type) -> Tuple[Tuple[str, Domain, Optional[str], object], ...]:
    """``cls``'s declared fields as ``(name, domain, plane, default)``, built once; the
    unmarked come first, so the flow model a plane marker reads is judged first."""
    declared = [(spec.name, spec.metadata["domain"], spec.metadata["plane"], spec.default)
                for spec in fields(cls) if "domain" in spec.metadata]
    return tuple(sorted(declared, key=lambda entry: entry[2] is not None))


def fault(domain: Domain, value: object) -> Optional[str]:
    """What follows the field name in a refusal of ``value``; None if admitted."""
    if not domain.entries:
        return None if domain.admits(value) else f"={value!r} {domain.phrase}"
    if not isinstance(value, (tuple, list)):
        return f"={value!r} must be a tuple or list"
    return next((f" entry {entry!r} {domain.phrase}"
                 for entry in value if not domain.admits(entry)), None)


def check_fields(obj: object, source: str, error: type, plane: Optional[str] = None) -> None:
    """Raise ``error`` naming the first declared field of ``obj`` outside its domain,
    as ``"<source> field <name>=<value> <phrase>"``, or — with ``plane`` given —
    marked for the other plane and not at its default, which it would ignore."""
    for name, domain, marked, default in schema(type(obj)):
        value = getattr(obj, name)
        complaint = fault(domain, value)
        if plane is not None and marked not in (None, plane) and value != default:
            complaint = (f"{complaint or f'={value!r}'}; {name} requires "
                         f"flow_model={marked!r} (no {plane}-plane equivalent)")
        if complaint is not None:
            raise error(f"{source} field {name}{complaint}")


def require(label: str, value: object, domain: Domain, error: type) -> None:
    """Raise ``error`` unless ``value`` lies in ``domain`` (a constructor argument)."""
    if not domain.admits(value):
        raise error(f"{label} {domain.phrase}, got {value!r}")
