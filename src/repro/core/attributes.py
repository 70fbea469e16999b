"""Path attributes and their composition semantics.

Contra policies reference dynamic path metrics such as ``path.util`` and
``path.lat`` (Figure 2).  Each attribute is defined by how per-link values
compose along a path:

* ``util`` — bottleneck utilization: the **maximum** link utilization,
* ``lat``  — end-to-end latency: the **sum** of link latencies,
* ``len``  — hop count: the **count** of links (sum of 1 per link).

Probes carry a *metric vector*: one accumulated value per attribute that the
compiled policy needs.  The composition operation also determines the
monotonicity/isotonicity classification used by the policy analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Tuple

from repro.exceptions import PolicyError

__all__ = ["PathAttribute", "ATTRIBUTES", "attribute", "MetricVector", "metric_names"]


@dataclass(frozen=True)
class PathAttribute:
    """Definition of one dynamic path metric.

    Attributes
    ----------
    name:
        Attribute name as written in policies (``util``, ``lat``, ``len``).
    composition:
        ``"max"``, ``"sum"`` or ``"count"`` — how per-link values accumulate.
    initial:
        The metric value of the empty path.
    bits:
        Number of bits a probe needs to carry this metric (used for the
        switch-state and traffic-overhead estimates).
    """

    name: str
    composition: str
    initial: float
    bits: int = 32

    def extend(self, accumulated: float, link_value: float) -> float:
        """Combine an accumulated path value with one more link's value."""
        if self.composition == "max":
            return max(accumulated, link_value)
        if self.composition == "sum":
            return accumulated + link_value
        if self.composition == "count":
            return accumulated + 1.0
        raise PolicyError(f"unknown composition {self.composition!r}")

    @property
    def is_monotone(self) -> bool:
        """Whether extending a path can never improve (decrease) the metric.

        True for all built-in attributes given non-negative link values.
        """
        return self.composition in ("max", "sum", "count")

    @property
    def is_max_like(self) -> bool:
        """Max-composition metrics break isotonicity when used as a lexicographic prefix."""
        return self.composition == "max"


#: Registry of the attributes supported by the policy language.
ATTRIBUTES: Dict[str, PathAttribute] = {
    "util": PathAttribute("util", "max", 0.0, bits=32),
    "lat": PathAttribute("lat", "sum", 0.0, bits=32),
    "len": PathAttribute("len", "count", 0.0, bits=16),
}


def attribute(name: str) -> PathAttribute:
    """Look up an attribute by name, raising :class:`PolicyError` for unknown names."""
    try:
        return ATTRIBUTES[name]
    except KeyError:
        raise PolicyError(
            f"unknown path attribute {name!r}; supported: {sorted(ATTRIBUTES)}") from None


def metric_names() -> List[str]:
    """All supported attribute names in canonical order."""
    return sorted(ATTRIBUTES)


class MetricVector:
    """An accumulated metric vector carried by a probe.

    The vector holds one value per attribute name in a fixed order; it is the
    ``mv`` field from the paper's pseudocode (Figure 7).  ``names`` and
    ``values`` are plain slots — PROCESSPROBE reads both on every hop, and a
    property frame apiece was a seventh of the hop — and immutable by
    convention: vectors ride by reference in shared probe payloads.
    """

    __slots__ = ("names", "values")

    def __init__(self, names: Iterable[str], values: Iterable[float] | None = None):
        self.names: Tuple[str, ...] = tuple(names)
        for name in self.names:
            attribute(name)  # validation
        if values is None:
            self.values: Tuple[float, ...] = tuple(
                ATTRIBUTES[n].initial for n in self.names)
        else:
            self.values = tuple(float(v) for v in values)
            if len(self.values) != len(self.names):
                raise PolicyError("metric vector length mismatch")

    @classmethod
    def _make(cls, names: Tuple[str, ...], values: Tuple[float, ...]) -> "MetricVector":
        """Internal fast constructor for already-validated name/value tuples.

        Probe processing builds one vector per accepted hop; skipping
        re-validation of the (fixed) attribute names keeps that on the hot
        path budget.
        """
        vector = object.__new__(cls)
        vector.names = names
        vector.values = values
        return vector

    def get(self, name: str) -> float:
        """Value of one attribute; raises if the vector does not carry it."""
        try:
            return self.values[self.names.index(name)]
        except ValueError:
            raise PolicyError(f"metric vector {self} does not carry {name!r}") from None

    def as_dict(self) -> Dict[str, float]:
        return dict(zip(self.names, self.values))

    def extend(self, link_values: Mapping[str, float]) -> "MetricVector":
        """A new vector with every attribute extended by one link.

        ``link_values`` maps attribute name to the link's value (``count``
        attributes ignore it).  Missing link values default to 0.
        """
        new_values = tuple(
            ATTRIBUTES[name].extend(acc, float(link_values.get(name, 0.0)))
            for name, acc in zip(self.names, self.values))
        return MetricVector._make(self.names, new_values)

    def replace(self, name: str, value: float) -> "MetricVector":
        """A new vector with one attribute overwritten."""
        if name not in self.names:
            raise PolicyError(f"metric vector {self} does not carry {name!r}")
        values = [value if n == name else v for n, v in zip(self.names, self.values)]
        return MetricVector(self.names, values)

    def bits(self) -> int:
        """Wire size of this vector in bits (for overhead accounting)."""
        return sum(ATTRIBUTES[n].bits for n in self.names)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricVector):
            return NotImplemented
        return self.names == other.names and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.names, self.values))

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={v:g}" for n, v in zip(self.names, self.values))
        return f"MetricVector({inner})"
