"""Streaming statistical accumulators.

The per-packet measurement hooks of :class:`~repro.simulator.stats
.StatsCollector` must be O(1) time and O(1) memory per sample so that stats
collection never dominates a run (the seed implementation kept every queue
sample in an unbounded Python list).  Two accumulators cover the needs of the
paper's figures:

* :class:`StreamingHistogram` — exact percentiles for small-integer-valued
  streams (queue lengths are bounded by the buffer size), using a counts
  dictionary.  Percentiles interpolate exactly like ``numpy.percentile``'s
  default *linear* method, so refactoring the collector onto it changed no
  reported number.
* :class:`ReservoirSampler` — uniform fixed-size sample of an unbounded
  stream, for quantities without a small discrete domain (e.g. sampled
  delivered paths).  Deterministic: the reservoir is driven by its own seeded
  PRNG, never the global one.
* :class:`HyperLogLog` — approximate distinct-count sketch for flow
  cardinality at million-flow scale, where an exact per-switch flow set would
  cost O(flows) memory per switch.  Deterministic: items are hashed with
  blake2b (never Python's salted ``hash``), so two identically fed sketches
  agree register-for-register and the estimate is a pure function of the
  offered multiset.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = ["StreamingHistogram", "ReservoirSampler", "HyperLogLog"]


class StreamingHistogram:
    """Exact streaming percentiles over a discrete (integer-valued) stream.

    The counts dictionary is the whole state: ``count``/``min``/``max`` are
    derived from it at read time (reads happen once per run, samples once per
    packet), so the per-packet producer — :meth:`SimLink.enqueue
    <repro.simulator.link.SimLink.enqueue>` — bumps ``_counts`` in place and
    a histogram fed that way is indistinguishable from one fed through
    :meth:`record`.
    """

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}

    def record(self, value: int) -> None:
        """Add one observation. O(1)."""
        counts = self._counts
        counts[value] = counts.get(value, 0) + 1

    @property
    def count(self) -> int:
        return sum(self._counts.values())

    @property
    def max(self) -> int:
        return max(self._counts, default=0)

    @property
    def min(self) -> int:
        return min(self._counts, default=0)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100), matching numpy's linear method.

        Returns 0.0 for an empty histogram.
        """
        total = self.count
        if total == 0:
            return 0.0
        # numpy's linear interpolation: virtual index h = (n-1) * q / 100.
        h = (total - 1) * (q / 100.0)
        lower_index = int(h)
        fraction = h - lower_index
        lower = self._value_at(lower_index)
        if fraction == 0.0:
            return float(lower)
        upper = self._value_at(lower_index + 1)
        return lower + (upper - lower) * fraction

    def percentiles(self, qs: Sequence[float]) -> List[float]:
        return [self.percentile(q) for q in qs]

    def _value_at(self, index: int) -> int:
        """The value at ``index`` of the (virtual) sorted sample array."""
        remaining = index
        for value in sorted(self._counts):
            bucket = self._counts[value]
            if remaining < bucket:
                return value
            remaining -= bucket
        return self.max

    def items(self) -> List[Tuple[int, int]]:
        """(value, count) pairs in increasing value order."""
        return sorted(self._counts.items())


class HyperLogLog:
    """Flajolet's HyperLogLog distinct-count estimator, pure Python.

    ``2**precision`` one-byte registers (the default 1024 gives a standard
    error of ``1.04 / sqrt(1024)`` ≈ 3.3%), fed from a 64-bit blake2b digest:
    the top ``precision`` bits select a register, the remaining bits supply
    the leading-zero rank.  ``add`` is O(1); memory is constant.  The
    small-range correction (linear counting while registers are mostly empty)
    makes the estimate near-exact for the cardinalities unit tests use.

    Determinism contract: ``repr`` of the item keys the hash, so offer only
    values with stable reprs (ints, strings, tuples thereof) — never objects
    whose repr embeds an ``id()``.
    """

    __slots__ = ("precision", "registers", "_tail_bits")

    def __init__(self, precision: int = 10):
        if not 4 <= precision <= 16:
            raise ValueError(f"HyperLogLog precision must be in [4, 16], got {precision}")
        self.precision = precision
        #: One rank byte per register; :meth:`slot` says which one an item
        #: may raise.
        self.registers = bytearray(1 << precision)
        self._tail_bits = 64 - precision

    def slot(self, item) -> Tuple[int, int]:
        """The ``(register, rank)`` pair ``item`` hashes to.

        A pure function of ``repr(item)`` and the precision, so one digest
        serves every sketch of this precision: offering the item to any of
        them is ``registers[register] = max(registers[register], rank)``.
        """
        digest = hashlib.blake2b(repr(item).encode("utf-8"), digest_size=8).digest()
        value = int.from_bytes(digest, "big")
        tail = value & ((1 << self._tail_bits) - 1)
        return value >> self._tail_bits, self._tail_bits - tail.bit_length() + 1

    def add(self, item) -> None:
        """Offer one item. O(1); duplicates never change the estimate."""
        index, rank = self.slot(item)
        if rank > self.registers[index]:
            self.registers[index] = rank

    def estimate(self) -> float:
        """Approximate number of distinct items offered so far."""
        m = len(self.registers)
        alpha = 0.7213 / (1.0 + 1.079 / m)
        raw = alpha * m * m / sum(2.0 ** -r for r in self.registers)
        zeros = self.registers.count(0)
        if raw <= 2.5 * m and zeros:
            return m * math.log(m / zeros)
        return raw

    def merge(self, other: "HyperLogLog") -> None:
        """Fold another sketch in (register-wise max): the union estimate."""
        if other.precision != self.precision:
            raise ValueError("cannot merge HyperLogLog sketches of different precision")
        registers = self.registers
        for index, rank in enumerate(other.registers):
            if rank > registers[index]:
                registers[index] = rank


class ReservoirSampler:
    """Fixed-size uniform sample of an unbounded stream (Vitter's algorithm R).

    Bounded memory regardless of stream length; every element has equal
    probability ``capacity / n`` of being retained.  Sampling decisions come
    from a private seeded PRNG, so two identically fed reservoirs agree
    element-for-element — run-to-run determinism never depends on global
    random state.
    """

    __slots__ = ("capacity", "_samples", "_seen", "_rng")

    def __init__(self, capacity: int, seed: int = 0):
        if capacity <= 0:
            raise ValueError(f"reservoir capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._samples: List = []
        self._seen = 0
        self._rng = random.Random(seed)

    def offer(self, item) -> None:
        """Consider one stream element for inclusion. O(1)."""
        self._seen += 1
        if len(self._samples) < self.capacity:
            self._samples.append(item)
            return
        slot = self._rng.randrange(self._seen)
        if slot < self.capacity:
            self._samples[slot] = item

    @property
    def seen(self) -> int:
        """Total stream elements offered so far."""
        return self._seen

    @property
    def samples(self) -> List:
        """The current sample (at most ``capacity`` elements, arrival order not preserved)."""
        return list(self._samples)

    def __len__(self) -> int:
        return len(self._samples)

    def extend(self, items: Iterable) -> None:
        for item in items:
            self.offer(item)
