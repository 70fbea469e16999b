"""Flow-size distributions, and the random generator every workload draws from.

The paper's FCT experiments replay two production workloads: the **web
search** workload of the DCTCP paper [11] and the **cache** workload measured
inside Facebook's datacenters [35].  The original traces are not available
offline, so this module ships synthetic empirical CDFs with the published
shapes (DESIGN.md §4):

* *web search* — heavy-tailed: over half the flows are small (< ~10 KB
  equivalents) but most bytes come from flows hundreds of packets long;
* *cache* — dominated by small object transfers of a few packets with a
  moderate tail.

Sizes are expressed in full-size packets (the simulator's unit).  Every
distribution exposes ``size_at`` / ``quantile`` / ``mean``; a flow's size is
``size_at(rng.random())``.

:class:`Generator` is ``numpy.random.default_rng(seed)`` bit for bit, in pure
Python, for every draw the workload generators make: seeding, ``random``,
``exponential``, ``integers``, ``choice`` and ``permutation`` return numpy's
values and leave numpy's bit-generator state (ARCHITECTURE.md §7).  So a
workload is a function of its arguments alone, whichever numpy is installed
or none, and no process imports numpy to draw one.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from repro.exceptions import WORKLOAD_NAMES, WorkloadError

__all__ = [
    "Generator",
    "EmpiricalCDF",
    "WEB_SEARCH_CDF",
    "CACHE_CDF",
    "web_search_distribution",
    "cache_distribution",
    "uniform_distribution",
    "distribution_by_name",
    "WORKLOAD_NAMES",
]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
#: PCG64's LCG multiplier (``PCG_DEFAULT_MULTIPLIER_128``).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: ``next_double``'s scale: a 53-bit word to [0, 1).
_DOUBLE_UNIT = 1.0 / 9007199254740992.0
#: The exponential ziggurat's rightmost abscissa (``ziggurat_exp_r``).
_ZIG_EXP_R = 7.6971174701310497140446280481


def _entropy_words(entropy) -> List[int]:
    """``SeedSequence``'s entropy as 32-bit words: an int least significant
    word first (0 is one word), a sequence of ints (nested or not) as its
    members' words concatenated."""
    if isinstance(entropy, int):
        if entropy < 0:
            raise ValueError("expected non-negative integer")
        words = [entropy & _MASK32]
        entropy >>= 32
        while entropy:
            words.append(entropy & _MASK32)
            entropy >>= 32
        return words
    if not isinstance(entropy, (tuple, list, range)):
        raise TypeError(f"seed must be an int or a sequence of ints, not {entropy!r}")
    return [word for part in entropy for word in _entropy_words(part)]


def _seed_sequence(entropy) -> Tuple[int, int]:
    """``SeedSequence(entropy).generate_state(4, uint64)``, read as PCG64
    reads it: the 128-bit initial state and the 128-bit stream selector.

    numpy's pool of four 32-bit words, filled and cross-mixed with its
    ``hashmix`` / ``mix`` constants, then hashed out to eight words paired
    little-endian into four 64-bit ones.
    """
    words = _entropy_words(entropy)
    hash_const = 0x43B0D7E5                                   # INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32        # MULT_A
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32  # MIX_MULT_L, _R
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = 0x8B51F9DD                                   # INIT_B
    state = []
    for index in range(8):
        value = pool[index % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32        # MULT_B
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    high_seed, low_seed, high_inc, low_inc = (
        state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
    return high_seed << 64 | low_seed, high_inc << 64 | low_inc


class Generator:
    """``numpy.random.default_rng(seed)``, bit for bit, in pure Python.

    PCG64 — a 128-bit LCG with the XSL-RR output — seeded through numpy's
    ``SeedSequence`` from an int of any size or a (nested) sequence of ints.
    Each method returns what the numpy method of the same name returns, as a
    Python value, and consumes the bit stream exactly as it does, 32-bit
    halves included: ``integers`` draws 32-bit words for ranges below
    2**32 and numpy buffers the unused half of a 64-bit word between calls
    (``state`` shows it as ``has_uint32`` / ``uinteger``).  Only the call
    forms the workload generators make are here: scalar ``random``,
    ``exponential`` and ``integers``, ``choice`` of one option or of ``size``
    without replacement.  The oracle is ``tests/unit/test_rng_oracle.py``.
    """

    __slots__ = ("_state", "_inc", "_has_uint32", "_uinteger")

    def __init__(self, seed) -> None:
        initstate, initseq = _seed_sequence(seed)
        # pcg_setseq_128_srandom_r: an odd increment, two steps around the
        # addition of the initial state.
        self._inc = inc = (initseq << 1 | 1) & _MASK128
        self._state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
        self._has_uint32 = 0
        self._uinteger = 0

    @property
    def state(self) -> dict:
        """The state in the form of numpy's ``bit_generator.state``."""
        return {"bit_generator": "PCG64",
                "state": {"state": self._state, "inc": self._inc},
                "has_uint32": self._has_uint32, "uinteger": self._uinteger}

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        value = (state >> 64) ^ (state & _MASK64)
        rotation = state >> 122
        return (value >> rotation) | ((value << (64 - rotation)) & _MASK64)

    def _next32(self) -> int:
        if self._has_uint32:
            self._has_uint32 = 0
            return self._uinteger
        word = self._next64()
        self._has_uint32, self._uinteger = 1, word >> 32
        return word & _MASK32

    def _lemire(self, product: int, span: int) -> int:
        """Lemire's bounded draw on ``[0, span)``, ``span <= 2**32``, from
        its first product ``word * span`` of a 32-bit word: redraws while
        the low 32 bits fall below ``2**32 % span`` (tested only when they
        fall below ``span``)."""
        if (product & _MASK32) < span:
            threshold = (1 << 32) % span
            while (product & _MASK32) < threshold:
                product = self._next32() * span
        return product >> 32

    def _bounded(self, top: int) -> int:
        """Uniform on ``[0, top]``, ``top < 2**32``: numpy's
        ``random_bounded_uint64``, unmasked, which draws nothing for 0."""
        if top == 0:
            return 0
        return self._lemire(self._next32() * (top + 1), top + 1)

    def random(self) -> float:
        """A uniform float on [0, 1): a word's top 53 bits."""
        return (self._next64() >> 11) * _DOUBLE_UNIT

    def _standard_exponential(self) -> float:
        """numpy's 256-level exponential ziggurat (``standard_exponential_zig``)."""
        while True:
            word = self._next64() >> 3
            index = word & 0xFF
            word >>= 8
            x = word * _ZIG_WE[index]
            if word < _ZIG_KE[index]:
                return x
            tail = self._exponential_tail(index, x)
            if tail is not None:
                return tail

    def _exponential_tail(self, index: int, x: float) -> Optional[float]:
        """A ziggurat draw outside its box: the base strip's tail, a point
        under the density in a wedge, or ``None`` to draw again."""
        if index == 0:
            return _ZIG_EXP_R - math.log1p(-self.random())
        if ((_ZIG_FE[index - 1] - _ZIG_FE[index]) * self.random() + _ZIG_FE[index]
                < math.exp(-x)):
            return x
        return None

    def exponential(self, scale: float = 1.0) -> float:
        """An exponential float with mean ``scale``."""
        return scale * self._standard_exponential()

    def integers(self, low: int, high: int) -> int:
        """A uniform int on ``[low, high)``, at most 2**32 values (Lemire's
        32-bit draw)."""
        top = high - low - 1
        if not 0 <= top <= _MASK32:
            raise ValueError(f"integers draws from 1 to 2**32 values, got [{low}, {high})")
        return low + self._bounded(top)

    def choice(self, options: Sequence, size: Optional[int] = None,
               replace: bool = True):
        """One member of ``options``, or a list of ``size`` distinct ones.

        One pick (no ``size``) is ``options[integers(0, len(options))]``.
        ``size`` picks are taken without replacement, as numpy's index set:
        Floyd's algorithm (a tail shuffle when more than a fiftieth of over
        10 000 options is taken), then a shuffle of the picks.
        """
        count = len(options)
        if replace:
            if size is not None:
                raise ValueError("a batched choice is drawn without replacement")
            return options[self.integers(0, count)]
        picks = size
        if not 0 <= picks <= count:
            raise ValueError(f"cannot take {picks} of {count} options without replacement")
        if count > 10_000 and picks > count // 50:
            indices = list(range(count))
            for i in range(count - 1, max(count - picks, 1) - 1, -1):
                j = self._bounded(i)
                indices[i], indices[j] = indices[j], indices[i]
            indices = indices[count - picks:]
        else:
            indices, taken = [], set()
            for j in range(count - picks, count):
                value = self._bounded(j)
                if value in taken:
                    value = j
                taken.add(value)
                indices.append(value)
            for i in range(picks - 1, 0, -1):
                j = self._bounded(i)
                indices[i], indices[j] = indices[j], indices[i]
        return [options[index] for index in indices]

    def permutation(self, n: int) -> List[int]:
        """A shuffled ``range(n)``: Fisher–Yates on numpy's masked-rejection
        ``random_interval`` draw (32-bit words)."""
        values = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._next32() & mask
            while j > i:
                j = self._next32() & mask
            values[i], values[j] = values[j], values[i]
        return values

    def poisson_arrivals(self, scale: float, start: float, end: float,
                         marks: int) -> List[Tuple[float, int, float]]:
        """A Poisson process on ``[start, end)``: ``(time, mark, uniform)``
        for each arrival.

        Per arrival, in this order: ``exponential(scale)`` for the gap since
        the previous arrival (or ``start``), and, before ``end``,
        ``integers(0, marks)`` and ``random()`` —
        values and stream exactly those calls', with their common paths
        inlined so that an arrival costs no Python call (the eager workload
        generator draws every flow here).
        """
        if not 1 <= marks <= 1 << 32:
            raise ValueError(f"marks must be in [1, 2**32], got {marks}")
        arrivals: List[Tuple[float, int, float]] = []
        inc, time = self._inc, start
        ke, we = _ZIG_KE, _ZIG_WE
        while True:
            # exponential(scale): the ziggurat's box test passes 98.9 % of draws.
            state = self._state = (self._state * _PCG_MULT + inc) & _MASK128
            value, rotation = (state >> 64) ^ (state & _MASK64), state >> 122
            word = ((value >> rotation) | ((value << (64 - rotation)) & _MASK64)) >> 3
            index = word & 0xFF
            word >>= 8
            gap = word * we[index]
            if word >= ke[index]:
                tail = self._exponential_tail(index, gap)
                gap = tail if tail is not None else self._standard_exponential()
            time += scale * gap
            if time >= end:
                break
            # integers(0, marks): a buffered 32-bit half, Lemire's product.
            mark = 0
            if marks > 1:
                if self._has_uint32:
                    self._has_uint32 = 0
                    half = self._uinteger
                else:
                    state = self._state = (self._state * _PCG_MULT + inc) & _MASK128
                    value, rotation = (state >> 64) ^ (state & _MASK64), state >> 122
                    value = (value >> rotation) | ((value << (64 - rotation)) & _MASK64)
                    self._has_uint32, self._uinteger = 1, value >> 32
                    half = value & _MASK32
                product = half * marks
                mark = product >> 32 if (product & _MASK32) >= marks \
                    else self._lemire(product, marks)
            # random()
            state = self._state = (self._state * _PCG_MULT + inc) & _MASK128
            value, rotation = (state >> 64) ^ (state & _MASK64), state >> 122
            value = (value >> rotation) | ((value << (64 - rotation)) & _MASK64)
            arrivals.append((time, mark, (value >> 11) * _DOUBLE_UNIT))
        return arrivals


@dataclass(frozen=True)
class EmpiricalCDF:
    """A piecewise-linear inverse-CDF sampler over flow sizes (in packets)."""

    name: str
    #: (cumulative probability, flow size in packets) pairs, increasing in both.
    points: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise WorkloadError(f"CDF {self.name!r} needs at least two points")
        previous_p, previous_size = -1.0, 0.0
        for probability, size in self.points:
            if probability <= previous_p or size < previous_size:
                raise WorkloadError(f"CDF {self.name!r} points must be increasing")
            previous_p, previous_size = probability, size
        if abs(self.points[-1][0] - 1.0) > 1e-9:
            raise WorkloadError(f"CDF {self.name!r} must end at probability 1.0")

    @cached_property
    def _knots(self):
        """The inverse CDF's knot table, built on first use and read by every
        sampler: probabilities, sizes and the slope of each segment between
        them.  A cached property writes the instance ``__dict__`` directly,
        so the frozen dataclass's equality and hash never see it."""
        probabilities = [float(p) for p, _ in self.points]
        sizes = [float(s) for _, s in self.points]
        slopes = [(sizes[j + 1] - sizes[j]) / (probabilities[j + 1] - probabilities[j])
                  for j in range(len(sizes) - 1)]
        return probabilities, sizes, slopes

    def size_at(self, uniform: float) -> int:
        """The flow size (packets, >= 1) at one uniform draw, by inverse-transform
        sampling: ``max(1, round(quantile(uniform)))``, Python's ``round``
        being numpy's half-even ``rint``.  :meth:`quantile`'s arithmetic is
        inlined, because every flow is sized here."""
        probabilities, sizes, slopes = self._knots
        j = bisect_right(probabilities, uniform) - 1
        if j < 0:
            value = sizes[0]
        elif j == len(slopes) or probabilities[j] == uniform:
            value = sizes[j]
        else:
            value = slopes[j] * (uniform - probabilities[j]) + sizes[j]
        return max(1, round(value))

    def mean(self) -> float:
        """The expected flow size (packets) under the piecewise-linear CDF."""
        total = 0.0
        for (p0, s0), (p1, s1) in zip(self.points, self.points[1:]):
            total += (p1 - p0) * (s0 + s1) / 2.0
        return max(1.0, total)

    def quantile(self, probability: float) -> float:
        """The size at ``probability`` on the piecewise-linear CDF.

        ``np.interp``'s arithmetic, bit for bit: the segment by bisection,
        ``slope * (p - p_j) + size_j``, a knot's own size at a knot, and the
        end sizes outside the table.
        """
        probabilities, sizes, slopes = self._knots
        j = bisect_right(probabilities, probability) - 1
        if j < 0:
            return sizes[0]
        if j == len(slopes) or probabilities[j] == probability:
            return sizes[j]
        return slopes[j] * (probability - probabilities[j]) + sizes[j]


#: DCTCP-style web search workload: ~50% of flows under 7 packets but a heavy
#: tail reaching ~20000 packets (~30 MB at 1500 B/packet, scaled shape).
WEB_SEARCH_CDF = EmpiricalCDF("web_search", (
    (0.0, 1),
    (0.15, 2),
    (0.30, 4),
    (0.50, 7),
    (0.60, 14),
    (0.70, 34),
    (0.80, 134),
    (0.90, 667),
    (0.95, 1340),
    (0.99, 4500),
    (1.00, 20000),
))

#: Facebook cache-follower workload: dominated by small object reads with a
#: moderate tail (largest flows a few hundred packets).
CACHE_CDF = EmpiricalCDF("cache", (
    (0.0, 1),
    (0.50, 2),
    (0.70, 3),
    (0.80, 5),
    (0.90, 10),
    (0.95, 30),
    (0.99, 120),
    (1.00, 400),
))


def web_search_distribution(scale: float = 1.0) -> EmpiricalCDF:
    """The web-search CDF, optionally scaled (smaller scale = faster experiments)."""
    return _scaled(WEB_SEARCH_CDF, scale)


def cache_distribution(scale: float = 1.0) -> EmpiricalCDF:
    """The cache CDF, optionally scaled."""
    return _scaled(CACHE_CDF, scale)


def uniform_distribution(low: int = 1, high: int = 20, name: str = "uniform") -> EmpiricalCDF:
    """A simple uniform flow-size distribution (used by tests and examples)."""
    if low < 1 or high < low:
        raise WorkloadError("uniform distribution requires 1 <= low <= high")
    return EmpiricalCDF(name, ((0.0, low), (1.0, high)))


def _scaled(cdf: EmpiricalCDF, scale: float) -> EmpiricalCDF:
    if scale <= 0:
        raise WorkloadError("scale must be positive")
    if scale == 1.0:
        return cdf
    points = tuple((p, max(1.0, round(s * scale))) for p, s in cdf.points)
    # Re-normalise monotonicity after rounding small sizes.
    fixed: List[Tuple[float, float]] = []
    last_size = 0.0
    for probability, size in points:
        size = max(size, last_size)
        fixed.append((probability, size))
        last_size = size
    return EmpiricalCDF(f"{cdf.name}-x{scale:g}", tuple(fixed))


def distribution_by_name(name: str, scale: float = 1.0) -> EmpiricalCDF:
    """Look up a named flow-size distribution, scaled by ``scale``.

    ``web_search`` and ``cache`` are the paper's workloads; ``uniform`` is the
    flat sensitivity distribution (sizes 1..20 packets at scale 1.0, the upper
    bound scaling with ``scale``).
    """
    if name == "web_search":
        return web_search_distribution(scale)
    if name == "cache":
        return cache_distribution(scale)
    if name == "uniform":
        return _scaled(uniform_distribution(), scale)
    raise WorkloadError(f"unknown workload {name!r}; available: {WORKLOAD_NAMES}")


# The exponential ziggurat's tables, numpy's ``ke_double`` / ``we_double`` /
# ``fe_double`` verbatim: box bounds (integer), widths and density values.
# They cannot be recomputed: Marsaglia-Tsang's recurrence in doubles differs
# from them in most entries.  Read out of numpy 2.4.6's
# ``numpy/random/lib/libnpyrandom.a``: ``ar x`` its
# ``src_distributions_distributions.c.o``, ``readelf -s`` gives each local
# symbol's offset in ``.rodata`` (256 little-endian 8-byte entries), and
# ``readelf -S`` that section's file offset.  They are covered by numpy's
# licence:
#
# Copyright (c) 2005-2025, NumPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions are
# met:
#
#     * Redistributions of source code must retain the above copyright
#        notice, this list of conditions and the following disclaimer.
#
#     * Redistributions in binary form must reproduce the above
#        copyright notice, this list of conditions and the following
#        disclaimer in the documentation and/or other materials provided
#        with the distribution.
#
#     * Neither the name of the NumPy Developers nor the names of any
#        contributors may be used to endorse or promote products derived
#        from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

_ZIG_KE = (
    7971545857431494, 0, 5485857970336126, 6877400373607440,
    7489560515621038, 7829793950745724, 8045251395085594, 8193552821270898,
    8301707212298418, 8384003209374832, 8448689755168200, 8500854585063478,
    8543802742323106, 8579772857648236, 8610334328270398, 8636619566280862,
    8659465946817878, 8679505875409358, 8697225801520776, 8713005977443536,
    8727147906454692, 8739893704890038, 8751440024696698, 8761948238062960,
    8771552003860596, 8780362968290610, 8788475114930438, 8795968123070796,
    8802909988292858, 8809359087581710, 8815365821575970, 8820973931588800,
    8826221564107158, 8831142137483404, 8835765052397426, 8840116277974648,
    8844218838221542, 8848093218006260, 8851757703688506, 8855228670347734,
    8858520825126080, 8861647414312948, 8864620400320394, 8867450613535032,
    8870147883110754, 8872721150032146, 8875178565190242, 8877527574738170,
    8879774994610604, 8881927075778634, 8883989561556502, 8885967738067168,
    8887866478800856, 8889690284057818, 8891443315947666, 8893129429518482,
    8894752200505984, 8896314950123264, 8897820767252858, 8899272528353282,
    8900672915349966, 8902024431744704, 8903329417147192, 8904590060406012,
    8905808411494018, 8906986392283810, 8908125806332284, 8909228347778946,
    8910295609450180, 8911329090250868, 8912330201915374, 8913300275181656,
    8914240565445170, 8915152257942916, 8916036472512488, 8916894267966144,
    8917726646115692, 8918534555480190, 8919318894705170, 8920080515719156,
    8920820226650618, 8921538794526266, 8922236947769418, 8922915378515480,
    8923574744759820, 8924215672351958, 8924838756848636, 8925444565237162,
    8926033637539416, 8926606488305930, 8927163608008600, 8927705464339880,
    8928232503425544, 8928745150957558, 8929243813252980, 8929728878244356,
    8930200716406566, 8930659681624710, 8931106112007190, 8931540330647876,
    8931962646340834, 8932373354250910, 8932772736543124, 8933161062973652,
    8933538591444894, 8933905568527004, 8934262229948010, 8934608801054528,
    8934945497244894, 8935272524376414, 8935590079148328, 8935898349461876,
    8936197514758882, 8936487746340036, 8936769207664048, 8937042054628744,
    8937306435835058, 8937562492834854, 8937810360363402, 8938050166557284,
    8938282033158466, 8938506075705162, 8938722403710132, 8938931120826946,
    8939132325004766, 8939326108632062, 8939512558669762, 8939691756774158,
    8939863779409990, 8940028697953972, 8940186578789100, 8940337483389966,
    8940481468399302, 8940618585695992, 8940748882454662, 8940872401197050,
    8940989179835208, 8941099251706688, 8941202645601704, 8941299385782368,
    8941389491993960, 8941472979468230, 8941549858918698, 8941620136527848,
    8941683813926148, 8941740888162738, 8941791351667640, 8941835192205302,
    8941872392819226, 8941902931767472, 8941926782448690, 8941943913318396,
    8941954287795084, 8941957864155806, 8941954595420724, 8941944429226144,
    8941927307685492, 8941903167237602, 8941871938481652, 8941833545998016,
    8941787908154234, 8941734936895206, 8941674537516674, 8941606608420918,
    8941531040853536, 8941447718620056, 8941356517781006, 8941257306323958,
    8941149943810914, 8941034280999228, 8940910159434164, 8940777411010892,
    8940635857503634, 8940485310059376, 8940325568653336, 8940156421503112,
    8939977644438114, 8939789000220574, 8939590237814000, 8939381091594596,
    8939161280500638, 8938930507114326, 8938688456670012, 8938434795982096,
    8938169172285110, 8937891211977748, 8937600519261604, 8937296674664432,
    8936979233436516, 8936647723807416, 8936301645088910, 8935940465608202,
    8935563620453574, 8935170509012442, 8934760492279316, 8934332889908232,
    8933886976981030, 8933421980459034, 8932937075281380, 8932431380068266,
    8931903952381602, 8931353783488908, 8930779792568492, 8930180820284952,
    8929555621653500, 8928902858099222, 8928221088602964, 8927508759808348,
    8926764194944404, 8925985581394242, 8925170956711904, 8924318192855506,
    8923424978364230, 8922488798157886, 8921506910578770, 8920476321224196,
    8919393753031106, 8918255611967910, 8917057947558148, 8915796407299442,
    8914466183841290, 8913061953535784, 8911577804662434, 8910007153233212,
    8908342643782164, 8906576031902208, 8904698044465300, 8902698212389652,
    8900564669414922, 8898283908495804, 8895840484961220, 8893216652275640,
    8890391911743352, 8887342451323378, 8884040440144924, 8880453133239800,
    8876541723776518, 8872259855113102, 8867551668208538, 8862349204777254,
    8856568902200012, 8850106784293916, 8842831740745002, 8834575940248166,
    8825120832349124, 8814176156651890, 8801347484544986, 8786084197194146,
    8767592496903178, 8744682338845716, 8715480686119910, 8676850260251934,
    8623083654098352, 8542525795804796, 8406823688997808, 8122426762520768,
)
_ZIG_WE = (
    9.655740063209183e-16, 7.089014243955414e-18, 1.1639412496691224e-17,
    1.524391512353216e-17, 1.833284885723744e-17, 2.1089651094644866e-17,
    2.3611280778431382e-17, 2.595595772310894e-17, 2.8161735541977523e-17,
    3.0255041303213823e-17, 3.225508254836375e-17, 3.417632340185027e-17,
    3.6029969787344525e-17, 3.782490776869649e-17, 3.956832198097553e-17,
    4.1266117781759464e-17, 4.2923218084425256e-17, 4.4543777432823714e-17,
    4.613133981483186e-17, 4.768895725264636e-17, 4.921928043727963e-17,
    5.072462904503147e-17, 5.220704702792672e-17, 5.366834661718192e-17,
    5.511014372835095e-17, 5.653388673239667e-17, 5.794088004852767e-17,
    5.933230365208943e-17, 6.07092293284718e-17, 6.207263431163193e-17,
    6.342341280303077e-17, 6.476238575956142e-17, 6.609030925769405e-17,
    6.740788167872722e-17, 6.871574991183812e-17, 7.00145147340393e-17,
    7.130473549660643e-17, 7.258693422414648e-17, 7.386159921381792e-17,
    7.512918820723728e-17, 7.639013119550826e-17, 7.764483290797848e-17,
    7.88936750272979e-17, 8.013701816675454e-17, 8.137520364041762e-17,
    8.260855505210038e-17, 8.383737972539139e-17, 8.506196999385323e-17,
    8.628260436784113e-17, 8.749954859216183e-17, 8.871305660690252e-17,
    8.992337142215357e-17, 9.113072591597909e-17, 9.233534356381788e-17,
    9.353743910649129e-17, 9.47372191631295e-17, 9.593488279457997e-17,
    9.713062202221521e-17, 9.832462230649511e-17, 9.951706298915072e-17,
    1.0070811770242949e-16, 1.0189795474846941e-16, 1.030867374515422e-16,
    1.0427462448561886e-16, 1.0546177017945764e-16, 1.0664832480119147e-16,
    1.0783443482419485e-16, 1.0902024317583505e-16, 1.1020588947055781e-16,
    1.1139151022861975e-16, 1.1257723908165675e-16, 1.1376320696616847e-16,
    1.1494954230590093e-16, 1.1613637118402183e-16, 1.1732381750590458e-16,
    1.1851200315326694e-16, 1.1970104813034652e-16, 1.2089107070273855e-16,
    1.2208218752947062e-16, 1.2327451378884152e-16, 1.2446816329851125e-16,
    1.2566324863028985e-16, 1.2685988122003975e-16, 1.2805817147307494e-16,
    1.2925822886541196e-16, 1.3046016204120288e-16, 1.3166407890665726e-16,
    1.328700867207381e-16, 1.3407829218289994e-16, 1.3528880151811755e-16,
    1.3650172055943978e-16, 1.377171548282881e-16, 1.389352096127064e-16,
    1.4015599004375715e-16, 1.4137960117024852e-16, 1.4260614803196654e-16,
    1.4383573573157902e-16, 1.4506846950536877e-16, 1.4630445479294757e-16,
    1.4754379730609516e-16, 1.487866030968626e-16, 1.500329786250737e-16,
    1.5128303082535394e-16, 1.5253686717381255e-16, 1.537945957544997e-16,
    1.5505632532575771e-16, 1.5632216538658375e-16, 1.5759222624311761e-16,
    1.5886661907536842e-16, 1.6014545600429167e-16, 1.6142885015932787e-16,
    1.6271691574651305e-16, 1.640097681172718e-16, 1.653075238380037e-16,
    1.666103007605742e-16, 1.6791821809382289e-16, 1.6923139647620223e-16,
    1.7054995804966298e-16, 1.7187402653490317e-16, 1.7320372730810084e-16,
    1.745391874792534e-16, 1.7588053597224914e-16, 1.7722790360680065e-16,
    1.7858142318237326e-16, 1.7994122956424637e-16, 1.8130745977185016e-16,
    1.8268025306952523e-16, 1.8405975105985878e-16, 1.8544609777975695e-16,
    1.8683943979941927e-16, 1.882399263243892e-16, 1.8964770930086167e-16,
    1.9106294352443765e-16, 1.9248578675252438e-16, 1.9391639982058994e-16,
    1.9535494676249091e-16, 1.9680159493510374e-16, 1.982565151475019e-16,
    1.997198817949342e-16, 2.0119187299787347e-16, 2.0267267074641983e-16,
    2.0416246105035888e-16, 2.0566143409519179e-16, 2.071697844044737e-16,
    2.0868771100881597e-16, 2.1021541762192928e-16, 2.117531128241076e-16,
    2.133010102535779e-16, 2.1485932880616633e-16, 2.1642829284376047e-16,
    2.180081324120784e-16, 2.1959908346828707e-16, 2.212013881190496e-16,
    2.2281529486961805e-16, 2.2444105888463086e-16, 2.2607894226131737e-16,
    2.277292143158621e-16, 2.2939215188373114e-16, 2.3106803963482133e-16,
    2.3275717040435346e-16, 2.344598455404958e-16, 2.361763752697774e-16,
    2.3790707908142767e-16, 2.3965228613186235e-16, 2.4141233567062933e-16,
    2.431875774892256e-16, 2.44978372394307e-16, 2.4678509270692887e-16,
    2.4860812278958517e-16, 2.504478596029557e-16, 2.523047132944217e-16,
    2.541791078205812e-16, 2.560714816061771e-16, 2.579822882420531e-16,
    2.599119972249747e-16, 2.618610947423924e-16, 2.638300845054943e-16,
    2.658194886341845e-16, 2.678298485979525e-16, 2.698617262169489e-16,
    2.7191570472798185e-16, 2.739923899205815e-16, 2.760924113487617e-16,
    2.782164236246436e-16, 2.8036510780069835e-16, 2.825391728480253e-16,
    2.847393572388174e-16, 2.8696643064198177e-16, 2.8922119574179956e-16,
    2.915044901905293e-16, 2.9381718870700286e-16, 2.9616020533454657e-16,
    2.9853449587300453e-16, 3.009410605012618e-16, 3.0338094660850034e-16,
    3.058552518544861e-16, 3.08365127481531e-16, 3.1091178190342663e-16,
    3.134964845996663e-16, 3.1612057034671057e-16, 3.187854438219713e-16,
    3.2149258462067974e-16, 3.2424355273094516e-16, 3.2703999451822404e-16,
    3.298836492772283e-16, 3.3277635641716714e-16, 3.357200633553244e-16,
    3.387168342045505e-16, 3.417688593525637e-16, 3.448784660453424e-16,
    3.4804813010374423e-16, 3.5128048892229794e-16, 3.545783559224792e-16,
    3.5794473666042765e-16, 3.6138284682190606e-16, 3.6489613237645425e-16,
    3.6848829220956213e-16, 3.7216330360802073e-16, 3.7592545104162565e-16,
    3.7977935876688744e-16, 3.8373002787892137e-16, 3.8778287856078953e-16,
    3.919437984311429e-16, 3.962191980786775e-16, 4.0061607510565417e-16,
    4.051420882956573e-16, 4.0980564389030625e-16, 4.1461599642909046e-16,
    4.195833672073399e-16, 4.247190841824385e-16, 4.3003574816674707e-16,
    4.355474314693952e-16, 4.41269916903607e-16, 4.472209874259932e-16,
    4.534207798565834e-16, 4.598922204905932e-16, 4.666615664711476e-16,
    4.737590853262492e-16, 4.812199172829238e-16, 4.89085182739221e-16,
    4.97403423619194e-16, 5.06232507214416e-16, 5.156421828878083e-16,
    5.257175802022275e-16, 5.365640977112022e-16, 5.483144034258704e-16,
    5.61138745467516e-16, 5.752606481503332e-16, 5.909817641652103e-16,
    6.087231416180908e-16, 6.290979034877557e-16, 6.530492053564041e-16,
    6.821393079028929e-16, 7.192444966089362e-16, 7.706095350032097e-16,
    8.545517038584027e-16,
)
_ZIG_FE = (
    1.0, 0.9381436808621747, 0.9004699299257465,
    0.8717043323812036, 0.8477855006239896, 0.8269932966430503,
    0.8084216515230084, 0.7915276369724956, 0.7759568520401156,
    0.7614633888498963, 0.7478686219851951, 0.7350380924314235,
    0.722867659593572, 0.711274760805076, 0.7001926550827882,
    0.689566496117078, 0.6793505722647654, 0.6695063167319247,
    0.6600008410789997, 0.6508058334145711, 0.6418967164272661,
    0.6332519942143661, 0.624852738703666, 0.6166821809152077,
    0.608725382079622, 0.6009689663652322, 0.5934009016917334,
    0.586010318477268, 0.578787358602845, 0.5717230486648258,
    0.5648091929124002, 0.5580382822625874, 0.5514034165406413,
    0.5448982376724396, 0.5385168720028619, 0.5322538802630433,
    0.5261042139836197, 0.5200631773682336, 0.5141263938147486,
    0.5082897764106429, 0.5025495018413477, 0.49690198724154955,
    0.49134386959403253, 0.4858719873418849, 0.4804833639304542,
    0.4751751930373774, 0.46994482528396, 0.4647897562504262,
    0.4597076156421377, 0.4546961574746155, 0.449753251162755,
    0.4448768734145485, 0.4400651008423539, 0.4353161032156366,
    0.43062813728845883, 0.42599954114303434, 0.4214287289976166,
    0.4169141864330029, 0.4124544659971612, 0.4080481831520324,
    0.4036940125305303, 0.3993906844752311, 0.39513698183329016,
    0.3909317369847971, 0.38677382908413765, 0.38266218149600983,
    0.3785957594095808, 0.37457356761590216, 0.370594648435146,
    0.36665807978151416, 0.3627629733548178, 0.3589084729487498,
    0.35509375286678746, 0.35131801643748334, 0.347580494621637,
    0.3438804447045024, 0.34021714906678, 0.3365899140286776,
    0.332998068761809, 0.3294409642641363, 0.3259179723935562,
    0.32242848495608917, 0.31897191284495724, 0.31554768522712895,
    0.31215524877417955, 0.3087940669345602, 0.30546361924459026,
    0.3021634006756935, 0.2988929210155818, 0.2956517042812612,
    0.2924392881618926, 0.28925522348967775, 0.2860990737370768,
    0.28297041453878075, 0.2798688332369729, 0.27679392844851736,
    0.27374530965280297, 0.27072259679906, 0.2677254199320448,
    0.2647534188350622, 0.261806242689363, 0.25888354974901623,
    0.2559850070304154, 0.25311029001562946, 0.2502590823688623,
    0.24743107566532763, 0.2446259691318921, 0.24184346939887721,
    0.23908329026244918, 0.23634515245705964, 0.23362878343743335,
    0.2309339171696274, 0.2282602939307167, 0.22560766011668407,
    0.2229757680581202, 0.2203643758433595, 0.21777324714870053,
    0.21520215107537868, 0.21265086199297828, 0.21011915938898826,
    0.20760682772422204, 0.2051136562938377, 0.20263943909370902,
    0.20018397469191127, 0.19774706610509887, 0.19532852067956322,
    0.19292814997677135, 0.1905457696631954, 0.18818119940425432,
    0.1858342627621971, 0.18350478709776746, 0.1811926034754963,
    0.1788975465724783, 0.17661945459049488, 0.1743581691713535,
    0.17211353531532006, 0.16988540130252766, 0.1676736186172502,
    0.165478041874936, 0.16329852875190182, 0.16113493991759203,
    0.1589871389693142, 0.15685499236936523, 0.15473836938446808,
    0.15263714202744286, 0.1505511850010399, 0.1484803756438668,
    0.14642459387834494, 0.14438372216063478, 0.1423576454324722,
    0.14034625107486245, 0.1383494288635802, 0.13636707092642886,
    0.13439907170221363, 0.13244532790138752, 0.13050573846833077,
    0.12858020454522817, 0.12666862943751067, 0.12477091858083096,
    0.12288697950954514, 0.12101672182667483, 0.11916005717532768,
    0.11731689921155557, 0.11548716357863353, 0.11367076788274431,
    0.1118676316700563, 0.11007767640518538, 0.1083008254510338,
    0.10653700405000166, 0.10478613930657017, 0.10304816017125772,
    0.10132299742595363, 0.09961058367063713, 0.0979108533114922,
    0.0962237425504328, 0.09454918937605586, 0.09288713355604354,
    0.09123751663104016, 0.08960028191003286, 0.08797537446727022,
    0.08636274114075691, 0.08476233053236812, 0.08317409300963238,
    0.08159798070923742, 0.0800339475423199, 0.07848194920160642,
    0.0769419431704805, 0.07541388873405841, 0.07389774699236475,
    0.07239348087570874, 0.07090105516237183, 0.06942043649872875,
    0.0679515934219366, 0.06649449638533977, 0.06504911778675375,
    0.06361543199980733, 0.062193415408540995, 0.06078304644547963,
    0.059384305633420266, 0.05799717563120066, 0.05662164128374288,
    0.05525768967669704, 0.05390531019604609, 0.05256449459307169,
    0.05123523705512628, 0.04991753428270637, 0.0486113855733795,
    0.04731679291318155, 0.04603376107617517, 0.04476229773294328,
    0.04350241356888818, 0.042254122413316234, 0.04101744138041482,
    0.039792391023374125, 0.03857899550307486, 0.03737728277295936,
    0.03618728478193142, 0.03500903769739741, 0.03384258215087433,
    0.032687963508959535, 0.03154523217289361, 0.030414443910466604,
    0.029295660224637393, 0.028188948763978636, 0.0270943837809558,
    0.026012046645134217, 0.024942026419731783, 0.02388442051155817,
    0.02283933540638524, 0.02180688750428358, 0.020787204072578117,
    0.019780424338009743, 0.01878670074469603, 0.01780620041091136,
    0.016839106826039948, 0.015885621839973163, 0.014945968011691148,
    0.014020391403181938, 0.013109164931254991, 0.012212592426255381,
    0.011331013597834597, 0.010464810181029979, 0.00961441364250221,
    0.008780314985808975, 0.00796307743801704, 0.007163353183634984,
    0.006381905937319179, 0.005619642207205483, 0.004877655983542392,
    0.004157295120833795, 0.003460264777836904, 0.002788798793574076,
    0.0021459677437189063, 0.0015362997803015724, 0.0009672692823271745,
    0.00045413435384149677,
)
