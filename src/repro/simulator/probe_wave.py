"""Struct-of-arrays view of one coalesced probe run (the "wave view").

A *run* is every probe a link delivers at one arrival tick.  The engine's
batch lane already coalesces those deliveries under one heap entry, one
member per probe (multicasts interleave links, so a link's run is scattered
through the entry); the link therefore accumulates the run **at enqueue
time** into one :class:`ProbeWave` and hands it to the receiving switch
alongside every probe delivery.  The wave turns the run into parallel numpy
columns — ``tag``, ``origin_id``, ``pid``, ``version`` plus an N×M metrics
matrix — so a vectorizing routing logic (Contra) can judge the whole run with
array passes at its first probe, instead of N per-payload attribute reads
scattered through a branchy loop.

Ordering contract: deliveries still fire one by one in exact FIFO
registration order; the wave only changes what a delivery can *see* (the
whole run) and carries the judging verdicts between deliveries:

* ``dead`` — per-probe drop mask written by the receiving logic after
  judging.  A flagged probe is one whose processing is provably a no-op, so
  the link skips its delivery outright.  ``None`` until judged.
* ``cond_dead`` / ``guard_link`` / ``guard_value`` — conditionally dead
  probes: no-ops **while** the guard link's congestion is at least the
  value the receiver's metric fold used (the receiver proves the verdict
  monotone in congestion).  The link skips them under the same check; if the
  guard fails the probe is delivered and the receiver re-decides.
* ``scalar`` — the receiving logic declined to judge this run (ineligible
  payloads, below the vectorization threshold); every probe is then
  delivered and processed plainly, exactly as if no wave existed.
* ``cursor`` — position bookkeeping: probes arrive in the same FIFO order the
  run was accumulated in, so the link counts its deliveries here and, once
  the run is judged, reads each probe's mask bits at its count.

Layering: this is simulator-level code, so it reads the probe payloads
duck-typed (``tag``/``origin_id``/``pid``/``version``/``metrics`` slots of
:class:`~repro.protocol.probe.ProbePayload`) and never imports the protocol
package.  The columns are built **once per run**, lazily, on first request:
runs below the vectorization threshold, or handled by a scalar logic, never
pay for the build.

A wave can be *ineligible* for column form — a payload without an interned
``origin_id``, a metrics vector with unexpected attribute names, or no numpy
at all.  ``columns()`` then returns None and the caller falls back to the
per-packet scalar path; eligibility is a performance property, never a
correctness one.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.nputil import np

__all__ = ["ProbeWave"]

#: Column indices into the integer matrix returned by ``columns()``.
COL_TAG = 0
COL_ORIGIN = 1
COL_PID = 2
COL_VERSION = 3


class ProbeWave:
    """One same-(link, tick) probe run, with lazily built SoA columns."""

    __slots__ = ("packets", "dead", "cond_dead", "guard_link", "guard_value",
                 "scalar", "cursor", "_built", "_ints", "_metrics")

    def __init__(self, packets: Optional[List] = None):
        #: The run's packets in FIFO (enqueue == delivery) order.  The link
        #: appends to this list while the run accumulates; it is complete
        #: before its first probe fires (probe flight times are positive).
        self.packets: List = [] if packets is None else packets
        self.dead: Optional[List[bool]] = None
        self.cond_dead: Optional[List[bool]] = None
        self.guard_link = None
        self.guard_value = 0.0
        self.scalar = False
        self.cursor = 0
        self._built = False
        self._ints = None
        self._metrics = None

    def __len__(self) -> int:
        return len(self.packets)

    def columns(self, expected_names: Tuple[str, ...]):
        """``(ints, metrics)`` column form of the run, or None if ineligible.

        ``ints`` is an N×4 int64 matrix of (tag, origin_id, pid, version) and
        ``metrics`` an N×M float64 matrix of the carried metric vectors, rows
        in exact FIFO order.  ``expected_names`` pins the metric layout: every
        payload must carry exactly those attribute names (a run mixing
        layouts cannot be a rectangular matrix, and folding a column under
        the wrong attribute op would corrupt the reject decision).  Built at
        most once; the result is cached on the wave.
        """
        if not self._built:
            self._built = True
            if np is not None and self.packets:
                self._build(expected_names)
        if self._ints is None:
            return None
        return self._ints, self._metrics

    def _build(self, expected_names: Tuple[str, ...]) -> None:
        packets = self.packets
        n = len(packets)
        width = 4 + len(expected_names)
        rows = []
        append = rows.append
        try:
            for packet in packets:
                payload = packet.probe
                vector = payload.metrics
                names = vector.names
                if names is not expected_names and names != expected_names:
                    return              # mixed metric layouts in one wave
                row = payload.row
                if row is None:
                    # Built once per payload (a non-numeric field is a hard
                    # error here, making the wave ineligible); the multicast
                    # fan-out then reuses the bytes at every other receiving
                    # link.
                    row = payload.row = np.array(
                        (payload.tag, payload.origin_id, payload.pid,
                         payload.version) + vector.values,
                        dtype=np.float64).tobytes()
                append(row)
            # ``reshape`` makes a row of the wrong width (a foreign metric
            # layout that happens to hash-match ``expected_names``... or a
            # payload whose cached row predates a layout change) a hard
            # error instead of a silently misaligned matrix.
            matrix = np.frombuffer(b"".join(rows), dtype=np.float64) \
                .reshape(n, width)
        except (TypeError, ValueError, AttributeError):
            return
        if np.isnan(matrix).any():
            # numpy quietly converts ``None`` to nan (an uninterned
            # ``origin_id``), and nan metrics would fold under IEEE rules
            # that differ from Python's ``max`` tie-breaking — both make
            # the wave ineligible rather than silently misjudged.
            return
        # The int columns are exact: tags/ids/pids/versions are small
        # integers, far inside float64's 2**53 exact range.
        self._ints = matrix[:, :4].astype(np.int64)
        self._metrics = matrix[:, 4:]
