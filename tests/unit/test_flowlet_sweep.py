"""Lazy flowlet-table sweeping: memory bound without behavioural change."""

from repro.protocol.tables import FlowletTable

HIGH_WATER = FlowletTable.SWEEP_HIGH_WATER


def fill(table: FlowletTable, count: int, now: float) -> None:
    for index in range(count):
        table.install(f"d{index}", 0, 0, index % table.slots, "hop", 0, now)


def live(table: FlowletTable, now: float):
    """The entries the pin step would still follow at ``now``."""
    return {key: (entry.next_hop, entry.next_tag, entry.last_seen)
            for key, entry in table._entries.items()
            if now - entry.last_seen <= table.timeout}


class TestHighWaterSweep:
    def test_sweep_reclaims_only_expired_entries(self):
        table = FlowletTable(timeout=0.5, slots=64)
        fill(table, HIGH_WATER, now=0.0)        # these expire at t > 0.5
        assert len(table) == HIGH_WATER
        # The next install reaches the high-water mark at a time where every
        # earlier entry is expired: all are swept, the new entry survives.
        table.install("fresh", 0, 0, 1, "hop", 0, 1.0)
        assert len(table) == 1
        assert table.swept_entries == HIGH_WATER
        assert list(live(table, 1.0)) == [("fresh", 0, 0, 1)]

    def test_sweep_keeps_live_entries(self):
        table = FlowletTable(timeout=10.0, slots=64)
        fill(table, HIGH_WATER, now=0.0)
        table.install("fresh", 0, 0, 1, "hop", 0, 1.0)
        assert len(table) == HIGH_WATER + 1     # nothing expired: nothing swept
        assert table.swept_entries == 0

    def test_threshold_grows_with_the_live_set(self):
        # A sweep that reclaims nothing must raise the threshold (amortized
        # O(1) per install), not rescan on every subsequent install.
        table = FlowletTable(timeout=10.0, slots=1024)
        fill(table, 3 * HIGH_WATER, now=0.0)
        assert table._sweep_at >= 2 * (HIGH_WATER + 1)  # 2x the surviving live set

    def test_sweeping_keeps_every_live_entry(self):
        # The sweep may only remove entries the pin step would already refuse
        # to follow, so at every step of a time-ordered run of installs (the
        # only access pattern a simulation produces — the clock never runs
        # backwards) the table's live entries are exactly those of an
        # unswept reference.
        table = FlowletTable(timeout=0.5, slots=64)
        reference = {}
        for step in range(3 * HIGH_WATER):
            now = 0.001 * step
            key = (f"d{step % 701}", step % 3, 0, step % 7)
            table.install(*key, f"hop{key[3]}", key[1], now)
            reference[key] = (f"hop{key[3]}", key[1], now)
            if step % 97 == 0:
                assert live(table, now) == {
                    k: v for k, v in reference.items() if now - v[2] <= 0.5}, step
        assert table.swept_entries > 0
