"""Tests for the in-memory cache primitives."""

from repro.caching import LruCache


class TestLruCacheAdmission:
    def test_over_bound_values_are_skipped(self):
        c = LruCache(8, admit_cost_bound=2)
        assert c.put("small", 1, cost=2) is True
        assert c.put("big", 2, cost=3) is False
        assert len(c) == 1 and c.skipped == 1
        assert c.get("big") is None  # never stored

    def test_no_bound_admits_everything(self):
        c = LruCache(8)
        assert c.put("x", 1, cost=10 ** 9) is True
        assert c.skipped == 0

    def test_costless_puts_bypass_the_policy(self):
        c = LruCache(8, admit_cost_bound=1)
        assert c.put("x", 1) is True  # no cost declared
        assert c.skipped == 0

    def test_clear_resets_skipped(self):
        c = LruCache(8, admit_cost_bound=1)
        c.put("big", 1, cost=5)
        assert c.skipped == 1
        c.clear()
        assert c.skipped == 0

    def test_stats_carry_skipped(self):
        c = LruCache(8, admit_cost_bound=1)
        c.put("big", 1, cost=5)
        assert c.stats().skipped == 1

