"""Parity suite for the delta-aware demand decomposition.

:class:`~repro.topology.program.DecompositionDelta` must be an exact
computational shortcut: every ``solve`` returns **bit-for-bit** the
rounds a cold :func:`~repro.topology.program.decompose_demand` would —
whether the call patched the previous solve or fell back — so caching
its results is as pure as caching cold ones.  Hypothesis drives random
churn chains (append/truncate/replace) through both algorithms — the
size limit that picks one is patched to 0 (all greedy), to 5 (chains
flip between the two) or left as is (all optimal on these sizes) —
pins the ``ceil(Δ/ports)`` optimality bound under churn, and forces
the fallback conditions (port-budget change, algorithm change,
no-shared-prefix) explicitly.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.topology.program as ocs_program
from repro.errors import TopologyError
from repro.topology.program import (OPTIMAL_DECOMPOSITION_LIMIT,
                                    DecompositionDelta, decompose_demand,
                                    greedy_demand_rounds, max_pair_degree,
                                    optimal_demand_rounds)

#: Size limits to run the chains under (see the module docstring).
LIMITS = st.sampled_from([OPTIMAL_DECOMPOSITION_LIMIT, 5, 0])


def _limit(value):
    """Patch the size limit below which decomposition is optimal."""
    return mock.patch.object(ocs_program, "OPTIMAL_DECOMPOSITION_LIMIT",
                             value)


def _pairs_strategy(n=8, max_len=14):
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    return st.lists(pair, max_size=max_len, unique=True)


#: One churn chain: a sequence of (pairs, ports) demand snapshots.
_chain = st.lists(
    st.tuples(_pairs_strategy(), st.integers(1, 3)),
    min_size=1, max_size=12)


class TestChurnParity:
    @settings(max_examples=120, deadline=None)
    @given(chain=_chain, limit=LIMITS)
    def test_solve_equals_cold_decompose(self, chain, limit):
        """Every link of a churn chain is bit-for-bit the cold solve."""
        delta = DecompositionDelta()
        with _limit(limit):
            for pairs, ports in chain:
                got = delta.solve(pairs, ports)
                assert got == decompose_demand(tuple(pairs), ports)

    @settings(max_examples=80, deadline=None)
    @given(chain=_chain)
    def test_optimal_bound_preserved_under_churn(self, chain):
        """Patched solves still meet the ``ceil(Δ/ports)`` bound."""
        delta = DecompositionDelta()
        for pairs, ports in chain:
            rounds = delta.solve(pairs, ports)
            if pairs:
                degree = max_pair_degree(pairs)
                assert len(rounds) == -(-degree // ports)
            else:
                assert rounds == []

    @settings(max_examples=60, deadline=None)
    @given(base=_pairs_strategy(), suffix=_pairs_strategy(max_len=6),
           keep=st.integers(0, 14), ports=st.integers(1, 3),
           limit=st.sampled_from([OPTIMAL_DECOMPOSITION_LIMIT, 0]))
    def test_prefix_churn_is_exact(self, base, suffix, keep, ports, limit):
        """Tail-only churn — the patch's home turf — stays exact."""
        delta = DecompositionDelta()
        with _limit(limit):
            delta.solve(base, ports)
            new = base[:keep] + [p for p in suffix if p not in base[:keep]]
            got = delta.solve(new, ports)
            assert got == decompose_demand(tuple(new), ports)


class TestCountersAndFallbacks:
    BASE = [(0, 1), (2, 3), (4, 5), (0, 2)]

    def test_first_solve_counts_neither(self):
        delta = DecompositionDelta()
        delta.solve(self.BASE, 2)
        assert delta.patched == 0
        assert delta.fallbacks == 0

    def test_identical_resolve_patches(self):
        delta = DecompositionDelta()
        delta.solve(self.BASE, 2)
        again = delta.solve(self.BASE, 2)
        assert delta.patched == 1 and delta.fallbacks == 0
        assert again == decompose_demand(tuple(self.BASE), 2)

    def test_tail_churn_patches(self):
        delta = DecompositionDelta()
        delta.solve(self.BASE, 2)
        new = self.BASE[:3] + [(1, 3), (5, 6)]
        got = delta.solve(new, 2)
        assert delta.patched == 1
        assert got == decompose_demand(tuple(new), 2)

    def test_port_budget_change_forces_fallback(self):
        delta = DecompositionDelta()
        delta.solve(self.BASE, 2)
        got = delta.solve(self.BASE, 1)
        assert delta.fallbacks == 1 and delta.patched == 0
        assert got == decompose_demand(tuple(self.BASE), 1)

    def test_resolved_mode_change_forces_fallback(self):
        """The same pairs on the other side of the size limit."""
        delta = DecompositionDelta()
        delta.solve(self.BASE, 2)
        with _limit(len(self.BASE) - 1):
            got = delta.solve(self.BASE, 2)
        assert delta.fallbacks == 1
        assert got == greedy_demand_rounds(self.BASE, 2)

    def test_no_shared_prefix_forces_fallback(self):
        delta = DecompositionDelta()
        delta.solve(self.BASE, 2)
        flipped = list(reversed(self.BASE))
        got = delta.solve(flipped, 2)
        assert delta.fallbacks == 1
        assert got == decompose_demand(tuple(flipped), 2)

    def test_bad_inputs_rejected(self):
        delta = DecompositionDelta()
        with pytest.raises(TopologyError):
            delta.solve(self.BASE, 0)


class TestModeResolution:
    #: First-fit needs 3 rounds here; the degree bound (and König) 2.
    ADVERSARIAL = ((5, 1), (5, 2), (4, 5), (4, 2))

    def test_auto_threshold(self):
        """Optimal up to the size limit, greedy beyond it."""
        pairs = self.ADVERSARIAL
        greedy = greedy_demand_rounds(pairs, 1)
        optimal = optimal_demand_rounds(pairs, 1)
        assert len(greedy) > len(optimal) == max_pair_degree(pairs)
        assert decompose_demand(pairs, 1) == optimal
        with _limit(len(pairs)):
            assert decompose_demand(pairs, 1) == optimal
        with _limit(len(pairs) - 1):
            assert decompose_demand(pairs, 1) == greedy
