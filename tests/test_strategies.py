"""Tests for the strategy demand IR (``repro.models.strategies``).

The IR's load-bearing invariants:

* validation — phases reject overlapping / mixed-width / sub-2 groups,
  profiles reject out-of-world ranks (planners trust these shapes);
* the Megatron rank layout — TP groups contiguous innermost, DP groups
  strided by ``t*p``;
* the legacy bridge — pure data-parallel with one fused bucket lowers
  to a single full-width phase whose payload is exactly
  ``gradient_bytes`` (the bit-for-bit parity anchor);
* byte conservation — a lowered profile's ``total_bytes`` equals the
  strategy's closed-form ``communication_bytes`` (gradients +
  activations + pipeline boundaries), property-tested across the
  strategy grid.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.models.catalog import MODELS, get_model
from repro.models.gradients import allreduce_message_sizes, gradient_bytes
from repro.models.strategies import (CADENCES, CollectivePhase,
                                     DemandProfile, ParallelStrategy,
                                     activation_width, enumerate_strategies,
                                     parse_strategy, strategy_profile)

ALEXNET = get_model("alexnet")


def phase(**kw):
    base = dict(name="ph", groups=((0, 1), (2, 3)), message_bytes=100.0)
    base.update(kw)
    return CollectivePhase(**base)


class TestCollectivePhase:
    def test_properties(self):
        ph = phase(count=3)
        assert ph.group_size == 2
        assert ph.num_groups == 2
        assert ph.participants == (0, 1, 2, 3)
        assert ph.total_bytes == 100.0 * 2 * 3
        assert not ph.is_full_width(5)
        assert ph.workload().data_bytes == 100.0

    def test_full_width(self):
        ph = phase(groups=((0, 1, 2, 3),))
        assert ph.is_full_width(4)
        assert not ph.is_full_width(5)

    @pytest.mark.parametrize("bad", [
        dict(groups=()),
        dict(groups=((0,),)),                 # sub-2 group
        dict(groups=((0, 1), (2, 3, 4))),     # mixed widths
        dict(groups=((0, 1), (1, 2))),        # overlapping ranks
        dict(groups=((0, -1),)),              # negative rank
        dict(message_bytes=0.0),
        dict(cadence="sometimes"),
        dict(count=0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ConfigurationError):
            phase(**bad)

    def test_cadences_are_the_valid_set(self):
        for cad in CADENCES:
            assert phase(cadence=cad).cadence == cad


class TestDemandProfile:
    def test_totals_and_shape(self):
        prof = DemandProfile(world=4, phases=(phase(), phase(name="q")))
        assert prof.num_phases == 2
        assert prof.total_bytes == 2 * 200.0
        assert not prof.is_single_full_width

    def test_single_full_width_roundtrip(self):
        prof = DemandProfile(
            world=4, phases=(phase(groups=((0, 1, 2, 3),)),), name="legacy")
        assert prof.is_single_full_width
        wl = prof.to_workload()
        assert wl.data_bytes == 100.0 and wl.name == "legacy"

    def test_to_workload_rejects_multi_phase(self):
        prof = DemandProfile(world=4, phases=(phase(), phase(name="q")))
        with pytest.raises(ConfigurationError):
            prof.to_workload()

    def test_rank_outside_world(self):
        with pytest.raises(ConfigurationError):
            DemandProfile(world=3, phases=(phase(),))


class TestRankLayout:
    def test_megatron_layout(self):
        s = ParallelStrategy(data_parallel=2, tensor_parallel=2,
                             pipeline_parallel=2)
        assert s.world == 8
        # rank = dp*(t*p) + pp*t + tp
        assert s.rank(1, 1, 1) == 1 * 4 + 1 * 2 + 1
        # TP groups are contiguous innermost runs.
        assert s.tensor_parallel_groups == (
            (0, 1), (2, 3), (4, 5), (6, 7))
        # DP groups stride by t*p.
        assert s.data_parallel_groups == (
            (0, 4), (1, 5), (2, 6), (3, 7))
        # Pipeline chains step by t.
        assert s.pipeline_chains == ((0, 2), (1, 3), (4, 6), (5, 7))

    def test_name(self):
        assert ParallelStrategy(data_parallel=4, tensor_parallel=2).name \
            == "dp4+tp2"
        assert ParallelStrategy(data_parallel=8).name == "dp8"

    def test_needs_two_ranks(self):
        with pytest.raises(ConfigurationError):
            ParallelStrategy()


class TestLowering:
    def test_pure_dp_fused_is_the_legacy_model(self):
        s = ParallelStrategy(data_parallel=8)
        prof = s.lower(ALEXNET, bucket_bytes=float("inf"))
        assert prof.is_single_full_width
        ph = prof.phases[0]
        assert ph.groups == (tuple(range(8)),)
        assert ph.message_bytes == float(gradient_bytes(ALEXNET))

    def test_dp_buckets_match_gradient_buckets(self):
        s = ParallelStrategy(data_parallel=4)
        prof = s.lower(ALEXNET)
        sizes = allreduce_message_sizes(ALEXNET)
        assert [ph.message_bytes for ph in prof.phases] == \
            [float(n) for n in sizes]

    def test_dp_shards_divide_by_model_parallel_degree(self):
        full = ParallelStrategy(data_parallel=4).lower(
            ALEXNET, bucket_bytes=float("inf"))
        sharded = ParallelStrategy(data_parallel=4, tensor_parallel=2).lower(
            ALEXNET, bucket_bytes=float("inf"))
        dp = [ph for ph in sharded.phases if ph.name.startswith("dp-")]
        assert len(dp) == 1
        assert dp[0].message_bytes == full.phases[0].message_bytes / 2

    def test_tp_phases_count_forward_and_backward(self):
        s = ParallelStrategy(data_parallel=2, tensor_parallel=2)
        prof = s.lower(ALEXNET)
        tp = [ph for ph in prof.phases if ph.name.startswith("tp-")]
        assert tp, "tensor parallelism must emit activation phases"
        n_layers = len(ALEXNET.parameterized_layers)
        assert sum(ph.count for ph in tp) == 2 * n_layers
        for ph in tp:
            assert ph.cadence == "per-layer"
            assert ph.groups == s.tensor_parallel_groups

    def test_pp_phases_bridge_adjacent_stages(self):
        s = ParallelStrategy(data_parallel=2, pipeline_parallel=2)
        prof = s.lower(ALEXNET, microbatches=4)
        pp = [ph for ph in prof.phases if ph.name.startswith("pp-")]
        assert len(pp) == 1  # p-1 cuts
        assert pp[0].count == 2 * 4
        assert pp[0].group_size == 2
        assert pp[0].cadence == "per-microbatch"

    def test_pipeline_deeper_than_model_rejected(self, monkeypatch):
        # The depth check must come before any rank group is built: a
        # million-stage pipeline would otherwise materialize a million
        # tuples first.
        def built_too_early(self):
            raise AssertionError("rank groups built before validation")

        for attr in ("tensor_parallel_groups", "pipeline_chains",
                     "data_parallel_groups"):
            monkeypatch.setattr(ParallelStrategy, attr,
                                property(built_too_early))
        deep = ParallelStrategy(pipeline_parallel=10 ** 6,
                                data_parallel=1, tensor_parallel=2)
        with pytest.raises(ConfigurationError):
            deep.lower(ALEXNET)

    def test_activation_width_rejects_widthless_layers(self):
        class Opaque:
            name = "opaque"
        with pytest.raises(ConfigurationError):
            activation_width(Opaque())


class TestParseAndEnumerate:
    def test_presets(self):
        assert parse_strategy("dp", world=8) == \
            ParallelStrategy(data_parallel=8)
        assert parse_strategy("tp", world=8) == \
            ParallelStrategy(tensor_parallel=8)
        bal = parse_strategy("dp+tp", world=8)
        assert bal.data_parallel * bal.tensor_parallel == 8
        assert bal.tensor_parallel == 2  # largest divisor <= sqrt(8)

    def test_explicit_spec(self):
        s = parse_strategy("dp4+tp2")
        assert (s.data_parallel, s.tensor_parallel) == (4, 2)
        assert parse_strategy("dp4+tp2", world=8) == s

    @pytest.mark.parametrize("spec,world", [
        ("dp", None),            # preset needs world
        ("dp+tp", 7),            # prime world has no balanced split
        ("dp4+tp2", 16),         # world mismatch
        ("dp4+dp2", None),       # repeated axis
        ("zz4", None),           # unknown axis
    ])
    def test_bad_specs(self, spec, world):
        with pytest.raises(ConfigurationError):
            parse_strategy(spec, world=world)

    def test_enumerate_leads_with_pure_dp(self):
        pool = enumerate_strategies(8)
        assert pool[0] == ParallelStrategy(data_parallel=8)
        assert all(s.world == 8 for s in pool)
        names = [s.name for s in pool]
        assert names == ["dp8", "tp8", "dp4+tp2", "dp2+tp4"]

    def test_max_tensor_caps_the_pool(self):
        names = [s.name for s in enumerate_strategies(16, max_tensor=4)]
        assert "tp16" not in names and "dp2+tp8" not in names
        assert "dp4+tp4" in names

    def test_strategy_profile_convenience(self):
        prof = strategy_profile("alexnet", "dp", world=4,
                                bucket_bytes=float("inf"))
        assert prof.is_single_full_width
        assert prof.world == 4


class TestByteConservation:
    """The satellite invariant: lowered bytes == closed-form bytes."""

    @settings(max_examples=60, deadline=None)
    @given(model=st.sampled_from(sorted(MODELS)),
           d=st.sampled_from([1, 2, 3, 4, 8]),
           t=st.sampled_from([1, 2, 4]),
           p=st.sampled_from([1, 2, 4]),
           batch=st.integers(1, 64),
           bucket_mb=st.sampled_from([1, 25, 1000, float("inf")]),
           micro=st.integers(1, 8))
    def test_lowered_profile_conserves_bytes(self, model, d, t, p, batch,
                                             bucket_mb, micro):
        if d * t * p < 2:
            return
        strat = ParallelStrategy(data_parallel=d, tensor_parallel=t,
                                 pipeline_parallel=p)
        m = get_model(model)
        kwargs = dict(batch_size=batch, microbatches=micro,
                      bucket_bytes=bucket_mb * 2 ** 20
                      if bucket_mb != float("inf") else float("inf"))
        try:
            prof = strat.lower(m, **kwargs)
        except ConfigurationError:
            # pipeline degree deeper than the model: a valid rejection.
            assert p > len(m.parameterized_layers)
            return
        expect = strat.communication_bytes(m, batch_size=batch)
        assert math.isclose(prof.total_bytes, expect, rel_tol=1e-9)

    def test_phase_order_follows_a_training_step(self):
        s = ParallelStrategy(data_parallel=2, tensor_parallel=2,
                             pipeline_parallel=2)
        prof = s.lower(get_model("vgg16"))
        kinds = [ph.name.split("-")[0] for ph in prof.phases]
        # tp phases, then pp cuts, then dp buckets — never interleaved.
        assert kinds == sorted(kinds, key=("tp", "pp", "dp").index)
