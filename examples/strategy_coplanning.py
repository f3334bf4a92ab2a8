#!/usr/bin/env python3
"""Strategy co-planning: parallelization x fabric, searched jointly.

Three demos on the strategy demand IR:

1. **Lowering** — a ``ParallelStrategy`` (data x tensor x pipeline
   split, Megatron rank layout) lowers over a catalog model to a
   ``DemandProfile``: ordered ``CollectivePhase``s naming participant
   rank groups, per-group message size, and cadence.
2. **Co-planning** — ``strategy_plan_table`` prices every (strategy x
   rack size x leader x collective x policy) cell; ``plan_strategy``
   returns the searched best.  The headline: ``dp4+tp4`` moves ~5x
   fewer gradient bytes than pure DP but its strided groups are
   congested on a static ring — only a reconfiguring OCS (lookahead
   program installing the strided circuits once) converts the byte
   reduction into wall-clock.
3. **Parity** — the uniform data-parallel strategy is the legacy
   single-workload model: its ``strategy_plan_table`` cells equal
   ``plan_topology``'s, bit for bit.

Run:  python examples/strategy_coplanning.py
"""

from repro import units
from repro.config import default_ocs
from repro.core.topoplan import (plan_strategy, plan_topology,
                                 strategy_plan_table)
from repro.models.catalog import get_model
from repro.models.strategies import ParallelStrategy, enumerate_strategies

NODES = 16
MODEL = "alexnet"


def main() -> None:
    model = get_model(MODEL)

    # 1. Lowering: what traffic does dp4+tp4 actually inject?
    strat = ParallelStrategy(data_parallel=4, tensor_parallel=4)
    profile = strat.lower(model)
    print(f"{strat.name} on {MODEL} lowers to {profile.num_phases} "
          f"phases, {units.fmt_bytes(profile.total_bytes)}/step:")
    for ph in profile.phases[:4]:
        print(f"  {ph.name:<14} {ph.num_groups} groups x "
              f"{units.fmt_bytes(ph.message_bytes)} x{ph.count} "
              f"({ph.cadence})")
    if profile.num_phases > 4:
        print(f"  ... and {profile.num_phases - 4} more")
    print()

    # 2. Co-planning: the headline dp-vs-tp search (tensor degree
    # capped at 4 — the compute-side limit on intra-layer splitting).
    pool = enumerate_strategies(NODES, max_tensor=4)
    table = strategy_plan_table(NODES, MODEL, strategies=pool,
                                rack_sizes=(), fidelity="simulate")
    static = min((p for p in table if p.policy == "static"),
                 key=lambda p: p.predicted_time)
    best = min(table, key=lambda p: p.predicted_time)
    print(f"co-planning {len(pool)} strategies at N={NODES}:")
    print(f"  best fixed topology : {static.label:<42} "
          f"{units.fmt_time(static.predicted_time)}")
    print(f"  co-planned          : {best.label:<42} "
          f"{units.fmt_time(best.predicted_time)}")
    print(f"  -> {static.predicted_time / best.predicted_time:.2f}x "
          f"from reconfiguring around the sharded strategy")
    print()

    # 3. Parity: pure DP with one fused bucket IS the legacy model.
    dp = ParallelStrategy(data_parallel=NODES)
    cells = strategy_plan_table(NODES, MODEL, strategies=[dp],
                                rack_sizes=(), fidelity="simulate",
                                bucket_bytes=float("inf"))
    wl = dp.lower(model, bucket_bytes=float("inf")).to_workload()
    legacy = plan_topology(default_ocs(NODES), wl)
    viaprof = next(p for p in cells
                   if (p.algorithm, p.policy)
                   == (legacy.algorithm, legacy.policy))
    assert viaprof.predicted_time == legacy.predicted_time
    assert viaprof.report == legacy.report
    print(f"uniform-DP parity: strategy table == plan_topology "
          f"({legacy.algorithm}/{legacy.policy}, "
          f"{units.fmt_time(legacy.predicted_time)}) — bit for bit")

    searched = plan_strategy(NODES, MODEL, strategies=pool, rack_sizes=())
    print(f"plan_strategy picks: {searched.label} "
          f"({units.fmt_time(searched.predicted_time)})")


if __name__ == "__main__":
    main()
