"""The OCS closed forms against the simulated OCS substrate.

The strategy co-planner prunes OCS candidates with
:func:`~repro.core.cost_model.profile_ocs_bound` and simulates only the
survivors (``fidelity="hybrid"``).  That is sound only while the bound
never exceeds what the substrate simulates, and it is useful only while
the pruned search still finds the simulated winner.  Both facts are
pinned here over N in {8, 16} and the paper's four models, from outside
the planner's internals: every simulated OCS cell (324 of them) and
every hybrid winner (8).
"""

import pytest

from repro.analysis.figure2 import PAPER_MODELS
from repro.config import default_ocs
from repro.core.cost_model import profile_ocs_bound
from repro.core.topoplan import plan_strategy, strategy_plan_table

POINTS = [(n, model) for n in (8, 16) for model in PAPER_MODELS]

#: A cell can meet the bound exactly in real arithmetic (the tightest
#: one, resnet50 tp16 ring on the static N=16 fabric, does), and then
#: rounding decides the last bits: the substrate adds up 6,420 step
#: times one by one, the bound sums them per phase in closed form.  The
#: lowest simulated/bound ratio on this grid is 0.9999999999999433
#: (5.7e-14 below 1); the tolerance allows under 2x that.
BOUND_RTOL = 1e-13


def test_simulated_ocs_cells_respect_the_bound():
    rows = 0
    for n, model in POINTS:
        system = default_ocs(n)
        for plan in strategy_plan_table(n, model, fidelity="simulate"):
            if plan.fabric != "ocs-reconfig":
                continue
            rows += 1
            bound = profile_ocs_bound(system, plan.profile, plan.algorithm)
            assert plan.predicted_time >= bound * (1 - BOUND_RTOL), \
                (n, model, plan.label, plan.predicted_time, bound)
    assert rows == 324


@pytest.mark.parametrize("n,model", POINTS)
def test_hybrid_finds_the_simulated_winner(n, model):
    simulated = plan_strategy(n, model, fidelity="simulate")
    hybrid = plan_strategy(n, model, fidelity="hybrid")
    assert hybrid.label == simulated.label
    assert hybrid.predicted_time == simulated.predicted_time
