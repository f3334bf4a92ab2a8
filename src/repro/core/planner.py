"""The Wrht planner: choose the group size ``m`` (and shortcut variant).

The paper treats ``m`` as a free parameter bounded by the wavelength
budget (``⌊m/2⌋ ≤ w``) and picks the value minimising communication
time.  The planner makes that concrete: it sweeps every feasible ``m``
and three all-to-all variants, costs each candidate with the analytic
model (which the tests pin to the full simulator), and returns the best
plan.

Variants swept per ``m``:

* ``"paper"``      — fire the all-to-all as soon as ``⌈p²/8⌉ ≤ w``
  (the §2 prose, optimal when striping is unavailable);
* ``"last-level"`` — all-to-all only among ``p ≤ m`` survivors (the
  ``m*`` reading; usually optimal *with* striping, because an early
  wide all-to-all throttles striping);
* ``"tree"``       — no shortcut (pure ``2⌈log_m N⌉`` tree).

Fidelities: ``"analytic"`` (closed form), ``"simulate"`` (execute every
candidate on the substrate), and ``"hybrid"`` (analytic pruning, then
simulate the top-``k`` candidates — near-simulate accuracy at a small
fraction of the cost).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

from ..collectives.schedule import Schedule
from ..collectives.wrht import (WrhtParameters, WrhtScheduleInfo,
                                generate_wrht)
from ..config import OpticalRingSystem, Workload
from ..errors import PlanningError
from .cost_model import wrht_candidate_costs, wrht_time

if TYPE_CHECKING:
    from .substrates.optical_ring import OpticalRingSubstrate

VARIANTS = ("paper", "last-level", "tree")


@dataclass(frozen=True)
class WrhtPlan:
    """A planned Wrht configuration with its predicted time."""

    params: WrhtParameters
    variant: str
    schedule: Schedule
    info: WrhtScheduleInfo
    predicted_time: float

    @property
    def group_size(self) -> int:
        """The chosen ``m``."""
        return self.params.group_size

    @property
    def num_steps(self) -> int:
        """Steps of the planned schedule."""
        return self.schedule.num_steps


def _variant_params(num_nodes: int, m: int, w: int,
                    variant: str) -> WrhtParameters:
    if variant == "paper":
        return WrhtParameters(num_nodes=num_nodes, group_size=m,
                              num_wavelengths=w)
    if variant == "last-level":
        return WrhtParameters(num_nodes=num_nodes, group_size=m,
                              num_wavelengths=w, alltoall_threshold=m)
    if variant == "tree":
        return WrhtParameters(num_nodes=num_nodes, group_size=m,
                              num_wavelengths=w,
                              allow_alltoall_shortcut=False)
    raise PlanningError(f"unknown variant {variant!r}")


def feasible_group_sizes(num_nodes: int, num_wavelengths: int) -> List[int]:
    """Every ``m`` with ``2 ≤ m ≤ N`` and ``⌊m/2⌋ ≤ w``."""
    upper = min(num_nodes, 2 * num_wavelengths + 1)
    return list(range(2, max(upper, 2) + 1))


def default_group_sizes(num_nodes: int, num_wavelengths: int) -> List[int]:
    """The planner's default sweep: dense for small ``m``, geometric above.

    Communication time is piecewise in ``m`` (it only changes where
    ``⌈log_m N⌉`` or ``⌊w/⌊m/2⌋⌋`` change), so sweeping every integer up
    to ``2w+1`` wastes work; small ``m`` (where the optimum almost always
    lives under striping) is covered densely, large ``m`` geometrically
    plus both boundary values.  Pass ``group_sizes`` explicitly to
    override (EXT-A2 sweeps everything).
    """
    upper = min(num_nodes, 2 * num_wavelengths + 1)
    dense = list(range(2, min(upper, 17) + 1))
    sparse = []
    v = 24
    while v < upper:
        sparse.append(v)
        v = v * 3 // 2
    boundary = [x for x in (num_wavelengths + 1, upper) if x >= 2]
    return sorted({m for m in dense + sparse + boundary if 2 <= m <= upper})


def plan_wrht(system: OpticalRingSystem, workload: Workload,
              group_sizes: Optional[Iterable[int]] = None,
              variants: Tuple[str, ...] = VARIANTS,
              fidelity: str = "analytic",
              substrate: Optional[OpticalRingSubstrate] = None,
              top_k: int = 4) -> WrhtPlan:
    """Pick the best Wrht configuration for ``system`` + ``workload``.

    ``fidelity="analytic"`` (default) costs each candidate with the
    closed-form model; ``fidelity="simulate"`` executes every candidate
    schedule on an
    :class:`~repro.core.substrates.optical_ring.OpticalRingSubstrate`
    (pass ``substrate`` to reuse a warm one — the ``m x variant`` sweep
    re-poses many identical per-step RWA subproblems, so its memoization
    cache does most of the work); ``fidelity="hybrid"`` prunes with the
    analytic model and simulates only the ``top_k`` analytically-ranked
    candidates — the analytic model is pinned to the simulator by the
    test suite, so the true optimum survives a small-``k`` cut while
    most of the simulation cost disappears.

    The analytic ranking prices step summaries derived from each
    candidate's level structure and memoized per process
    (:func:`~repro.core.cost_model.wrht_candidate_costs`), so ranking
    builds no schedule, and planning a ring size again, for another
    payload or rate, only re-prices.  Only the winner (hybrid: the
    ``top_k``) is generated, and the analytic winner is priced again
    from its schedule.

    Ties break toward fewer steps, then smaller ``m`` (deterministic).
    Raises :class:`PlanningError` if nothing is feasible (cannot happen
    for ``w ≥ 1, N ≥ 2`` but guards misuse).
    """
    if fidelity not in ("analytic", "simulate", "hybrid"):
        raise PlanningError(
            f"fidelity must be 'analytic', 'simulate' or 'hybrid', "
            f"got {fidelity!r}")
    if not system.bidirectional:
        raise PlanningError(
            "Wrht grouping requires a bidirectional ring (members on both "
            "sides of a representative send toward it)")
    if fidelity == "hybrid" and top_k < 1:
        raise PlanningError(f"hybrid top_k must be >= 1, got {top_k}")
    n = system.num_nodes
    w = system.num_wavelengths
    sizes = (list(group_sizes) if group_sizes is not None
             else default_group_sizes(n, w))
    candidates = [(variant, _variant_params(n, m, w, variant))
                  for m in sizes if m >= 2 and m // 2 <= w
                  for variant in variants]
    if not candidates:
        raise PlanningError(
            f"no feasible Wrht configuration for N={n}, w={w}")
    if fidelity == "analytic":
        variant, params = _ranked(system, workload, candidates)[0]
        total, schedule, info = wrht_time(system, workload, params)
        return WrhtPlan(params=params, variant=variant, schedule=schedule,
                        info=info, predicted_time=total)
    if substrate is None:
        # Only the simulating fidelities load the substrate.
        from .substrates.optical_ring import OpticalRingSubstrate
        substrate = OpticalRingSubstrate(system)
    if fidelity == "hybrid":
        candidates = _ranked(system, workload, candidates)[:top_k]
    best: Optional[WrhtPlan] = None
    for variant, params in candidates:
        schedule, info = generate_wrht(params)
        plan = WrhtPlan(
            params=params, variant=variant, schedule=schedule, info=info,
            predicted_time=substrate.execute(schedule, workload).total_time)
        if best is None or _plan_key(plan) < _plan_key(best):
            best = plan
    return best


def _ranked(system: OpticalRingSystem, workload: Workload,
            candidates: List[Tuple[str, WrhtParameters]],
            ) -> List[Tuple[str, WrhtParameters]]:
    """``candidates`` best first by analytic (time, steps, m), priced from
    the memoized step summaries; the sort is stable, so ties keep sweep
    order."""
    costs = wrht_candidate_costs(system, workload,
                                 [params for _, params in candidates])
    keys = [(cost.total_time, len(cost.step_times), params.group_size)
            for (_, params), cost in zip(candidates, costs)]
    order = sorted(range(len(candidates)), key=keys.__getitem__)
    return [candidates[i] for i in order]


def _plan_key(plan: WrhtPlan) -> Tuple[float, int, int]:
    return (plan.predicted_time, plan.num_steps, plan.group_size)


def plan_table(system: OpticalRingSystem, workload: Workload,
               group_sizes: Optional[Iterable[int]] = None,
               variant: str = "last-level",
               ) -> List[Tuple[int, int, float]]:
    """(m, steps, predicted time) for each candidate — the EXT-A2 sweep."""
    n, w = system.num_nodes, system.num_wavelengths
    candidates = (list(group_sizes) if group_sizes is not None
                  else feasible_group_sizes(n, w))
    params = [_variant_params(n, m, w, variant)
              for m in candidates if m >= 2 and m // 2 <= w]
    return [(p.group_size, len(cost.step_times), cost.total_time)
            for p, cost in zip(params, wrht_candidate_costs(
                system, workload, params))]
