"""Inter-job contention through the shared fluid engine.

Concurrent jobs do not time-slice the fabric — their transfers coexist
on it.  The contention model makes that literal: every running job
contributes its *representative flows* (the transfers of its heaviest
schedule step, re-based to its placement) and all of them are solved as
**one** :meth:`~repro.simulation.fluid.FluidNetworkSimulator.
step_profile` batch.  Max-min fair sharing on the shared links then
yields, per job, the ratio of its contended finish time to its solo
finish time — the *slowdown* the serving engine stretches that job's
step time by for as long as the concurrency set holds.

Each job's solo makespan is memoized on the model, keyed by its flow
tuple: a running job's flows never change, and ``step_profile`` gives
the same answer on a pattern-cache hit or miss, so an epoch solves only
its combined batch.  That batch goes through the fluid engine's pattern
cache, so epochs that repeat a concurrency set (steady state under a
stationary arrival process) cost a cache lookup, not a solve.

A lone job's combined batch *is* its solo batch, so its slowdown is
exactly 1.0 — single-job serving runs reproduce standalone execution
bit for bit.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..config import (ElectricalSystem, HierarchicalSystem,
                      OpticalRingSystem, OpticalTorusSystem)
from ..simulation.fluid import FluidNetworkSimulator
from ..topology.base import Topology
from ..topology.ring import RingTopology
from ..topology.switched import SwitchedStar

__all__ = ["ContentionModel", "contention_topology"]

Flow = Tuple[int, int, float]


def contention_topology(system: object) -> Optional[Topology]:
    """A fluid topology mirroring ``system``'s shared physical links.

    * electrical ring / switch — the exact topologies the electrical
      substrate simulates on;
    * optical ring — a bidirectional ring whose link capacity is the
      full WDM aggregate (``num_wavelengths x wavelength_rate``): the
      fluid view of wavelength sharing, coarser than RWA but with the
      same shared-arc structure;
    * optical torus — modelling it by an aggregate link rate on a ring
      of the same scale would *not* be faithful to its 2-D routing, so
      the torus (like the hierarchical fabric and any unknown system)
      returns ``None``: no cross-job contention is modelled at all and
      concurrent jobs interact only through queueing.
    """
    if isinstance(system, ElectricalSystem):
        if system.topology == "ring":
            return RingTopology(system.num_nodes, system.link_rate,
                                bidirectional=True)
        return SwitchedStar(system.num_nodes, system.effective_port_rate)
    if isinstance(system, OpticalRingSystem):
        return RingTopology(system.num_nodes, system.node_injection_rate,
                            bidirectional=system.bidirectional)
    if isinstance(system, (OpticalTorusSystem, HierarchicalSystem)):
        return None
    return None


class ContentionModel:
    """Per-epoch job slowdowns from one combined fluid batch."""

    def __init__(self, topology: Optional[Topology]) -> None:
        self._sim = (FluidNetworkSimulator(topology)
                     if topology is not None else None)
        #: Solo makespan per flow tuple.
        self._solo: Dict[Tuple[Flow, ...], float] = {}

    @property
    def simulator(self) -> Optional[FluidNetworkSimulator]:
        """The underlying fluid simulator (``None`` = contention off)."""
        return self._sim

    def slowdowns(self, flows_by_job: Mapping[int, Sequence[Flow]]
                  ) -> Dict[int, float]:
        """Slowdown factor (``>= 1.0``) per job id.

        ``flows_by_job`` maps each running job to its representative
        ``(src, dst, bytes)`` flows on *global* node ids.  Jobs occupy
        disjoint node sets, so flow endpoints never collide across
        jobs and per-pair finish times can be attributed unambiguously.
        Contiguous placements on a ring rarely interfere (shortest
        paths stay inside each job's arc); scattered placements route
        through other jobs' arcs and genuinely contend.
        """
        out = {job_id: 1.0 for job_id in flows_by_job}
        if self._sim is None or len(flows_by_job) <= 1:
            return out
        combined = [f for flows in flows_by_job.values() for f in flows]
        if not combined:
            return out
        profile = self._sim.step_profile(combined)
        finish = {}
        for pair, t in zip(profile.pairs, profile.finish_times):
            finish[pair] = max(finish.get(pair, 0.0), float(t))
        for job_id, flows in flows_by_job.items():
            if not flows:
                continue
            contended = max(finish[(s, d)] for s, d, _ in flows)
            key = tuple(flows)
            solo = self._solo.get(key)
            if solo is None:
                solo = self._solo[key] = self._sim.step_profile(
                    flows).makespan
            if solo > 0.0:
                out[job_id] = max(1.0, contended / solo)
        return out
