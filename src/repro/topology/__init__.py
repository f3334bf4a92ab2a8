"""Network topologies.

The paper's systems live on two topologies:

* :class:`~repro.topology.ring.RingTopology` — the optical WDM ring (and the
  electrical point-to-point ring used by E-Ring);
* :class:`~repro.topology.switched.SwitchedStar` — a non-blocking switch,
  the electrical substrate for recursive doubling.

:class:`~repro.topology.torus.Torus2D` and
:class:`~repro.topology.switched.FatTree` are extensions used by ablation
experiments.

:mod:`repro.topology.program` adds the reconfigurable-fabric layer: the
:class:`~repro.topology.program.TopologyProgram` IR (circuit
configurations + reconfiguration cost model) and demand decomposition
used by the ``"ocs-reconfig"`` substrate.

:class:`~repro.topology.hierarchy.HierarchicalTopology` models the
electrical level of a multi-rack fabric (disjoint rack stars) for the
``"hier-rack"`` substrate, whose optical level rides the ring RWA
machinery.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".base": ("Link", "Topology"),
    ".degraded": ("DegradedTopology",),
    ".ring": ("Direction", "RingTopology"),
    ".switched": ("SwitchedStar", "FatTree"),
    ".torus": ("Torus2D",),
    ".hierarchy": ("HierarchicalTopology",),
    ".program": ("CircuitConfig", "CircuitTopology", "TopologyProgram",
                 "decompose_demand", "ring_circuit_config"),
})
