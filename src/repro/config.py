"""Validated system configurations.

Two system descriptions drive every experiment in the paper:

* :class:`OpticalRingSystem` — a TeraRack-style micro-ring-resonator rack:
  ``num_nodes`` GPUs on a (bidirectional) WDM ring, ``num_wavelengths``
  wavelengths per waveguide direction, each carrying
  ``wavelength_rate`` bytes/s.  Per-step overheads are the MRR tuning /
  reconfiguration time and distance-dependent propagation.

* :class:`ElectricalSystem` — the SimGrid-modelled electrical baseline:
  hosts with ``link_rate`` NICs behind a non-blocking switch (for RD) or in
  a point-to-point ring (for E-Ring), with a per-step latency ``step_latency``
  covering software + switching.

Both are frozen dataclasses with eager validation so a mis-configured
experiment fails at construction, not deep inside a sweep.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

from . import units
from .errors import ConfigurationError


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigurationError(message)


def _require_ints(system: object, *names: str,
                  optional: bool = False) -> None:
    """Each named field of ``system`` must be a Python or numpy integer
    (never a ``bool``), or ``None`` when ``optional``."""
    for name in names:
        value = getattr(system, name)
        _require((optional and value is None)
                 or (isinstance(value, numbers.Integral)
                     and not isinstance(value, bool)),
                 f"{name} must be an integer, got {value!r}")


def _require_hop_delay(system: object, spacing: str) -> None:
    """The hop delay, field ``spacing`` times
    ``propagation_delay_per_meter``, must be a number: an infinite
    spacing at zero delay per metre, or the reverse, is ``inf * 0``."""
    distance = getattr(system, spacing)
    per_meter = system.propagation_delay_per_meter
    _require(not math.isnan(distance * per_meter),
             f"{spacing}={distance!r} with propagation_delay_per_meter="
             f"{per_meter!r} leaves the hop delay undefined (inf * 0)")


@dataclass(frozen=True)
class OpticalRingSystem:
    """A WDM optical ring interconnect (TeraRack-style).

    Parameters
    ----------
    num_nodes:
        Number of computing nodes (GPUs) on the ring. ``N`` in the paper.
    num_wavelengths:
        Wavelengths available per waveguide direction. ``w`` in the paper.
        TeraRack provisions 64.
    wavelength_rate:
        Line rate of one wavelength in **bytes/second** (``B``); TeraRack
        uses 25 Gb/s channels, i.e. ``25 * units.GBPS``.
    bidirectional:
        Whether the ring has two counter-rotating waveguides.  The Wrht
        grouping needs both directions (members on each side of a
        representative send toward it); unidirectional rings are supported
        for ablations.
    tuning_time:
        Per-communication-step overhead: micro-ring resonator tuning plus
        step synchronisation.  Charged once per schedule step.
    node_spacing:
        Physical distance between adjacent nodes (metres) — drives
        propagation delay.
    propagation_delay_per_meter:
        Signal propagation delay per metre of waveguide.
    allow_striping:
        Whether a single logical flow may be striped over several free
        wavelengths (the WDM exploitation Wrht relies on).  O-Ring is always
        modelled without striping, per the paper's motivation.
    """

    num_nodes: int
    num_wavelengths: int = 64
    wavelength_rate: float = 25 * units.GBPS
    bidirectional: bool = True
    tuning_time: float = 25 * units.USEC
    node_spacing: float = 0.5 * units.METER
    propagation_delay_per_meter: float = units.PROPAGATION_DELAY_PER_METER
    allow_striping: bool = True
    #: Fixed synchronisation overhead charged on *every* schedule step
    #: (control plane / barrier), on top of MRR tuning which is only paid
    #: when a node's channel selection actually changes.
    step_overhead: float = 1 * units.USEC

    def __post_init__(self) -> None:
        _require_ints(self, "num_nodes", "num_wavelengths")
        _require(self.num_nodes >= 2, f"need >=2 nodes, got {self.num_nodes}")
        _require(self.num_wavelengths >= 1,
                 f"need >=1 wavelength, got {self.num_wavelengths}")
        _require(self.wavelength_rate > 0, "wavelength_rate must be > 0")
        _require(self.tuning_time >= 0, "tuning_time must be >= 0")
        _require(self.step_overhead >= 0, "step_overhead must be >= 0")
        _require(self.node_spacing >= 0, "node_spacing must be >= 0")
        _require(self.propagation_delay_per_meter >= 0,
                 "propagation_delay_per_meter must be >= 0")
        _require_hop_delay(self, "node_spacing")

    # -- derived quantities -------------------------------------------------

    @property
    def node_injection_rate(self) -> float:
        """Peak bytes/s a node can inject per direction (all wavelengths)."""
        return self.num_wavelengths * self.wavelength_rate

    @property
    def hop_propagation_delay(self) -> float:
        """Propagation delay of one ring hop, in seconds."""
        return self.node_spacing * self.propagation_delay_per_meter

    def propagation_delay(self, hops: int) -> float:
        """Propagation delay of a path of ``hops`` ring hops."""
        if hops < 0:
            raise ConfigurationError(f"hops must be >= 0, got {hops}")
        return hops * self.hop_propagation_delay

    def with_(self, **changes) -> "OpticalRingSystem":
        """Return a copy with ``changes`` applied (sweep helper)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class ElectricalSystem:
    """An electrical interconnect for the SimGrid-style baselines.

    Parameters
    ----------
    num_nodes:
        Number of hosts.
    link_rate:
        Host NIC rate in bytes/second (full duplex).
    step_latency:
        Per-communication-step latency (software stack + switch traversal),
        charged once per schedule step — the α of the α–β model.
    topology:
        ``"switch"`` — every host hangs off one non-blocking switch (the
        natural substrate for recursive doubling);
        ``"ring"`` — point-to-point neighbour links (the E-Ring substrate).
    switch_ports_rate:
        Per-port rate of the switch; defaults to ``link_rate``.
    """

    num_nodes: int
    link_rate: float = 100 * units.GBPS
    step_latency: float = 10 * units.USEC
    topology: str = "switch"
    switch_ports_rate: float | None = None

    def __post_init__(self) -> None:
        _require_ints(self, "num_nodes")
        _require(self.num_nodes >= 2, f"need >=2 nodes, got {self.num_nodes}")
        _require(self.link_rate > 0, "link_rate must be > 0")
        _require(self.step_latency >= 0, "step_latency must be >= 0")
        _require(self.topology in ("switch", "ring"),
                 f"topology must be 'switch' or 'ring', got {self.topology!r}")
        if self.switch_ports_rate is not None:
            _require(self.switch_ports_rate > 0,
                     "switch_ports_rate must be > 0")

    @property
    def effective_port_rate(self) -> float:
        """Rate of a switch port (defaults to the host link rate)."""
        return (self.link_rate if self.switch_ports_rate is None
                else self.switch_ports_rate)

    def with_(self, **changes) -> "ElectricalSystem":
        """Return a copy with ``changes`` applied (sweep helper)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class OpticalTorusSystem:
    """A 2-D optical torus interconnect (extension substrate).

    Each node sits at a ``rows x cols`` grid point with unidirectional
    +X/-X/+Y/-Y waveguide links to its four neighbours; a link bundles
    ``num_wavelengths`` WDM channels of ``wavelength_rate`` bytes/s each,
    modelled in aggregate (fluid max-min sharing) rather than with
    per-channel RWA.  Per-step overheads mirror the optical ring: MRR
    tuning plus a fixed synchronisation cost.

    ``rows``/``cols`` may be left ``None`` to derive the most-square
    factorisation of ``num_nodes`` (row-major rank layout).
    """

    num_nodes: int
    rows: int | None = None
    cols: int | None = None
    num_wavelengths: int = 64
    wavelength_rate: float = 25 * units.GBPS
    tuning_time: float = 25 * units.USEC
    step_overhead: float = 1 * units.USEC
    node_spacing: float = 0.5 * units.METER
    propagation_delay_per_meter: float = units.PROPAGATION_DELAY_PER_METER

    def __post_init__(self) -> None:
        _require_ints(self, "num_nodes", "num_wavelengths")
        _require_ints(self, "rows", "cols", optional=True)
        _require(self.num_nodes >= 4,
                 f"a torus needs >=4 nodes, got {self.num_nodes}")
        _require(self.num_wavelengths >= 1,
                 f"need >=1 wavelength, got {self.num_wavelengths}")
        _require(self.wavelength_rate > 0, "wavelength_rate must be > 0")
        _require(self.tuning_time >= 0, "tuning_time must be >= 0")
        _require(self.step_overhead >= 0, "step_overhead must be >= 0")
        _require(self.node_spacing >= 0, "node_spacing must be >= 0")
        _require(self.propagation_delay_per_meter >= 0,
                 "propagation_delay_per_meter must be >= 0")
        _require_hop_delay(self, "node_spacing")
        rows, cols = self.grid_shape
        _require(rows >= 2 and cols >= 2 and rows * cols == self.num_nodes,
                 f"cannot arrange {self.num_nodes} nodes as a "
                 f"{rows}x{cols} torus (need a composite node count with "
                 f"both factors >= 2)")

    @property
    def grid_shape(self) -> tuple:
        """``(rows, cols)``, deriving the most-square split if unset."""
        if self.rows is not None or self.cols is not None:
            rows = self.rows if self.rows is not None \
                else self.num_nodes // (self.cols or 1)
            cols = self.cols if self.cols is not None \
                else self.num_nodes // rows
            return rows, cols
        best = None
        r = 2
        while r * r <= self.num_nodes:
            if self.num_nodes % r == 0:
                best = (r, self.num_nodes // r)
            r += 1
        return best if best is not None else (1, self.num_nodes)

    @property
    def link_rate(self) -> float:
        """Aggregate bytes/s of one torus link (all wavelengths)."""
        return self.num_wavelengths * self.wavelength_rate

    @property
    def hop_propagation_delay(self) -> float:
        """Propagation delay of one torus hop, in seconds."""
        return self.node_spacing * self.propagation_delay_per_meter

    def with_(self, **changes) -> "OpticalTorusSystem":
        """Return a copy with ``changes`` applied (sweep helper)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class ReconfigurableOCSSystem:
    """A reconfigurable optical-circuit-switch fabric (TopoOpt-style).

    Every node owns ``ports_per_node`` transceiver ports per direction;
    the central OCS realises any circuit configuration in which at most
    ``ports_per_node`` circuits originate and terminate at each node,
    and may switch to a different configuration by paying
    ``reconfiguration_delay`` (microseconds for fast OCS prototypes,
    ~10 ms for MEMS-class switches; ``inf`` disables reconfiguration
    entirely, degrading the fabric to its boot-time static topology).

    Parameters
    ----------
    num_nodes:
        Number of computing nodes attached to the switch.
    ports_per_node:
        Transceivers per node per direction (circuit degree budget).
    circuit_rate:
        Line rate of one circuit in bytes/second.
    reconfiguration_delay:
        Time to install a new circuit configuration (``inf`` allowed).
    step_overhead:
        Fixed synchronisation overhead charged on every schedule step.
    circuit_latency:
        Propagation delay of one circuit hop through the switch.
    """

    num_nodes: int
    ports_per_node: int = 2
    circuit_rate: float = 100 * units.GBPS
    reconfiguration_delay: float = 10 * units.USEC
    step_overhead: float = 1 * units.USEC
    circuit_latency: float = 100 * units.NSEC

    def __post_init__(self) -> None:
        _require_ints(self, "num_nodes", "ports_per_node")
        _require(self.num_nodes >= 2, f"need >=2 nodes, got {self.num_nodes}")
        _require(self.ports_per_node >= 1,
                 f"need >=1 port per node, got {self.ports_per_node}")
        _require(self.circuit_rate > 0, "circuit_rate must be > 0")
        _require(self.reconfiguration_delay >= 0,
                 "reconfiguration_delay must be >= 0 (inf allowed)")
        _require(self.step_overhead >= 0, "step_overhead must be >= 0")
        _require(self.circuit_latency >= 0, "circuit_latency must be >= 0")

    @property
    def node_injection_rate(self) -> float:
        """Peak bytes/s a node can inject (all transmit ports busy)."""
        return self.ports_per_node * self.circuit_rate

    @property
    def can_reconfigure(self) -> bool:
        """Whether the switch may ever leave its boot configuration."""
        return self.reconfiguration_delay != float("inf")

    def with_(self, **changes) -> "ReconfigurableOCSSystem":
        """Return a copy with ``changes`` applied (sweep helper)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class HierarchicalSystem:
    """A multi-rack hierarchical fabric (extension substrate).

    ``num_groups`` racks of ``group_size`` hosts each: inside a rack,
    hosts hang off a non-blocking electrical switch (SimGrid-style
    fluid model, like :class:`ElectricalSystem`); the racks' *leader*
    nodes (each rack's last host, matching
    :func:`~repro.collectives.hierarchical_ring.
    generate_hierarchical_ring`) sit on a bidirectional WDM ring with
    conflict-exact RWA, like :class:`OpticalRingSystem`.  The two
    levels have independent bandwidth/latency parameters — the point
    of the fabric is exactly that their contention physics differ.

    Parameters
    ----------
    num_nodes:
        Total host count (``G x g``).
    group_size:
        Hosts per rack (``g``); must divide ``num_nodes``.
        ``group_size == num_nodes`` degenerates to one purely
        electrical rack; ``group_size == 1`` to the flat optical ring.
    local_link_rate:
        Host NIC / switch port rate inside a rack, bytes/s.
    local_step_latency:
        Per-step software + switching latency charged on every step
        with intra-rack traffic (the electrical α).
    num_wavelengths / wavelength_rate / bidirectional / tuning_time:
        The inter-rack WDM ring, with the same semantics as
        :class:`OpticalRingSystem`.
    rack_spacing:
        Physical distance between adjacent racks (metres) — drives
        inter-rack propagation delay.
    optical_step_overhead:
        Fixed synchronisation overhead charged on every step with
        inter-rack traffic.
    allow_striping:
        Whether inter-rack flows may stripe over free wavelengths.
    leader_index:
        Position of each rack's leader host within the rack
        (``0..group_size-1``).  ``None`` keeps the historical choice —
        the rack's *last* host — bit-for-bit; the strategy co-planner
        searches this knob (a middle leader halves the local pipeline
        depth of the hierarchical ring).
    """

    num_nodes: int
    group_size: int
    local_link_rate: float = 100 * units.GBPS
    local_step_latency: float = 10 * units.USEC
    num_wavelengths: int = 64
    wavelength_rate: float = 25 * units.GBPS
    bidirectional: bool = True
    tuning_time: float = 25 * units.USEC
    rack_spacing: float = 2 * units.METER
    propagation_delay_per_meter: float = units.PROPAGATION_DELAY_PER_METER
    optical_step_overhead: float = 1 * units.USEC
    allow_striping: bool = True
    leader_index: int | None = None

    def __post_init__(self) -> None:
        _require_ints(self, "num_nodes", "group_size", "num_wavelengths")
        _require_ints(self, "leader_index", optional=True)
        _require(self.num_nodes >= 2, f"need >=2 nodes, got {self.num_nodes}")
        _require(self.group_size >= 1
                 and self.num_nodes % self.group_size == 0,
                 f"group_size {self.group_size} must divide num_nodes "
                 f"{self.num_nodes}")
        _require(self.local_link_rate > 0, "local_link_rate must be > 0")
        _require(self.local_step_latency >= 0,
                 "local_step_latency must be >= 0")
        _require(self.num_wavelengths >= 1,
                 f"need >=1 wavelength, got {self.num_wavelengths}")
        _require(self.wavelength_rate > 0, "wavelength_rate must be > 0")
        _require(self.tuning_time >= 0, "tuning_time must be >= 0")
        _require(self.rack_spacing >= 0, "rack_spacing must be >= 0")
        _require(self.propagation_delay_per_meter >= 0,
                 "propagation_delay_per_meter must be >= 0")
        _require_hop_delay(self, "rack_spacing")
        _require(self.optical_step_overhead >= 0,
                 "optical_step_overhead must be >= 0")
        if self.leader_index is not None:
            _require(0 <= self.leader_index < self.group_size,
                     f"leader_index {self.leader_index} out of range "
                     f"[0, {self.group_size})")

    # -- rack structure -------------------------------------------------------

    @property
    def num_groups(self) -> int:
        """Number of racks (``G``)."""
        return self.num_nodes // self.group_size

    @property
    def resolved_leader_index(self) -> int:
        """The leader's in-rack position (``group_size - 1`` when the
        ``leader_index`` knob is unset)."""
        return (self.group_size - 1 if self.leader_index is None
                else self.leader_index)

    @property
    def leaders(self) -> tuple:
        """The rack leaders, in rack order."""
        g = self.group_size
        idx = self.resolved_leader_index
        return tuple(k * g + idx for k in range(self.num_groups))

    def rack_of(self, rank: int) -> int:
        """Rack index of ``rank``."""
        _require(0 <= rank < self.num_nodes,
                 f"rank {rank} out of range [0, {self.num_nodes})")
        return rank // self.group_size

    def leader_of(self, rank: int) -> int:
        """The leader of ``rank``'s rack."""
        return (self.rack_of(rank) * self.group_size
                + self.resolved_leader_index)

    # -- per-level system views ----------------------------------------------

    def optical_system(self) -> OpticalRingSystem:
        """The leader-level WDM ring as an :class:`OpticalRingSystem`
        over ``num_groups`` rack indices (raises when there is only one
        rack — a one-rack fabric has no optical level)."""
        _require(self.num_groups >= 2,
                 "a one-rack fabric has no optical level")
        return OpticalRingSystem(
            num_nodes=self.num_groups,
            num_wavelengths=self.num_wavelengths,
            wavelength_rate=self.wavelength_rate,
            bidirectional=self.bidirectional,
            tuning_time=self.tuning_time,
            node_spacing=self.rack_spacing,
            propagation_delay_per_meter=self.propagation_delay_per_meter,
            allow_striping=self.allow_striping,
            step_overhead=self.optical_step_overhead)

    def electrical_system(self) -> ElectricalSystem:
        """The intra-rack electrical level as an
        :class:`ElectricalSystem` — one rack's worth of hosts behind a
        non-blocking switch, mirroring how :meth:`optical_system`
        projects to the leader level (raises for singleton racks,
        which have no electrical level)."""
        _require(self.group_size >= 2,
                 "singleton racks have no electrical level")
        return ElectricalSystem(num_nodes=self.group_size,
                                link_rate=self.local_link_rate,
                                step_latency=self.local_step_latency,
                                topology="switch")

    def with_(self, **changes) -> "HierarchicalSystem":
        """Return a copy with ``changes`` applied (sweep helper)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class Workload:
    """An all-reduce workload: a payload of ``data_bytes`` across all nodes.

    ``name`` labels figures; ``dtype_bytes`` only matters when a workload is
    derived from a parameter count (gradients are fp32 by default).
    """

    data_bytes: float
    name: str = "payload"
    dtype_bytes: int = 4

    def __post_init__(self) -> None:
        _require(self.data_bytes > 0, "data_bytes must be > 0")
        _require(math.isfinite(self.data_bytes),
                 f"data_bytes must be finite, got {self.data_bytes}")
        _require(self.dtype_bytes > 0, "dtype_bytes must be > 0")

    @classmethod
    def from_parameters(cls, num_parameters: float, name: str = "model",
                        dtype_bytes: int = 4) -> "Workload":
        """Workload for all-reducing the gradients of ``num_parameters``."""
        _require(num_parameters > 0, "num_parameters must be > 0")
        return cls(data_bytes=num_parameters * dtype_bytes, name=name,
                   dtype_bytes=dtype_bytes)

    @property
    def num_elements(self) -> int:
        """Number of dtype-sized elements in the payload (rounded up)."""
        return int(-(-self.data_bytes // self.dtype_bytes))


#: Default optical system factory used throughout the benchmarks: TeraRack
#: numbers (64 wavelengths x 25 Gb/s).
def default_optical(num_nodes: int, **overrides) -> OpticalRingSystem:
    """The paper's optical system at ``num_nodes`` (TeraRack defaults)."""
    return OpticalRingSystem(num_nodes=num_nodes, **overrides)


def default_electrical(num_nodes: int, **overrides) -> ElectricalSystem:
    """The paper's electrical system at ``num_nodes``."""
    return ElectricalSystem(num_nodes=num_nodes, **overrides)


def default_torus(num_nodes: int, **overrides) -> OpticalTorusSystem:
    """An optical torus at ``num_nodes`` with TeraRack-style channels."""
    return OpticalTorusSystem(num_nodes=num_nodes, **overrides)


def default_ocs(num_nodes: int, **overrides) -> ReconfigurableOCSSystem:
    """A reconfigurable OCS fabric at ``num_nodes`` (fast-switch defaults)."""
    return ReconfigurableOCSSystem(num_nodes=num_nodes, **overrides)


def hier_group_candidates(num_nodes: int) -> tuple:
    """Every feasible rack size at ``num_nodes``: the divisors,
    ascending — from the flat optical ring (1) to one purely
    electrical rack (``num_nodes``).  The one enumeration the
    ``"hier"`` comparison scenario and the rack-size sweep share."""
    _require(num_nodes >= 1, f"need >=1 node, got {num_nodes}")
    return tuple(g for g in range(1, num_nodes + 1)
                 if num_nodes % g == 0)


def default_group_size(num_nodes: int) -> int:
    """The default rack size at ``num_nodes``: the largest divisor not
    exceeding ``sqrt(num_nodes)`` (most-square racks-by-hosts split;
    1 for primes — every host its own rack)."""
    _require(num_nodes >= 1, f"need >=1 node, got {num_nodes}")
    best = 1
    d = 2
    while d * d <= num_nodes:
        if num_nodes % d == 0:
            best = d
        d += 1
    return best


def default_hierarchical(num_nodes: int, group_size: int | None = None,
                         **overrides) -> HierarchicalSystem:
    """A multi-rack hierarchical fabric at ``num_nodes``.

    ``group_size=None`` derives the most-square rack split via
    :func:`default_group_size`.
    """
    g = default_group_size(num_nodes) if group_size is None else group_size
    return HierarchicalSystem(num_nodes=num_nodes, group_size=g,
                              **overrides)
