"""Multi-rack hierarchical topology: electrical racks on an optical ring.

Real training clusters are hierarchies — racks of electrically-switched
hosts stitched together by an optical core.  This module models the
*electrical* level of that hierarchy as one :class:`Topology`:
``num_groups`` disjoint rack stars, each a non-blocking switch serving
``group_size`` consecutive hosts (rack ``k`` owns hosts
``[k*g, (k+1)*g)`` and switch node ``-(k+1)``).  Routing is rack-local
by construction: same-rack pairs go up through their switch and back
down; cross-rack pairs raise — that traffic belongs to the *optical*
level, which the ``"hier-rack"`` substrate models separately with the
WDM ring RWA machinery over the racks' leader nodes.

Keeping all racks in one topology (rather than one topology per rack)
lets the fluid simulator solve a whole local phase — one concurrent
transfer per rack, each contending only inside its own star — in a
single fused batch, and gives the level a single :meth:`Topology.
shape_signature` so compiled flow batches are shared across
same-shape fabrics.
"""

from __future__ import annotations

from typing import List, Sequence

from ..errors import TopologyError
from .base import Link, Topology


class HierarchicalTopology(Topology):
    """``num_groups`` disjoint rack stars over ``num_hosts`` hosts.

    Parameters
    ----------
    num_hosts:
        Total host count (``G x g``).
    group_size:
        Hosts per rack (``g``); must divide ``num_hosts``.
    capacity:
        Rate of every host<->switch link in bytes/s.
    latency:
        Host-to-host latency through a rack switch; each half-link
        carries ``latency/2`` (mirrors :class:`~repro.topology.
        switched.SwitchedStar`, so a one-rack fabric is link-identical
        to the plain star).
    """

    def __init__(self, num_hosts: int, group_size: int, capacity: float,
                 latency: float = 0.0) -> None:
        super().__init__(num_hosts)
        if group_size < 1 or num_hosts % group_size:
            raise TopologyError(
                f"group_size {group_size} must divide num_hosts "
                f"{num_hosts}")
        self.group_size = group_size
        self.num_groups = num_hosts // group_size
        half = latency / 2.0
        for h in range(num_hosts):
            sw = self.switch_of(self.rack_of(h))
            self._add_link(Link(h, sw, capacity, half, key="up"))
            self._add_link(Link(sw, h, capacity, half, key="down"))

    # -- rack structure ------------------------------------------------------

    def rack_of(self, host: int) -> int:
        """Rack index of ``host``."""
        self.validate_host(host)
        return host // self.group_size

    def switch_of(self, rack: int) -> int:
        """Switch node id of ``rack`` (negative, rack 0 -> -1)."""
        if not (0 <= rack < self.num_groups):
            raise TopologyError(
                f"rack {rack} out of range [0, {self.num_groups})")
        return -(rack + 1)

    def rack_hosts(self, rack: int) -> List[int]:
        """The hosts of ``rack``, ascending."""
        self.switch_of(rack)  # validates
        g = self.group_size
        return list(range(rack * g, (rack + 1) * g))

    # -- routing -------------------------------------------------------------

    def path(self, src: int, dst: int) -> Sequence[Link]:
        """Rack-local route via the rack switch.

        Cross-rack pairs raise: the electrical level has no inter-rack
        links — that traffic rides the optical ring, which the
        hierarchical substrate models with the RWA machinery.
        """
        self.validate_host(src)
        self.validate_host(dst)
        if src == dst:
            return []
        rack = self.rack_of(src)
        if rack != self.rack_of(dst):
            raise TopologyError(
                f"hosts {src} and {dst} are in different racks "
                f"({rack} vs {self.rack_of(dst)}); inter-rack traffic "
                f"travels the optical ring, not the electrical level")
        sw = self.switch_of(rack)
        return [self.link(src, sw, "up"), self.link(sw, dst, "down")]
