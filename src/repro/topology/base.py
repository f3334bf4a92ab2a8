"""Topology abstractions shared by the electrical and optical substrates.

A topology is a directed multigraph of :class:`Link` objects between node
ids.  Node ids are small integers; *hosts* are ``0..num_hosts-1`` and
internal elements (switches) use negative ids so host ids can double as
ranks in collective schedules.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from ..errors import TopologyError


@dataclass(frozen=True)
class Link:
    """A directed link ``src -> dst``.

    ``capacity`` is in bytes/second, ``latency`` in seconds.  ``key``
    disambiguates parallel links (e.g. the two directions of a bidirectional
    ring share endpoints but not keys).
    """

    src: int
    dst: int
    capacity: float
    latency: float = 0.0
    key: str = ""

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise TopologyError(
                f"link {self.src}->{self.dst} capacity must be > 0")
        if self.latency < 0:
            raise TopologyError(
                f"link {self.src}->{self.dst} latency must be >= 0")

    @property
    def ident(self) -> Tuple[int, int, str]:
        """Hashable identity of this link (src, dst, key)."""
        return (self.src, self.dst, self.key)


class Topology:
    """Base class: a set of nodes plus directed links and path queries."""

    def __init__(self, num_hosts: int) -> None:
        if num_hosts < 1:
            raise TopologyError(f"need >=1 host, got {num_hosts}")
        self._num_hosts = num_hosts
        self._links: Dict[Tuple[int, int, str], Link] = {}

    # -- construction -------------------------------------------------------

    def _add_link(self, link: Link) -> None:
        if link.ident in self._links:
            raise TopologyError(f"duplicate link {link.ident}")
        self._links[link.ident] = link

    # -- queries ------------------------------------------------------------

    @property
    def num_hosts(self) -> int:
        """Number of host (rank) nodes."""
        return self._num_hosts

    @property
    def links(self) -> List[Link]:
        """All directed links, in insertion order."""
        return list(self._links.values())

    def link(self, src: int, dst: int, key: str = "") -> Link:
        """The link ``src -> dst`` with ``key``; raises if absent."""
        try:
            return self._links[(src, dst, key)]
        except KeyError:
            raise TopologyError(f"no link {src}->{dst} (key={key!r})") from None

    def has_link(self, src: int, dst: int, key: str = "") -> bool:
        """Whether link ``src -> dst`` with ``key`` exists."""
        return (src, dst, key) in self._links

    def validate_host(self, host: int) -> None:
        """Raise :class:`TopologyError` unless ``host`` is a valid rank."""
        if not (0 <= host < self._num_hosts):
            raise TopologyError(
                f"host {host} out of range [0, {self._num_hosts})")

    # -- routing ------------------------------------------------------------

    def path(self, src: int, dst: int) -> Sequence[Link]:
        """The route from host ``src`` to host ``dst`` as a link sequence.

        Subclasses implement their natural (deterministic) routing.
        """
        raise NotImplementedError

    def shape_signature(self) -> str:
        """Stable digest of this topology's link *shape*.

        The class, the host count and the link endpoints and keys;
        capacities and latencies are excluded.  Routing (:meth:`path`)
        in every topology class here depends only on which links exist,
        never on their rates, so two same-class topologies differing
        only in capacities/latencies route — and therefore compile
        flow-batch structures — identically.  The class is part of the
        digest because routing is defined by the subclass: identical
        link sets routed differently must not share compiled
        structures.  This is the key of the fluid engine's cross-cell
        compile cache; solved rate schedules stay in each simulator's
        own pattern cache.
        """
        canon = repr(("shape", type(self).__qualname__, self._num_hosts,
                      tuple(sorted((l.src, l.dst, l.key)
                                   for l in self._links.values()))))
        return hashlib.sha1(canon.encode("utf-8")).hexdigest()[:16]

    # -- failure masks -------------------------------------------------------

    def with_failed_links(self, failed_links: Iterable[Sequence[int]] = (),
                          failed_nodes: Iterable[int] = ()) -> "Topology":
        """This topology minus the given failures, BFS-rerouted.

        With nothing failed the topology itself is returned — the
        healthy view keeps its identity (and its shape signature, so
        every cache keyed on it stays warm).  Otherwise a
        :class:`~repro.topology.degraded.DegradedTopology` wraps the
        surviving links; being a distinct class with a distinct link
        set, its :meth:`shape_signature` differs from the healthy one
        and the shared compile cache can never serve stale routes
        across the failure boundary.
        """
        failed_links = tuple(tuple(p) for p in failed_links)
        failed_nodes = tuple(failed_nodes)
        if not failed_links and not failed_nodes:
            return self
        from .degraded import DegradedTopology
        return DegradedTopology(self, failed_links, failed_nodes)

    def path_latency(self, path: Iterable[Link]) -> float:
        """Sum of link latencies along ``path``."""
        return sum(l.latency for l in path)

    def path_bottleneck(self, path: Sequence[Link]) -> float:
        """Minimum capacity along ``path`` (infinite for empty paths)."""
        if not path:
            return float("inf")
        return min(l.capacity for l in path)
