"""Surviving-link view of a topology under failures.

:class:`DegradedTopology` copies a base topology's links minus whatever
a fault state has taken out — undirected host pairs for failed links,
whole nodes (every incident link plus the endpoint itself) for failed
nodes — and reroutes with deterministic BFS over what survives.  It is
a *separate class* on purpose: :meth:`~repro.topology.base.Topology.
shape_signature` folds the class qualname and the surviving link set
into its digest, so the shared compile cache keys degraded views apart
from healthy ones (and apart from each other) with no extra
bookkeeping — a cache can never serve a route over a dead link.

When the surviving links cannot connect a queried pair the view raises
:class:`~repro.errors.DegradedError` — the fabric is partitioned and no
rerouting answer exists short of repair.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from ..errors import DegradedError, TopologyError
from .base import Link, Topology

__all__ = ["DegradedTopology", "normalize_link_pairs"]


def normalize_link_pairs(pairs: Iterable[Sequence[int]]
                         ) -> FrozenSet[Tuple[int, int]]:
    """Canonicalize undirected ``(u, v)`` link pairs (sorted endpoints)."""
    out = set()
    for pair in pairs:
        u, v = pair
        if u == v:
            raise TopologyError(f"failed link ({u}, {v}) is a self-loop")
        out.add((u, v) if u < v else (v, u))
    return frozenset(out)


class DegradedTopology(Topology):
    """``base`` minus failed links/nodes, BFS-rerouted."""

    def __init__(self, base: Topology,
                 failed_links: Iterable[Sequence[int]] = (),
                 failed_nodes: Iterable[int] = ()) -> None:
        super().__init__(base.num_hosts)
        self.failed_links = normalize_link_pairs(failed_links)
        self.failed_nodes = frozenset(int(n) for n in failed_nodes)
        for link in base.links:
            ends = (link.src, link.dst) if link.src < link.dst \
                else (link.dst, link.src)
            if ends in self.failed_links:
                continue
            if link.src in self.failed_nodes or link.dst in self.failed_nodes:
                continue
            self._add_link(link)
        # Insertion-ordered adjacency keeps BFS tie-breaks deterministic.
        self._adj: Dict[int, List[Link]] = {}
        for link in self._links.values():
            self._adj.setdefault(link.src, []).append(link)

    def path(self, src: int, dst: int) -> Sequence[Link]:
        """Shortest surviving route ``src -> dst`` (BFS, first-found).

        Raises :class:`DegradedError` when an endpoint is down or the
        surviving links leave ``dst`` unreachable from ``src``.
        """
        self.validate_host(src)
        self.validate_host(dst)
        for host in (src, dst):
            if host in self.failed_nodes:
                raise DegradedError(
                    f"host {host} is down: no degraded route "
                    f"{src}->{dst}", src=src, dst=dst)
        if src == dst:
            return []
        prev: Dict[int, Link] = {}
        seen = {src}
        frontier = deque([src])
        while frontier:
            node = frontier.popleft()
            for link in self._adj.get(node, ()):
                if link.dst in seen:
                    continue
                seen.add(link.dst)
                prev[link.dst] = link
                if link.dst == dst:
                    hops: List[Link] = []
                    at = dst
                    while at != src:
                        hops.append(prev[at])
                        at = prev[at].src
                    hops.reverse()
                    return hops
                frontier.append(link.dst)
        raise DegradedError(
            f"topology partitioned: no surviving route {src}->{dst} "
            f"(failed links {sorted(self.failed_links)}, "
            f"failed nodes {sorted(self.failed_nodes)})", src=src, dst=dst)
