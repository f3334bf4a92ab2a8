"""Routing and wavelength assignment (RWA) on the optical ring.

Within one synchronous schedule step every transfer must hold its
wavelengths on every segment of its arc for the whole step, so the RWA
problem is: route each request (pick an arc direction) and colour it with
``num_wavelengths`` channels such that no (segment, wavelength) slot is
used twice.

Two classic heuristics from the paper's references are provided:

* **First-Fit** [Ozdaglar & Bertsekas 2003] — scan wavelengths from index 0
  and take the first that is free along the whole arc;
* **Best-Fit** [Sathishkumar & Mahalingam 2015] — prefer the feasible
  wavelength that is already the most used elsewhere on the ring, packing
  channels tightly and keeping low-index channels free for long arcs.

Striping support: a request may ask for several wavelengths; helper
:func:`compute_striping_factor` derives the uniform striping factor a step
can afford from its worst-case segment congestion, which is how Wrht turns
spare wavelengths into bandwidth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import DegradedError, WavelengthAllocationError
from ..topology.ring import Direction, RingTopology
from .ring_network import OpticalRingNetwork


@dataclass(frozen=True)
class TransferRequest:
    """One point-to-point transfer wanting wavelengths on a ring arc.

    ``direction=None`` lets the router pick the shortest arc.
    ``num_wavelengths`` is the striping width (1 = a single channel).
    """

    src: int
    dst: int
    size: float = 0.0
    direction: Optional[Direction] = None
    num_wavelengths: int = 1
    tag: str = ""

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise WavelengthAllocationError(
                f"transfer {self.src}->{self.dst} is a loopback")
        if self.num_wavelengths < 1:
            raise WavelengthAllocationError(
                "num_wavelengths must be >= 1")


class AssignmentPolicy(enum.Enum):
    """Wavelength selection heuristic."""

    FIRST_FIT = "first-fit"
    BEST_FIT = "best-fit"


@dataclass
class RwaResult:
    """Outcome of assigning one step's requests.

    ``assignments[i]`` is ``(direction, wavelengths)`` for request ``i``.
    ``distinct_wavelengths`` counts channels used anywhere;
    ``max_index_used + 1`` is the spectrum span (what a First-Fit-style
    "number of wavelengths required" statement refers to);
    ``max_link_load`` is the congestion lower bound.
    """

    assignments: Dict[int, Tuple[Direction, Tuple[int, ...]]] = field(
        default_factory=dict)
    distinct_wavelengths: int = 0
    max_index_used: int = -1
    max_link_load: int = 0

    @property
    def spectrum_span(self) -> int:
        """Highest wavelength index used + 1 (0 when nothing assigned)."""
        return self.max_index_used + 1


def resolve_direction(ring: RingTopology, request: TransferRequest) -> Direction:
    """Direction for ``request``: explicit, else shortest arc."""
    if request.direction is not None:
        return request.direction
    return ring.shortest_direction(request.src, request.dst)


def _request_links(ring: RingTopology, request: TransferRequest,
                   direction: Direction) -> List[Tuple[int, int, str]]:
    return [l.ident for l in ring.arc_links(request.src, request.dst,
                                            direction)]


def max_link_demand(requests: Sequence[TransferRequest],
                    ring: RingTopology,
                    count_stripes: bool = True) -> int:
    """Worst per-segment wavelength demand of ``requests``.

    With ``count_stripes`` each request counts ``num_wavelengths``; without
    it each request counts once (pure path congestion).  This is the lower
    bound on the wavelengths any RWA needs for the step.
    """
    load: Dict[Tuple[int, int, str], int] = {}
    for req in requests:
        d = resolve_direction(ring, req)
        weight = req.num_wavelengths if count_stripes else 1
        for ident in _request_links(ring, req, d):
            load[ident] = load.get(ident, 0) + weight
    return max(load.values(), default=0)


def compute_striping_factor(requests: Sequence[TransferRequest],
                            ring: RingTopology,
                            num_wavelengths: int) -> int:
    """Uniform striping factor a step can afford.

    If the worst segment carries ``L`` distinct flows, each flow can be
    striped over ``⌊w / L⌋`` wavelengths without exceeding the per-segment
    budget ``w``.  Returns at least 1; raises when even one wavelength per
    flow cannot fit (the step is infeasible).
    """
    return striping_for_demand(
        max_link_demand(requests, ring, count_stripes=False),
        num_wavelengths)


def striping_for_demand(demand: int, num_wavelengths: int) -> int:
    """:func:`compute_striping_factor` from a step's path demand.

    ``demand`` is the step's unstriped worst-segment flow count
    (``max_link_demand(..., count_stripes=False)``), which depends only
    on the routed pattern, so callers that memoize it per pattern derive
    the factor against the live wavelength budget in O(1).
    """
    if demand == 0:
        return num_wavelengths
    if demand > num_wavelengths:
        raise WavelengthAllocationError(
            f"step needs {demand} wavelengths on its hottest segment but "
            f"only {num_wavelengths} exist",
            demanded=demand, available=num_wavelengths)
    return max(1, num_wavelengths // demand)


def _degraded_direction(network: OpticalRingNetwork, idx: int,
                        req: TransferRequest,
                        preferred: Direction) -> Direction:
    """Reroute ``req`` around failed links (degraded mode only).

    Keeps ``preferred`` when its arc survives; otherwise falls back to
    the opposite arc of a bidirectional ring — even overriding an
    explicit direction hint, since a hint pointing across a cut fiber is
    a preference, not physics.  Raises :class:`DegradedError` when an
    endpoint is down or both arcs are severed (the pair is partitioned).
    """
    for host in (req.src, req.dst):
        if host in network.failed_nodes:
            raise DegradedError(
                f"request {idx} ({req.src}->{req.dst}): host {host} "
                f"is down", src=req.src, dst=req.dst)

    def arc_ok(direction: Direction) -> bool:
        return not any(network.segment_blocked(seg) for seg in
                       network.arc_waveguides(req.src, req.dst, direction))

    if arc_ok(preferred):
        return preferred
    if network.topology.bidirectional and arc_ok(preferred.opposite()):
        return preferred.opposite()
    raise DegradedError(
        f"request {idx} ({req.src}->{req.dst}): every arc crosses a "
        f"failed link {sorted(network.failed_links)}",
        src=req.src, dst=req.dst)


def _place_request(network: OpticalRingNetwork, idx: int,
                   req: TransferRequest,
                   policy: AssignmentPolicy) -> Tuple[Direction, Tuple[int, ...]]:
    """Route and colour one request, claiming its slots (owner = ``idx``).

    This is the single placement step both :func:`assign_wavelengths` and
    the delta patcher share — the heuristic only ever looks at current
    occupancy, so placing a request on top of an identical occupancy state
    yields an identical colouring regardless of how that state was reached.

    Under active fault masks the free set excludes lost wavelengths and
    arcs crossing failed links reroute the other way; with no masks the
    code path is byte-identical to the healthy one.
    """
    ring = network.topology
    if req.num_wavelengths > network.num_wavelengths:
        raise WavelengthAllocationError(
            f"request {idx} wants {req.num_wavelengths} wavelengths; "
            f"system has {network.num_wavelengths}",
            demanded=req.num_wavelengths,
            available=network.num_wavelengths)
    direction = resolve_direction(ring, req)
    if network.has_faults:
        direction = _degraded_direction(network, idx, req, direction)
        lost = network.failed_wavelengths
        segments = network.arc_waveguides(req.src, req.dst, direction)
        free = [w for w in range(network.num_wavelengths)
                if w not in lost and all(seg.is_free(w) for seg in segments)]
    else:
        segments = network.arc_waveguides(req.src, req.dst, direction)
        free = [w for w in range(network.num_wavelengths)
                if all(seg.is_free(w) for seg in segments)]
    if len(free) < req.num_wavelengths:
        raise WavelengthAllocationError(
            f"request {idx} ({req.src}->{req.dst}, {direction.value}) "
            f"needs {req.num_wavelengths} wavelengths, only "
            f"{len(free)} free along its arc",
            demanded=req.num_wavelengths, available=len(free))
    if policy is AssignmentPolicy.FIRST_FIT:
        chosen = free[: req.num_wavelengths]
    else:  # BEST_FIT: most-used feasible channels first, stable by index
        usage = _global_usage(network)
        chosen = sorted(free, key=lambda w: (-usage[w], w))
        chosen = sorted(chosen[: req.num_wavelengths])
    network.occupy_path(req.src, req.dst, direction, list(chosen), idx)
    return direction, tuple(chosen)


def assign_wavelengths(network: OpticalRingNetwork,
                       requests: Sequence[TransferRequest],
                       policy: AssignmentPolicy = AssignmentPolicy.FIRST_FIT,
                       ) -> RwaResult:
    """Assign wavelengths for one step's ``requests`` on ``network``.

    Mutates the network's occupancy (owner = request index) — call
    :meth:`OpticalRingNetwork.clear` between steps.  Requests are processed
    in the given order, longest arcs first within equal order is *not*
    applied: generators emit deterministic orders and tests rely on them.

    Raises :class:`WavelengthAllocationError` if any request cannot be
    placed.
    """
    ring = network.topology
    result = RwaResult(max_link_load=max_link_demand(requests, ring))
    used: set[int] = set()

    for idx, req in enumerate(requests):
        direction, chosen = _place_request(network, idx, req, policy)
        result.assignments[idx] = (direction, chosen)
        used.update(chosen)
        result.max_index_used = max(result.max_index_used, max(chosen))

    result.distinct_wavelengths = len(used)
    return result


@dataclass
class RwaDelta:
    """Snapshot of a solved step, ready to be patched by the next one.

    Records everything the delta path needs to decide applicability and
    to undo stale placements: the heuristic, the uniform striping width,
    the striped max link demand, the ordered routed pattern
    ``(src, dst, direction)`` per request, and the full result (whose
    ``assignments`` still own the network's occupancy).
    """

    policy: AssignmentPolicy
    striping: int
    demand: int
    pattern: Tuple[Tuple[int, int, Direction], ...]
    result: RwaResult
    #: :meth:`OpticalRingNetwork.fault_key` at solve time (``()`` =
    #: healthy).  The patcher compares it against the current masks to
    #: decide whether patching across the mask transition is sound.
    fault_key: Tuple = ()

    @classmethod
    def from_solution(cls, policy: AssignmentPolicy, striping: int,
                      requests: Sequence[TransferRequest],
                      result: RwaResult,
                      fault_key: Tuple = ()) -> "RwaDelta":
        """Snapshot ``result`` as the patch base for the next step."""
        pattern = tuple((req.src, req.dst, result.assignments[i][0])
                        for i, req in enumerate(requests))
        return cls(policy=policy, striping=striping,
                   demand=result.max_link_load, pattern=pattern,
                   result=result, fault_key=fault_key)


def assign_wavelengths_delta(network: OpticalRingNetwork,
                             requests: Sequence[TransferRequest],
                             policy: AssignmentPolicy,
                             prev: RwaDelta) -> Optional[RwaResult]:
    """Patch ``prev``'s assignment into one for ``requests``.

    The network must still hold exactly ``prev``'s occupancy.  Because
    every placement heuristic here is sequential-greedy — request ``i``'s
    colouring depends only on the occupancy left by requests ``0..i-1`` —
    the longest common prefix of the old and new routed patterns can be
    kept verbatim; only the suffix is released and re-placed.  The result
    is therefore *bit-for-bit identical* to a from-scratch
    :func:`assign_wavelengths` on ``requests`` (channels included), which
    is stronger than the link-load/span parity the contract demands.

    Returns ``None`` — caller must :meth:`~OpticalRingNetwork.clear` and
    solve from scratch — when the patch contract cannot hold:

    * a request's striping width differs from ``prev.striping``;
    * the striped max link demand changed (demand spike/drop);
    * a surviving ``(src, dst)`` pair flipped direction (a mutation, not
      an add/remove — the patch path only models adds and removes);
    * the fault masks changed in any way other than a pure wavelength
      degradation (see below);
    * a suffix request cannot be placed (caller re-solves and surfaces
      the real :class:`WavelengthAllocationError`).

    Fault masks.  Under an *unchanged* mask (healthy or stably
    degraded) patching is plain traffic churn.  Across a mask
    transition, only **newly lost wavelengths** (links/nodes unchanged,
    new lost set a superset of the old) patch: a kept placement whose
    channels survive is provably what the masked from-scratch heuristic
    would pick — masking out a channel the heuristic did not choose
    cannot change its choice, and one it *did* choose marks the request
    displaced, truncating the keep prefix so it and everything after
    re-place on the surviving spectrum.  Every other transition —
    link/node failures and *any* repair (a restored channel may be
    preferred by early requests, so keeping their old colours would
    diverge from the from-scratch solve) — falls back to the full
    solver, which is what makes recovery converge to the fault-free
    steady state.

    On ``None`` the network occupancy is left in an intermediate state;
    the fallback's ``clear()`` is mandatory.
    """
    if policy is not prev.policy:
        return None
    if any(req.num_wavelengths != prev.striping for req in requests):
        return None
    fault_key = network.fault_key()
    mask_changed = fault_key != prev.fault_key
    if mask_changed:
        prev_links, prev_nodes, prev_waves = (prev.fault_key
                                              or ((), (), ()))
        if (tuple(sorted(network.failed_links)) != prev_links
                or tuple(sorted(network.failed_nodes)) != prev_nodes
                or not network.failed_wavelengths >= frozenset(prev_waves)):
            return None
    ring = network.topology
    demand = max_link_demand(requests, ring)
    if demand != prev.demand:
        return None
    if network.has_faults:
        new_pattern = tuple(
            (req.src, req.dst,
             _degraded_direction(network, idx, req,
                                 resolve_direction(ring, req)))
            for idx, req in enumerate(requests))
    else:
        new_pattern = tuple((req.src, req.dst, resolve_direction(ring, req))
                            for req in requests)
    old_dirs = {(s, d): direction for s, d, direction in prev.pattern}
    for s, d, direction in new_pattern:
        if old_dirs.get((s, d), direction) is not direction:
            return None

    limit = min(len(new_pattern), len(prev.pattern))
    keep = 0
    while keep < limit and new_pattern[keep] == prev.pattern[keep]:
        keep += 1

    if mask_changed:
        # Newly lost wavelengths displace the kept placements that used
        # them; truncate the keep prefix at the first casualty.
        lost = network.failed_wavelengths
        for idx in range(keep):
            _, channels = prev.result.assignments[idx]
            if any(w in lost for w in channels):
                keep = idx
                break

    # Undo the stale suffix of the previous step.
    for idx in range(keep, len(prev.pattern)):
        src, dst, direction = prev.pattern[idx]
        _, channels = prev.result.assignments[idx]
        for seg in network.arc_waveguides(src, dst, direction):
            for w in channels:
                seg.release(w, idx)

    result = RwaResult(max_link_load=demand)
    for idx in range(keep):
        result.assignments[idx] = prev.result.assignments[idx]
    try:
        for idx in range(keep, len(requests)):
            direction, chosen = _place_request(network, idx, requests[idx],
                                               policy)
            result.assignments[idx] = (direction, chosen)
    except WavelengthAllocationError:
        return None

    used: set[int] = set()
    for _, channels in result.assignments.values():
        used.update(channels)
    result.distinct_wavelengths = len(used)
    result.max_index_used = max(used) if used else -1
    return result


def _global_usage(network: OpticalRingNetwork) -> List[int]:
    """Per-wavelength occupancy count across all segments."""
    usage = [0] * network.num_wavelengths
    for link in network.all_waveguides():
        for w in link.owners():
            usage[w] += 1
    return usage
