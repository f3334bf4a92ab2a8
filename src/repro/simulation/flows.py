"""Max-min fair bandwidth sharing (the heart of the fluid model).

Given a set of flows, each pinned to a path (a set of link ids), and link
capacities, compute the max-min fair rate allocation by *progressive
filling*: raise every unfrozen flow's rate uniformly until some link
saturates; freeze the flows crossing it; repeat.  This is the allocation
SimGrid's default TCP model converges to at this granularity, and is the
textbook fluid model for congestion-controlled traffic.

The solver is split into a **compile** step and a **fill** step so the
fluid event loop never rebuilds Python-side structures per event:

* :func:`compile_paths` turns a batch of flow paths into a
  :class:`CompiledFlowBatch` — a CSR flow→link index, a links x flows
  incidence operator (dense matrix or ``scipy.sparse`` CSR, see
  *backends* below), and the link capacity vector — built exactly once
  per ``run()`` batch;
* :func:`progressive_fill` solves max-min over the compiled structure
  restricted to an *active mask*, from zero at every call (the event
  loop calls it once per allocation event).

Incidence backends
------------------
:func:`resolve_backend` picks, per batch, how per-round link counts and
freeze detection are computed:

* ``"dense"`` — a dense links x flows float matrix (one BLAS matvec per
  round); the right call below a few hundred flows;
* ``"sparse"`` — a ``scipy.sparse`` CSR matrix (O(nnz) per round); the
  right call for very large flow batches, picked at or above
  :data:`SPARSE_FLOW_THRESHOLD` flows when scipy is importable.  The
  first such batch imports ``scipy.sparse``; smaller batches never do.
  Without scipy every batch is dense.

Both backends are *numerically interchangeable*: the incidence is 0/1
and the filling mask is 0/1, so per-round link counts are exact small
integers no matter how the products are summed.  The documented
contract is agreement within 1e-12 relative tolerance; in practice the
backends agree bit-for-bit (and the property suite pins exactly that).

:func:`max_min_fair_rates` keeps the historical one-shot API on top
(and the property suite pins it bit-for-bit against the frozen
pre-refactor implementation in ``tests/fluid_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib.util import find_spec
from math import inf
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError

LinkId = Hashable

#: Flow count at which batches switch to scipy CSR (kept dense below
#: it: BLAS on small dense blocks beats sparse overhead).
SPARSE_FLOW_THRESHOLD = 512

#: ``scipy.sparse`` once the first batch at or above
#: :data:`SPARSE_FLOW_THRESHOLD` has imported it, ``None`` until then,
#: and ``False`` when scipy is not installed (every batch runs dense).
#: scipy is a gated dependency that takes longer to import than the
#: whole fluid model, and only large batches use it.
_scipy_sparse: Any = None if find_spec("scipy") is not None else False


def _sparse() -> Any:
    """``scipy.sparse``, imported on the first call (``False`` when
    scipy cannot be imported)."""
    global _scipy_sparse
    if _scipy_sparse is None:
        try:
            from scipy import sparse
        except ImportError:  # installed but broken: stay dense
            sparse = False
        _scipy_sparse = sparse
    return _scipy_sparse


def have_sparse() -> bool:
    """Whether the scipy-backed sparse incidence backend is available
    (answered without importing scipy)."""
    return _scipy_sparse is not False


def resolve_backend(num_flows: int) -> str:
    """The backend (``"dense"``/``"sparse"``) for a batch of
    ``num_flows`` flows: sparse at or above
    :data:`SPARSE_FLOW_THRESHOLD` when scipy is importable, dense
    otherwise (the results are identical either way, only the speed
    differs).  The first sparse batch imports ``scipy.sparse``."""
    if num_flows >= SPARSE_FLOW_THRESHOLD and _sparse():
        return "sparse"
    return "dense"


@dataclass
class Flow:
    """A fluid flow: ``size`` bytes over the links in ``path``.

    ``remaining`` tracks progress while the simulator advances time;
    ``rate`` is (re)assigned after every allocation round.
    """

    src: int
    dst: int
    size: float
    path: Tuple[LinkId, ...]
    latency: float = 0.0
    tag: str = ""
    remaining: float = field(init=False)
    rate: float = field(default=0.0, init=False)
    start_time: float = field(default=0.0, init=False)
    finish_time: float = field(default=float("nan"), init=False)

    def __post_init__(self) -> None:
        if not 0 < self.size < inf:
            raise SimulationError(
                f"flow {self.src}->{self.dst} size must be > 0 and finite, "
                f"got {self.size!r}")
        if not self.path and self.src != self.dst:
            raise SimulationError(
                f"flow {self.src}->{self.dst} has an empty path")
        self.remaining = float(self.size)


class CompiledFlowBatch:
    """One batch of flow paths compiled for repeated max-min solves.

    Everything the per-event hot loop needs, precomputed as arrays:

    * ``link_ids`` / ``cap`` — the links actually used by the batch (in
      first-use order, matching the historical solver) and their
      capacities;
    * ``flow_ptr`` / ``flow_links`` — CSR rows: flow ``j`` crosses
      ``flow_links[flow_ptr[j]:flow_ptr[j+1]]``;
    * ``flow_of`` — ``flow_links``'s owning flow per entry (for
      flow-major trace accumulation with ``np.add.at``);
    * ``inc_flows`` / ``inc_links`` — the *deduplicated* (flow, link)
      incidence pairs backing the counting operators (a path crossing a
      link twice still counts it once, as the incidence matrix does);
    * ``backend`` — ``"dense"`` or ``"sparse"``: how :meth:`link_counts`
      and :meth:`flows_on` are computed (identical values either way);
    * ``loopback`` — flows with an empty path (delivered instantly).
    """

    __slots__ = ("link_ids", "cap", "flow_ptr", "flow_links", "flow_of",
                 "inc_flows", "inc_links", "loopback",
                 "any_loopback", "backend", "_inc", "_inc_sp",
                 "_lnk_ptr", "_lnk_flows")

    def __init__(self, link_ids: Tuple[LinkId, ...], cap: np.ndarray,
                 flow_ptr: np.ndarray, flow_links: np.ndarray,
                 flow_of: np.ndarray, inc_flows: np.ndarray,
                 inc_links: np.ndarray, loopback: np.ndarray,
                 backend: str = "dense") -> None:
        self.link_ids = link_ids
        self.cap = cap
        self.flow_ptr = flow_ptr
        self.flow_links = flow_links
        self.flow_of = flow_of
        self.inc_flows = inc_flows
        self.inc_links = inc_links
        self.loopback = loopback
        self.any_loopback = bool(loopback.any())
        self.backend = backend
        self._inc: Optional[np.ndarray] = None
        self._inc_sp = None
        self._lnk_ptr: Optional[np.ndarray] = None
        self._lnk_flows: Optional[np.ndarray] = None
        if backend == "sparse":
            self._inc_sp = _sparse().csr_matrix(
                (np.ones(len(inc_links), dtype=np.float64),
                 (inc_links, inc_flows)),
                shape=(self.num_links, self.num_flows))
            # Link-major (CSC-style) incidence for freeze detection:
            # flows crossing link ``l`` are
            # ``lnk_flows[lnk_ptr[l]:lnk_ptr[l+1]]``.
            order = np.argsort(inc_links, kind="stable")
            self._lnk_flows = inc_flows[order]
            lnk_ptr = np.zeros(self.num_links + 1, dtype=np.intp)
            np.cumsum(np.bincount(inc_links, minlength=self.num_links),
                      out=lnk_ptr[1:])
            self._lnk_ptr = lnk_ptr
        else:
            self._inc = self._build_dense()

    def _build_dense(self) -> np.ndarray:
        inc = np.zeros((self.num_links, self.num_flows), dtype=np.float64)
        if self.inc_links.size:
            inc[self.inc_links, self.inc_flows] = 1.0
        return inc

    @property
    def num_flows(self) -> int:
        """Flows in the batch."""
        return len(self.flow_ptr) - 1

    @property
    def num_links(self) -> int:
        """Distinct links used by the batch."""
        return len(self.link_ids)

    @property
    def inc(self) -> np.ndarray:
        """The dense links x flows incidence (built on demand under the
        sparse backend; always materialized under the dense one)."""
        if self._inc is None:
            self._inc = self._build_dense()
        return self._inc

    # -- backend-dispatched counting operators ------------------------------

    def link_counts(self, filling_f: np.ndarray) -> np.ndarray:
        """Filling flows per link (exact integers in float64)."""
        if self._inc_sp is not None:
            return self._inc_sp @ filling_f
        return self._inc @ filling_f

    def flows_on(self, link_idx: np.ndarray,
                 filling: np.ndarray) -> np.ndarray:
        """Mask of ``filling`` flows crossing any link in ``link_idx``.

        Pure set membership (no float arithmetic), so both backends
        return the identical mask: the dense path reduces incidence
        rows, the sparse path gathers the links' flow lists from the
        link-major index (CSR row slicing is far too slow here).
        """
        if self._lnk_ptr is not None:
            starts = self._lnk_ptr[link_idx]
            lens = self._lnk_ptr[link_idx + 1] - starts
            total = int(lens.sum())
            on = np.zeros(self.num_flows, dtype=bool)
            if total:
                # Multi-range gather: absolute positions of every
                # (link, flow) entry under the saturated links.
                offs = np.arange(total) \
                    - np.repeat(np.cumsum(lens) - lens, lens)
                on[self._lnk_flows[np.repeat(starts, lens) + offs]] = True
        else:
            on = np.add.reduce(self._inc[link_idx], axis=0) > 0.0
        return on & filling


class FlowBatchStructure:
    """The capacity-free half of a compiled flow batch.

    Everything :func:`compile_paths` derives from the *paths alone* —
    the first-use link index, the CSR rows, the deduplicated incidence
    pairs, the loopback mask — with the capacity vector and the
    backend operators factored out into :meth:`bind`.  This is the
    unit the cross-cell compile cache shares: a sweep re-running one
    step pattern over many capacity (bandwidth) cells compiles the
    structure once and rebinds it per cell.
    """

    __slots__ = ("link_ids", "flow_ptr", "flow_links", "flow_of",
                 "inc_flows", "inc_links", "loopback", "_protos")

    def __init__(self, link_ids: Tuple[LinkId, ...], flow_ptr: np.ndarray,
                 flow_links: np.ndarray, flow_of: np.ndarray,
                 inc_flows: np.ndarray, inc_links: np.ndarray,
                 loopback: np.ndarray) -> None:
        self.link_ids = link_ids
        self.flow_ptr = flow_ptr
        self.flow_links = flow_links
        self.flow_of = flow_of
        self.inc_flows = inc_flows
        self.inc_links = inc_links
        self.loopback = loopback
        # Per-backend bound prototypes: the incidence operators depend
        # only on the structure, so every bind of the same backend
        # shares them (they are read-only in the solver).
        self._protos: Dict[str, CompiledFlowBatch] = {}

    @property
    def num_flows(self) -> int:
        """Flows in the structure."""
        return len(self.flow_ptr) - 1

    @property
    def num_links(self) -> int:
        """Distinct links crossed by the structure."""
        return len(self.link_ids)

    def path_latencies(self, latency_of: Dict[LinkId, float]) -> np.ndarray:
        """Per-flow path latency under ``latency_of`` (with multiplicity,
        matching a plain sum over each path's links)."""
        try:
            lat = np.array([latency_of[lid] for lid in self.link_ids],
                           dtype=float)
        except KeyError as exc:
            raise SimulationError(
                f"flow crosses unknown link {exc.args[0]!r}") from None
        out = np.zeros(self.num_flows)
        np.add.at(out, self.flow_of, lat[self.flow_links])
        return out

    def bind(self, capacities: Dict[LinkId, float]) -> CompiledFlowBatch:
        """A :class:`CompiledFlowBatch` of this structure under
        ``capacities``, on the :func:`resolve_backend` backend.

        The first bind per backend builds the incidence operators;
        later binds reuse them and only materialize the new capacity
        vector, so rebinding across sweep cells is O(links).  Raises
        exactly as :func:`compile_paths` does on unknown links or
        non-positive capacities.
        """
        try:
            cap = np.array([capacities[lid] for lid in self.link_ids],
                           dtype=float)
        except KeyError as exc:
            raise SimulationError(
                f"flow crosses unknown link {exc.args[0]!r}") from None
        if np.any(cap <= 0):
            raise SimulationError("link capacities must be positive")
        concrete = resolve_backend(self.num_flows)
        proto = self._protos.get(concrete)
        if proto is None:
            proto = CompiledFlowBatch(
                link_ids=self.link_ids, cap=cap, flow_ptr=self.flow_ptr,
                flow_links=self.flow_links, flow_of=self.flow_of,
                inc_flows=self.inc_flows, inc_links=self.inc_links,
                loopback=self.loopback, backend=concrete)
            self._protos[concrete] = proto
            return proto
        clone = CompiledFlowBatch.__new__(CompiledFlowBatch)
        for slot in CompiledFlowBatch.__slots__:
            setattr(clone, slot, getattr(proto, slot))
        clone.cap = cap
        return clone


def compile_structure(paths: Sequence[Tuple[LinkId, ...]],
                      ) -> FlowBatchStructure:
    """Compile a batch of flow paths into their capacity-free structure.

    Links are indexed in first-use order (flow-major), matching the
    historical solver exactly.  See :class:`FlowBatchStructure` for the
    bind step that turns this into a solvable batch.
    """
    n = len(paths)
    used_links: List[LinkId] = []
    index_of: Dict[LinkId, int] = {}
    flow_links: List[int] = []
    flow_ptr = np.zeros(n + 1, dtype=np.intp)
    for j, path in enumerate(paths):
        for lid in path:
            idx = index_of.get(lid)
            if idx is None:
                idx = len(used_links)
                index_of[lid] = idx
                used_links.append(lid)
            flow_links.append(idx)
        flow_ptr[j + 1] = len(flow_links)

    m = len(used_links)
    links_arr = np.asarray(flow_links, dtype=np.intp)
    counts = np.diff(flow_ptr)
    flow_of = np.repeat(np.arange(n, dtype=np.intp), counts)
    if links_arr.size:
        # Dedupe (flow, link) pairs: the incidence counts a link once
        # per crossing flow even if a (degenerate) path repeats it.
        # Sorted, then the first of each run kept: what np.unique
        # returns, without the numpy.ma import np.unique makes.
        enc = np.sort(flow_of * m + links_arr)
        enc = enc[np.concatenate(([True], enc[1:] != enc[:-1]))]
        inc_flows = enc // m
        inc_links = enc - inc_flows * m
    else:
        inc_flows = np.zeros(0, dtype=np.intp)
        inc_links = np.zeros(0, dtype=np.intp)
    return FlowBatchStructure(link_ids=tuple(used_links),
                              flow_ptr=flow_ptr, flow_links=links_arr,
                              flow_of=flow_of, inc_flows=inc_flows,
                              inc_links=inc_links, loopback=counts == 0)


def compile_paths(paths: Sequence[Tuple[LinkId, ...]],
                  capacities: Dict[LinkId, float]) -> CompiledFlowBatch:
    """Compile a batch of flow paths against ``capacities``.

    Links are indexed in first-use order (flow-major), matching the
    historical solver exactly; a path crossing a link with no declared
    capacity raises, as does a non-positive capacity.  The incidence
    representation follows the batch size (see module docstring).
    One-shot convenience over :func:`compile_structure` +
    :meth:`FlowBatchStructure.bind`; callers re-posing one pattern
    under many capacity sets keep the structure and rebind instead.
    """
    return compile_structure(paths).bind(capacities)


def compile_flows(flows: Sequence[Flow],
                  capacities: Dict[LinkId, float]) -> CompiledFlowBatch:
    """:func:`compile_paths` over ``Flow`` objects."""
    return compile_paths([f.path for f in flows], capacities)


def progressive_fill(batch: CompiledFlowBatch,
                     active: Optional[np.ndarray] = None) -> np.ndarray:
    """Max-min fair rates over ``batch`` restricted to ``active`` flows.

    ``active`` is a boolean mask aligned with the batch (``None`` means
    every flow).  Inactive flows get rate 0; loopback flows get
    ``inf``.  Every call solves from zero, so a restricted solve is
    bit-for-bit a fresh solve over the subset.
    """
    n = batch.num_flows
    rates = np.zeros(n)
    if n == 0:
        return rates

    act = np.ones(n, dtype=bool) if active is None else active
    if batch.any_loopback:
        rates[batch.loopback] = np.inf
        filling = act & ~batch.loopback
    else:
        filling = act.copy()

    m = batch.num_links
    if m == 0 or not filling.any():
        return rates
    residual = batch.cap.copy()
    filling_f = filling.astype(np.float64)

    # Progressive filling: at most one link saturates per round, so the
    # loop runs at most m times.  The arithmetic mirrors the historical
    # per-event solver operation for operation.
    for _ in range(m + 1):
        counts = batch.link_counts(filling_f)
        hot_idx = np.nonzero(counts)[0]
        if not hot_idx.size:  # pragma: no cover - defensive
            break
        fair_hot = residual[hot_idx] / counts[hot_idx]
        bottleneck = float(fair_hot.min())
        if not np.isfinite(bottleneck):  # pragma: no cover - defensive
            break
        # Grant the increment to every filling flow.
        rates[filling] += bottleneck
        residual -= counts * bottleneck
        residual = np.maximum(residual, 0.0)
        # Freeze flows on saturated links.
        sat_idx = hot_idx[fair_hot <= bottleneck + 1e-15]
        frozen = batch.flows_on(sat_idx, filling)
        if not frozen.any():  # pragma: no cover - defensive
            break
        filling = filling & ~frozen
        if not filling.any():
            break
        filling_f[frozen] = 0.0
    else:  # pragma: no cover - defensive
        raise SimulationError("progressive filling failed to converge")
    return rates


def max_min_fair_rates(
    flows: Sequence[Flow],
    capacities: Dict[LinkId, float],
) -> np.ndarray:
    """Max-min fair rates for ``flows`` under ``capacities``.

    Returns an array of rates (bytes/s) aligned with ``flows``.  Flows
    with an empty path (loopback) get infinite rate.  Raises if a flow
    crosses a link with no declared capacity.  One-shot convenience
    over :func:`compile_flows` + :func:`progressive_fill`; hot loops
    compile once and fill many times instead.
    """
    if not flows:
        return np.zeros(0)
    batch = compile_flows(flows, capacities)
    if batch.num_links == 0:
        # Every flow is loopback: the historical solver reported inf
        # for the whole batch.
        return np.full(batch.num_flows, np.inf)
    return progressive_fill(batch)


def validate_allocation(
    flows: Sequence[Flow],
    capacities: Dict[LinkId, float],
    rates: np.ndarray,
    rtol: float = 1e-9,
) -> None:
    """Check feasibility + bottleneck saturation of a rate allocation.

    *Feasibility*: no link carries more than its capacity.
    *Max-min optimality witness*: every flow crosses at least one saturated
    link (otherwise its rate could be raised, contradicting max-min).
    Raises :class:`SimulationError` on violation; used by property tests.
    """
    load: Dict[LinkId, float] = {lid: 0.0 for lid in capacities}
    for f, r in zip(flows, rates):
        if not np.isfinite(r) and f.path:
            raise SimulationError("finite-path flow got infinite rate")
        for lid in f.path:
            load[lid] += r
    for lid, used in load.items():
        if used > capacities[lid] * (1 + rtol) + 1e-12:
            raise SimulationError(
                f"link {lid!r} overloaded: {used} > {capacities[lid]}")
    saturated = {lid for lid, used in load.items()
                 if used >= capacities[lid] * (1 - 1e-6) - 1e-12}
    for f, r in zip(flows, rates):
        if f.path and not any(lid in saturated for lid in f.path):
            raise SimulationError(
                f"flow {f.src}->{f.dst} crosses no saturated link "
                f"(rate {r}); allocation is not max-min")
