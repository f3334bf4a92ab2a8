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
  restricted to an *active mask*, and can **warm-start** from the
  previous event's recorded solve (:class:`FillState`): when the active
  set only *shrank* (flows completed), every filling round up to the
  first bottleneck touched by a completed flow is *replayed* from the
  record in O(links) vector ops instead of re-solved — the incremental
  active-set solver the event loop rides on.

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
pre-refactor implementation in ``repro.simulation._reference``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib.util import find_spec
from math import inf
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple, Union

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
                 "inc_flows", "inc_links", "inc_ptr", "loopback",
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
        # inc_* entries are flow-major sorted; per-flow pointers let
        # the warm-start path slice a removed flow's links directly.
        n = len(flow_ptr) - 1
        self.inc_ptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(inc_flows, minlength=n),
                  out=self.inc_ptr[1:])
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


class FillState:
    """The recorded trajectory of one progressive-filling solve.

    One entry per filling round, flattened into arrays so the next
    event can warm-start without per-round Python work:

    * ``bottlenecks[r]`` / ``levels[r]`` — the round's fair-share
      increment and the cumulative level a flow frozen in round ``r``
      ends at (accumulated with the exact float additions the solver
      performs, so replayed rates are bit-for-bit);
    * ``sat_cat``/``sat_ptr`` — per-round saturated link indices
      (CSR-style);
    * ``frozen_cat``/``frozen_ptr`` — per-round frozen flow indices;
    * ``counts`` — the (rounds x links) per-round link count vectors
      (needed to replay residual-capacity updates exactly);
    * ``active`` — the solve's active mask; ``rates`` — its result.

    The warm-start contract (proved in :func:`progressive_fill`): when
    the next event's active set is a *subset* (flows completed, none
    admitted), every round whose saturated links avoid the completed
    flows' links is untouched — same bottleneck, same frozen set, same
    float arithmetic — and can be replayed from this record.
    """

    __slots__ = ("active", "nrounds", "bottlenecks", "levels",
                 "sat_cat", "sat_ptr", "frozen_cat", "frozen_ptr",
                 "frozen_levels", "counts", "rates", "replayed")

    def __init__(self, active: np.ndarray, bottlenecks: np.ndarray,
                 levels: np.ndarray, sat_cat: np.ndarray,
                 sat_ptr: np.ndarray, frozen_cat: np.ndarray,
                 frozen_ptr: np.ndarray, frozen_levels: np.ndarray,
                 counts: np.ndarray, rates: np.ndarray,
                 replayed: int = 0) -> None:
        self.active = active
        self.nrounds = len(bottlenecks)
        #: Rounds this solve replayed from its warm state (0 for a cold
        #: solve) — the event loop's signal for adaptive warm-starting.
        self.replayed = replayed
        self.bottlenecks = bottlenecks
        self.levels = levels
        self.sat_cat = sat_cat
        self.sat_ptr = sat_ptr
        self.frozen_cat = frozen_cat
        self.frozen_ptr = frozen_ptr
        #: ``frozen_cat``-aligned cumulative level per frozen flow (the
        #: exact float its rate froze at) — lets the replay assign all
        #: prefix rates in one fancy index.
        self.frozen_levels = frozen_levels
        self.counts = counts
        self.rates = rates


def _pack_rounds(lists: List[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate per-round index arrays into (cat, ptr) CSR form."""
    ptr = np.zeros(len(lists) + 1, dtype=np.intp)
    for i, arr in enumerate(lists):
        ptr[i + 1] = ptr[i] + len(arr)
    cat = (np.concatenate(lists) if lists
           else np.zeros(0, dtype=np.intp))
    return cat, ptr


FillResultT = Union[np.ndarray, Tuple[np.ndarray, Optional[FillState]]]


def _delta_links(batch: CompiledFlowBatch,
                 idx: Optional[np.ndarray]) -> np.ndarray:
    """Concatenated link indices of the (deduped) paths of flows ``idx``."""
    if idx is None or len(idx) == 0:
        return np.zeros(0, dtype=np.intp)
    ptr = batch.inc_ptr
    if len(idx) == 1:
        i = int(idx[0])
        return batch.inc_links[ptr[i]:ptr[i + 1]]
    return np.concatenate(
        [batch.inc_links[ptr[int(i)]:ptr[int(i) + 1]] for i in idx])


def progressive_fill(batch: CompiledFlowBatch,
                     active: Optional[np.ndarray] = None,
                     *, warm: Optional[FillState] = None,
                     removed: Optional[np.ndarray] = None,
                     added: Optional[np.ndarray] = None,
                     record: bool = False) -> FillResultT:
    """Max-min fair rates over ``batch`` restricted to ``active`` flows.

    ``active`` is a boolean mask aligned with the batch (``None`` means
    every flow).  Inactive flows get rate 0; loopback flows get
    ``inf``.  Returns the rates array, or ``(rates, FillState)`` when
    ``record`` is true (the state is ``None`` for degenerate batches).

    ``warm`` is a :class:`FillState` recorded on the same batch over an
    active set that differs from the current one by removals (flows
    completed) and/or additions (flows admitted); a record from a
    different batch silently falls back to a cold solve.  The solver
    replays recorded rounds up to the first round the deltas touch and
    re-solves only from there.  Replayed solves are **bit-for-bit**
    what the cold solve computes, by the following argument.
    *Removals*: a removed flow stays filling through every replayed
    round (its links hold no saturated link there, so it never froze),
    hence the new per-round link counts are exactly
    ``counts - removed_counts`` (small-integer float math); links the
    removed flows do not cross keep identical floats, links they do
    cross only see their fair share *rise* (counts shrink, residuals
    grow, and float subtraction/division are monotone), so a link
    strictly above the bottleneck's tie tolerance stays above it.  The
    replay stops at the first round whose saturated links touch a
    removed flow.  *Additions*: an added flow starts filling in round 0
    and only *lowers* fair shares on the links it crosses, so the
    replay additionally walks the recorded rounds computing the exact
    new fair share ``residual' / (counts - removed + added)`` on every
    addition-touched link and stops at the first round where one of
    them falls within the recorded bottleneck's tie tolerance (it
    would have saturated earlier, changing the trajectory).  Below
    that round nothing else changed: the recorded saturated links are
    touched by neither delta, so their fair shares are the identical
    floats, the bottleneck and frozen sets are unchanged, and no added
    flow freezes inside the replayed prefix.

    ``removed`` / ``added`` are an optional fast path for trusted
    callers (the event loop): the exact indices dropped from / admitted
    into ``warm``'s active set since it was recorded.  When either is
    given, the solver skips the mask-diff validation and slices the
    delta flows' links straight from the batch CSR.  Both are ignored
    without ``warm``; passing indices that do not match ``active``'s
    true difference voids the warm-start contract.
    """
    n = batch.num_flows
    rates = np.zeros(n)
    if n == 0:
        return (rates, None) if record else rates

    act = np.ones(n, dtype=bool) if active is None else active
    if batch.any_loopback:
        rates[batch.loopback] = np.inf
        filling = act & ~batch.loopback
    else:
        filling = act.copy()

    m = batch.num_links
    if m == 0:
        return (rates, None) if record else rates

    # -- warm-start: replay the previous event's recorded rounds ----------
    state = warm
    d_links: Optional[np.ndarray] = None
    a_links: Optional[np.ndarray] = None
    if state is not None and (removed is not None or added is not None):
        # Trusted caller: `removed`/`added` name the delta flows exactly.
        if (removed is None or len(removed) == 0) \
                and (added is None or len(added) == 0):
            return ((state.rates.copy(), state) if record
                    else state.rates.copy())
        d_links = _delta_links(batch, removed)
        a_links = _delta_links(batch, added)
    elif state is not None:
        if state.active.shape[0] != n:
            state = None  # a foreign record: solve cold
        else:
            removed_mask = state.active & ~act
            added_mask = act & ~state.active
            if not removed_mask.any() and not added_mask.any():
                # Identical active set: the record *is* this solve.
                return ((state.rates.copy(), state) if record
                        else state.rates.copy())
            d_links = batch.inc_links[removed_mask[batch.inc_flows]]
            a_links = batch.inc_links[added_mask[batch.inc_flows]]
    rstar = 0
    dcounts: Optional[np.ndarray] = None
    acounts: Optional[np.ndarray] = None
    residual: Optional[np.ndarray] = None
    if state is not None:
        d_mask = np.zeros(m, dtype=bool)
        d_mask[d_links] = True
        bad = np.flatnonzero(d_mask[state.sat_cat])
        if bad.size:
            rstar = int(np.searchsorted(state.sat_ptr, bad[0],
                                        side="right")) - 1
        else:
            rstar = state.nrounds
        dcounts = np.bincount(d_links, minlength=m).astype(np.float64)
        acounts = np.bincount(a_links, minlength=m).astype(np.float64)
        if a_links.size:
            # Addition divergence: walk the prefix computing the exact
            # new fair share on every addition-touched link and stop at
            # the first round one falls within the recorded tie
            # tolerance.  Counts on touched links stay >= 1 (each is
            # crossed by an added flow) so the divisions are safe.
            touched = np.flatnonzero(acounts)
            resid_t = batch.cap[touched].copy()
            cnt_adj = acounts[touched] - dcounts[touched]
            for j in range(rstar):
                cnt = state.counts[j][touched] + cnt_adj
                fair = resid_t / cnt
                if float(fair.min()) <= state.bottlenecks[j] + 1e-15:
                    rstar = j
                    break
                resid_t -= cnt * state.bottlenecks[j]
                np.maximum(resid_t, 0.0, out=resid_t)
        if rstar > 0:
            fcut = int(state.frozen_ptr[rstar])
            frozen_pre = state.frozen_cat[:fcut]
            rates[frozen_pre] = state.frozen_levels[:fcut]
            filling[frozen_pre] = False
            rates[filling] = state.levels[rstar - 1]
        if filling.any():
            # Resuming the fill loop needs the residual capacities at
            # round ``rstar`` — replay the recorded updates with the
            # removed flows' (exact integer) contribution subtracted.
            residual = batch.cap.copy()
            for s in range(rstar):
                residual -= ((state.counts[s] - dcounts + acounts)
                             * state.bottlenecks[s])
                np.maximum(residual, 0.0, out=residual)

    # -- the filling loop (cold, or resumed past the replayed prefix) ----
    app_b: List[float] = []
    app_lvl: List[float] = []
    app_sat: List[np.ndarray] = []
    app_frozen: List[np.ndarray] = []
    app_counts: List[np.ndarray] = []
    clean = True
    if filling.any():
        if residual is None:
            residual = batch.cap.copy()
        level = float(state.levels[rstar - 1]) \
            if (state is not None and rstar > 0) else 0.0
        filling_f = filling.astype(np.float64)

        # Progressive filling: at most one link saturates per round, so
        # the loop runs at most m times.  The arithmetic mirrors the
        # historical per-event solver operation for operation, so
        # restricted solves are bit-for-bit what a fresh solve over the
        # subset returns.
        for _ in range(m + 1):
            counts = batch.link_counts(filling_f)
            hot_idx = np.nonzero(counts)[0]
            if not hot_idx.size:  # pragma: no cover - defensive
                clean = False
                break
            fair_hot = residual[hot_idx] / counts[hot_idx]
            bottleneck = float(fair_hot.min())
            if not np.isfinite(bottleneck):  # pragma: no cover - defensive
                clean = False
                break
            # Grant the increment to every filling flow.
            rates[filling] += bottleneck
            residual -= counts * bottleneck
            residual = np.maximum(residual, 0.0)
            # Freeze flows on saturated links.
            sat_idx = hot_idx[fair_hot <= bottleneck + 1e-15]
            frozen = batch.flows_on(sat_idx, filling)
            if not frozen.any():  # pragma: no cover - defensive
                clean = False
                break
            if record:
                level = level + bottleneck
                app_b.append(bottleneck)
                app_lvl.append(level)
                app_sat.append(sat_idx)
                app_frozen.append(np.nonzero(frozen)[0])
                app_counts.append(counts)
            filling = filling & ~frozen
            if not filling.any():
                break
            filling_f[frozen] = 0.0
        else:  # pragma: no cover - defensive
            raise SimulationError("progressive filling failed to converge")

    if not record:
        return rates
    if not clean:  # pragma: no cover - defensive
        return rates, None

    # -- assemble the new record (prefix of the replay + fresh rounds) ----
    active_copy = act.copy()
    if state is not None and not app_b:
        # Pure replay (possibly truncated): the trajectory is a prefix
        # of the old one with the removed flows' link counts shifted
        # out — array views, no concatenation.
        full = rstar == state.nrounds
        new_state = FillState(
            active=active_copy,
            bottlenecks=state.bottlenecks if full
            else state.bottlenecks[:rstar],
            levels=state.levels if full else state.levels[:rstar],
            sat_cat=state.sat_cat if full
            else state.sat_cat[:state.sat_ptr[rstar]],
            sat_ptr=state.sat_ptr if full
            else state.sat_ptr[:rstar + 1],
            frozen_cat=state.frozen_cat if full
            else state.frozen_cat[:state.frozen_ptr[rstar]],
            frozen_ptr=state.frozen_ptr if full
            else state.frozen_ptr[:rstar + 1],
            frozen_levels=state.frozen_levels if full
            else state.frozen_levels[:state.frozen_ptr[rstar]],
            counts=(state.counts if full else state.counts[:rstar])
            - dcounts + acounts,
            rates=rates.copy(), replayed=rstar)
        return rates, new_state

    app_fro_cat, app_fro_ptr = _pack_rounds(app_frozen)
    app_fro_levels = np.repeat(np.asarray(app_lvl),
                               np.diff(app_fro_ptr))
    if state is not None and rstar > 0:
        pre_counts = state.counts[:rstar] - dcounts + acounts
        bottlenecks = np.concatenate(
            [state.bottlenecks[:rstar], np.asarray(app_b)])
        levels = np.concatenate(
            [state.levels[:rstar], np.asarray(app_lvl)])
        app_sat_cat, app_sat_ptr = _pack_rounds(app_sat)
        sat_cat = np.concatenate(
            [state.sat_cat[:state.sat_ptr[rstar]], app_sat_cat])
        sat_ptr = np.concatenate(
            [state.sat_ptr[:rstar + 1],
             state.sat_ptr[rstar] + app_sat_ptr[1:]])
        frozen_cat = np.concatenate(
            [state.frozen_cat[:state.frozen_ptr[rstar]], app_fro_cat])
        frozen_ptr = np.concatenate(
            [state.frozen_ptr[:rstar + 1],
             state.frozen_ptr[rstar] + app_fro_ptr[1:]])
        frozen_levels = np.concatenate(
            [state.frozen_levels[:state.frozen_ptr[rstar]],
             app_fro_levels])
        counts_mat = (np.concatenate([pre_counts, np.asarray(app_counts)])
                      if app_counts else pre_counts)
    else:
        bottlenecks = np.asarray(app_b)
        levels = np.asarray(app_lvl)
        sat_cat, sat_ptr = _pack_rounds(app_sat)
        frozen_cat, frozen_ptr = app_fro_cat, app_fro_ptr
        frozen_levels = app_fro_levels
        counts_mat = (np.asarray(app_counts) if app_counts
                      else np.zeros((0, m)))
    new_state = FillState(
        active=active_copy, bottlenecks=bottlenecks, levels=levels,
        sat_cat=sat_cat, sat_ptr=sat_ptr, frozen_cat=frozen_cat,
        frozen_ptr=frozen_ptr, frozen_levels=frozen_levels,
        counts=counts_mat, rates=rates.copy(), replayed=rstar)
    return rates, new_state


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
