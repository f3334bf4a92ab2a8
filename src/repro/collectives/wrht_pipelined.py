"""Pipelined Wrht — chunked software pipelining of the hierarchy
(extension / future-work direction).

Plain Wrht serializes whole vectors level by level: a vector traverses
``L`` levels in ``L`` full-size steps.  Splitting the payload into ``C``
chunks and pipelining them through the levels turns this into
``L + C − 1`` steps of ``S/C`` each — the classic pipelined-tree
transformation.  The catch on a WDM ring: at steady state up to
``min(L, C)`` levels are active *simultaneously*, so their wavelength
demands add and the striping factor shrinks; the EXT-A8 ablation
quantifies when the trade wins.

Construction: take the Wrht stage structure (reduce levels, optional
all-to-all, broadcast levels) and emit, at pipeline step ``t``, stage
``s``'s transfers restricted to chunk ``t − s`` whenever
``0 ≤ t − s < C``.  Chunk ``c`` crosses stage ``s`` strictly after
stage ``s−1`` processed it, so synchronous-round semantics give the
same reduction as the unpipelined schedule — the verifier proves it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import ConfigurationError
from .schedule import Schedule, Transfer, TransferOp
from .wrht import (WrhtParameters, WrhtScheduleInfo, wrht_steps,
                   wrht_structure)


@dataclass(frozen=True)
class _StageTemplate:
    """One pipeline stage: transfer endpoints without chunk binding."""

    transfers: Tuple[Tuple[int, int, TransferOp, Optional[str]], ...]


def _wrht_stages(params: WrhtParameters
                 ) -> Tuple[List[_StageTemplate], WrhtScheduleInfo]:
    """The per-step transfer templates of the base Wrht schedule, in
    its step order (:func:`~repro.collectives.wrht.wrht_steps`),
    without building the schedule."""
    info = wrht_structure(params)
    stages = [_StageTemplate(tuple(
        (t.src, t.dst, t.op, t.direction_hint) for t in step))
        for step in wrht_steps(info)]
    return stages, info


def generate_wrht_pipelined(params: WrhtParameters, num_chunks: int,
                            ) -> Tuple[Schedule, WrhtScheduleInfo]:
    """Build the C-chunk pipelined Wrht schedule.

    ``num_chunks == 1`` reproduces plain Wrht.  Returns
    ``(schedule, info)`` with the same :class:`WrhtScheduleInfo` as the
    base generator.
    """
    if num_chunks < 1:
        raise ConfigurationError(
            f"num_chunks must be >= 1, got {num_chunks}")
    stages, info = _wrht_stages(params)
    sched = Schedule(
        num_nodes=params.num_nodes, num_chunks=num_chunks,
        name=f"wrht-pipe-n{params.num_nodes}-m{params.group_size}"
             f"-c{num_chunks}")
    if not stages:
        return sched, info

    num_stages = len(stages)
    for t in range(num_stages + num_chunks - 1):
        transfers: List[Transfer] = []
        for s, stage in enumerate(stages):
            c = t - s
            if 0 <= c < num_chunks:
                for src, dst, op, hint in stage.transfers:
                    transfers.append(Transfer(
                        src=src, dst=dst, chunks=(c,), op=op,
                        direction_hint=hint))
        if transfers:
            sched.add_step(transfers)
    return sched, info


def pipelined_step_count(params: WrhtParameters, num_chunks: int) -> int:
    """Closed form: ``stages + C − 1``, one stage per step of the base
    Wrht schedule (:attr:`WrhtScheduleInfo.num_steps`)."""
    stages = wrht_structure(params).num_steps
    if stages == 0:
        return 0
    return stages + num_chunks - 1
