"""MPI-style communicator over the simulated optical rack.

The adoption-facing API: construct a :class:`Communicator` for a system,
then call collectives on per-rank numpy arrays.  Every call returns the
numerically-correct result *and* the modelled execution report, so a
user can prototype a distributed training loop against the simulated
TeraRack.

Collectives: ``allreduce`` (Wrht/O-Ring/E-Ring/RD), ``reduce``,
``broadcast`` (binomial trees rooted anywhere), ``allgather`` (ring).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..collectives.binomial_tree import generate_binomial_tree
from ..collectives.schedule import Schedule, Transfer, TransferOp
from ..config import (ElectricalSystem, OpticalRingSystem, Workload,
                      default_electrical, default_optical)
from ..errors import ConfigurationError
from .allreduce_api import AllreduceOutcome, _execute_numeric, allreduce
from .substrates import ExecutionReport, OpticalRingSubstrate


@dataclass
class CollectiveOutcome:
    """Result arrays plus the modelled execution report."""

    data: List[np.ndarray]
    report: ExecutionReport
    collective: str


def _relabel(schedule: Schedule, root: int, name: str) -> Schedule:
    """Rotate ranks so the schedule's rank 0 becomes ``root``."""
    n = schedule.num_nodes
    out = Schedule(num_nodes=n, num_chunks=schedule.num_chunks, name=name)
    for step in schedule.steps:
        out.add_step(Transfer(
            src=(t.src + root) % n, dst=(t.dst + root) % n,
            chunks=t.chunks, op=t.op, direction_hint=None)
            for t in step)
    return out


def _split_tree(num_nodes: int) -> tuple:
    """(reduce-half, broadcast-half) of the binomial tree schedule."""
    full = generate_binomial_tree(num_nodes)
    k = full.num_steps // 2
    red = Schedule(num_nodes=num_nodes, num_chunks=1, name="tree-reduce")
    bc = Schedule(num_nodes=num_nodes, num_chunks=1, name="tree-bcast")
    for step in full.steps[:k]:
        red.add_step(step.transfers)
    for step in full.steps[k:]:
        bc.add_step(step.transfers)
    return red, bc


def _allgather_schedule(num_nodes: int) -> Schedule:
    """Ring all-gather: node i circulates chunk (i−s) mod n with COPY."""
    sched = Schedule(num_nodes=num_nodes, num_chunks=num_nodes,
                     name=f"ring-allgather-n{num_nodes}")
    for s in range(num_nodes - 1):
        sched.add_step(
            Transfer(src=i, dst=(i + 1) % num_nodes,
                     chunks=((i - s) % num_nodes,),
                     op=TransferOp.COPY, direction_hint="cw")
            for i in range(num_nodes))
    return sched


class Communicator:
    """A group of ``size`` ranks on one simulated system."""

    def __init__(self, size: int,
                 optical: Optional[OpticalRingSystem] = None,
                 electrical: Optional[ElectricalSystem] = None) -> None:
        if size < 2:
            raise ConfigurationError("a communicator needs >= 2 ranks")
        self.size = size
        self.optical = optical if optical is not None \
            else default_optical(size)
        self.electrical = electrical if electrical is not None \
            else default_electrical(size)
        if self.optical.num_nodes != size:
            raise ConfigurationError("optical system size mismatch")
        # One substrate for the communicator's lifetime: the optical
        # network and RWA cache stay warm across repeated collectives.
        self._optical_substrate = OpticalRingSubstrate(self.optical)

    # -- collectives -------------------------------------------------------

    def allreduce(self, arrays: Sequence[np.ndarray],
                  algorithm: str = "wrht") -> AllreduceOutcome:
        """Element-wise sum on every rank (see :func:`allreduce`)."""
        self._check(arrays)
        sub = (self._optical_substrate
               if algorithm in ("wrht", "o-ring") else None)
        return allreduce(arrays, algorithm=algorithm, optical=self.optical,
                         electrical=self.electrical, substrate=sub)

    def reduce(self, arrays: Sequence[np.ndarray],
               root: int = 0) -> CollectiveOutcome:
        """Element-wise sum delivered to ``root`` (binomial tree)."""
        self._check(arrays)
        self._check_rank(root)
        red, _ = _split_tree(self.size)
        sched = _relabel(red, root, f"tree-reduce-root{root}")
        report = self._run_optical(sched, arrays)
        flat = [np.asarray(a, np.float64).reshape(-1) for a in arrays]
        final = _execute_numeric(sched, flat)
        shape = np.asarray(arrays[0]).shape
        out = [f.reshape(shape) for f in final]
        return CollectiveOutcome(out, report, "reduce")

    def broadcast(self, arrays: Sequence[np.ndarray],
                  root: int = 0) -> CollectiveOutcome:
        """Every rank receives ``arrays[root]`` (binomial tree)."""
        self._check(arrays)
        self._check_rank(root)
        _, bc = _split_tree(self.size)
        sched = _relabel(bc, root, f"tree-bcast-root{root}")
        report = self._run_optical(sched, arrays)
        flat = [np.asarray(a, np.float64).reshape(-1) for a in arrays]
        final = _execute_numeric(sched, flat)
        shape = np.asarray(arrays[0]).shape
        return CollectiveOutcome([f.reshape(shape) for f in final],
                                 report, "broadcast")

    def allgather(self, arrays: Sequence[np.ndarray]) -> CollectiveOutcome:
        """Every rank receives the concatenation of all ranks' arrays."""
        self._check(arrays)
        n = self.size
        sched = _allgather_schedule(n)
        report = self._run_optical(sched, arrays)
        # Place rank i's data in chunk i; circulate.
        flats = [np.asarray(a, np.float64).reshape(-1) for a in arrays]
        width = flats[0].size
        state = [np.zeros(n * width) for _ in range(n)]
        for i, f in enumerate(flats):
            state[i][i * width:(i + 1) * width] = f
        final = _execute_numeric(sched, state)
        return CollectiveOutcome(final, report, "allgather")

    # -- helpers --------------------------------------------------------------

    def _run_optical(self, sched: Schedule,
                     arrays: Sequence[np.ndarray]) -> ExecutionReport:
        nbytes = int(np.asarray(arrays[0]).astype(np.float64).nbytes)
        wl = Workload(data_bytes=max(nbytes, 1), name=sched.name,
                      dtype_bytes=8)
        return self._optical_substrate.execute(sched, wl)

    def _check(self, arrays: Sequence[np.ndarray]) -> None:
        if len(arrays) != self.size:
            raise ConfigurationError(
                f"expected {self.size} rank arrays, got {len(arrays)}")
        shapes = {np.asarray(a).shape for a in arrays}
        if len(shapes) != 1:
            raise ConfigurationError(f"rank arrays differ: {shapes}")

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self.size):
            raise ConfigurationError(
                f"rank {rank} out of range [0, {self.size})")
