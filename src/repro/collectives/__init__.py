"""Collective-communication schedules: Wrht and baselines.

A *schedule* (see :mod:`~repro.collectives.schedule`) is the topology-
agnostic IR shared by every algorithm: a sequence of synchronous steps,
each a set of concurrent point-to-point transfers with reduce-or-copy
semantics at the receiver.  Generators:

* :func:`~repro.collectives.ring_allreduce.generate_ring_allreduce` —
  the classic bandwidth-optimal ring (E-Ring on electrical hardware,
  O-Ring on the optical ring);
* :func:`~repro.collectives.recursive_doubling.generate_recursive_doubling`
  — the RD baseline of the paper;
* :func:`~repro.collectives.halving_doubling.generate_halving_doubling` —
  Rabenseifner's reduce-scatter/all-gather (extension baseline);
* :func:`~repro.collectives.binomial_tree.generate_binomial_tree` —
  tree reduce + broadcast (extension baseline);
* :func:`~repro.collectives.alltoall_wdm.generate_alltoall_reduce` —
  single-step all-to-all used by Wrht's last reduce step;
* :func:`~repro.collectives.wrht.generate_wrht` — **the paper's
  contribution**.

The name-addressable families (ring, recursive doubling,
halving-doubling, binomial tree) are registered once in
:mod:`~repro.collectives.registry` (:data:`COLLECTIVES`,
:data:`STEP_COUNTS`, :func:`generate_collective`).

Every generated schedule can be proven correct with
:func:`~repro.collectives.verifier.verify_allreduce`.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".schedule": ("Schedule", "Step", "Transfer", "TransferOp"),
    ".verifier": ("verify_allreduce",),
    ".ring_allreduce": ("generate_ring_allreduce",),
    ".recursive_doubling": ("generate_recursive_doubling",),
    ".halving_doubling": ("generate_halving_doubling",),
    ".binomial_tree": ("generate_binomial_tree",),
    ".hierarchical_ring": ("generate_hierarchical_ring",),
    ".alltoall_wdm": ("generate_alltoall_reduce",
                      "alltoall_wavelength_requirement"),
    ".wrht": ("generate_wrht", "WrhtParameters", "WrhtScheduleInfo"),
    ".wrht_pipelined": ("generate_wrht_pipelined",),
    ".registry": ("COLLECTIVES", "STEP_COUNTS", "generate_collective"),
    ".analysis": ("analysis",),
})
