"""Recursive-doubling all-reduce (the paper's RD baseline).

Power-of-two core: in step ``s`` every rank exchanges its **entire**
working vector with the partner ``rank XOR 2^s`` and both accumulate —
``log2(n)`` steps of full-size transfers.  Latency-optimal, bandwidth-
hungry: exactly the behaviour that makes RD lose to Ring for large DNN
gradients in Fig. 2.

Non-power-of-two ranks use the standard MPICH fold: with
``r = N - 2^⌊log2 N⌋``, the first ``2r`` ranks pair up — odd ranks fold
their vector into the even neighbour (pre-step), the ``n = N - r``
survivors run the power-of-two exchange, and a post-step copies the
result back to the folded ranks.
"""

from __future__ import annotations

from ..errors import ScheduleError
from .schedule import Schedule, Transfer, TransferOp


def _largest_pow2_leq(n: int) -> int:
    p = 1
    while p * 2 <= n:
        p *= 2
    return p


def generate_recursive_doubling(num_nodes: int) -> Schedule:
    """Build the recursive-doubling schedule for ``num_nodes`` ranks."""
    sched = Schedule(num_nodes=num_nodes, num_chunks=1,
                     name=f"recursive-doubling-n{num_nodes}")
    if num_nodes == 1:
        return sched

    n = _largest_pow2_leq(num_nodes)
    r = num_nodes - n
    full = range(1)  # the single chunk

    # Pre-fold: ranks 0..2r-1 pair (even, odd); odd folds into even.
    if r > 0:
        sched.add_step(
            Transfer(src=2 * i + 1, dst=2 * i, chunks=full,
                     op=TransferOp.REDUCE)
            for i in range(r))

    # Participants and their dense "effective ranks".
    participants = [2 * i for i in range(r)] + list(range(2 * r, num_nodes))
    if len(participants) != n:
        raise ScheduleError(
            f"recursive doubling folded {num_nodes} ranks into "
            f"{len(participants)} participants, expected {n}")

    mask = 1
    while mask < n:
        transfers = []
        for eff, node in enumerate(participants):
            partner = participants[eff ^ mask]
            transfers.append(Transfer(src=node, dst=partner, chunks=full,
                                      op=TransferOp.REDUCE))
        sched.add_step(transfers)
        mask *= 2

    # Post-unfold: even ranks copy the result to their folded odd partner.
    if r > 0:
        sched.add_step(
            Transfer(src=2 * i, dst=2 * i + 1, chunks=full,
                     op=TransferOp.COPY)
            for i in range(r))

    return sched


def recursive_doubling_step_count(num_nodes: int) -> int:
    """Closed form: ``log2(n)`` (+2 when a fold is needed)."""
    if num_nodes <= 1:
        return 0
    n = _largest_pow2_leq(num_nodes)
    steps = n.bit_length() - 1
    return steps + (2 if num_nodes != n else 0)


def recursive_doubling_bytes_per_node(data_bytes: float,
                                      num_nodes: int) -> float:
    """Bytes the busiest node injects: one full vector per exchange step."""
    if num_nodes <= 1:
        return 0.0
    n = _largest_pow2_leq(num_nodes)
    steps = n.bit_length() - 1
    extra = 1 if num_nodes != n else 0  # fold send (worst case: odd rank)
    return (steps + extra) * data_bytes
