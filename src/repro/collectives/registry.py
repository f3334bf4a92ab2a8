"""The collective registry: all-reduce generators by algorithm name.

One place names the topology-agnostic all-reduce families that callers
pick by string — the OCS co-planner's candidates, the serving
dispatcher's per-message switch, the OCS serialization bound — so a new
collective registers here once:

* :data:`COLLECTIVES` — name → generator ``f(num_nodes) -> Schedule``;
* :data:`STEP_COUNTS` — name → closed-form step count of that schedule
  (equal to ``generator(n).num_steps``, pinned by the test suite).

Values are the plain generator functions, looked up at call time, so
anything that swaps a module-level function (a tracer, a test double)
sees calls made through the registry too.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..errors import ConfigurationError
from .binomial_tree import binomial_tree_step_count, generate_binomial_tree
from .halving_doubling import (generate_halving_doubling,
                               halving_doubling_step_count)
from .recursive_doubling import (generate_recursive_doubling,
                                 recursive_doubling_step_count)
from .ring_allreduce import generate_ring_allreduce, ring_step_count
from .schedule import Schedule

#: Registered collective generators by algorithm name.
COLLECTIVES: Dict[str, Callable[[int], Schedule]] = {
    "ring": generate_ring_allreduce,
    "recursive-doubling": generate_recursive_doubling,
    "halving-doubling": generate_halving_doubling,
    "binomial-tree": generate_binomial_tree,
}

#: Closed-form step count of each registered collective.
STEP_COUNTS: Dict[str, Callable[[int], int]] = {
    "ring": ring_step_count,
    "recursive-doubling": recursive_doubling_step_count,
    "halving-doubling": halving_doubling_step_count,
    "binomial-tree": binomial_tree_step_count,
}


def generate_collective(algorithm: str, num_nodes: int) -> Schedule:
    """Generate the ``algorithm`` all-reduce over ``num_nodes`` ranks."""
    try:
        generator = COLLECTIVES[algorithm]
    except KeyError:
        raise ConfigurationError(
            f"unknown collective {algorithm!r}; choose from "
            f"{tuple(sorted(COLLECTIVES))}") from None
    return generator(num_nodes)
