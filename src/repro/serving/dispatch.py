"""Size-adaptive collective dispatch and schedule placement.

The serving scheduler picks a collective *per message*, mirroring the
kernel dispatch of the MAX inference stack's allreduce (a 1-stage
latency-bound kernel below a size threshold, a 2-stage bandwidth-bound
kernel above it):

* **small** messages go to a latency-optimal algorithm — recursive
  doubling (log2 N full-payload exchanges) or a binomial tree — where
  per-step overheads dominate;
* **large** messages go to a bandwidth-optimal algorithm — the ring
  (2(N-1) steps of S/N) — where serialization dominates.

:class:`CollectivePolicy` is the switch; ``fixed_policy`` pins one
algorithm for ablations (the serving bench runs adaptive vs fixed-ring
vs fixed-RD on the same traffic).  :func:`~repro.collectives.placement.
place_schedule` re-bases a rank-0-rooted schedule onto a node range of
the shared substrate; it lives in the collectives core now (the
strategy co-planner places per-phase groups with it too) and is
re-exported here for the serving call sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .. import units
from ..collectives.placement import place_schedule
from ..collectives.registry import COLLECTIVES
from ..errors import ConfigurationError

__all__ = ["CollectivePolicy", "adaptive_policy", "fixed_policy",
           "place_schedule", "DEFAULT_SWITCH_BYTES", "PLANNED_COLLECTIVES"]

#: Below this size a message is latency-bound (the 1-stage/2-stage
#: split of the MAX allreduce kernel, scaled to fabric-level payloads).
DEFAULT_SWITCH_BYTES = 1 * units.MB

#: Algorithms that need a system + payload to plan (the serving engine
#: resolves these through :func:`repro.core.planner.plan_wrht`), so
#: they are valid policy arms but have no system-free generator in
#: :data:`repro.collectives.registry.COLLECTIVES`.
PLANNED_COLLECTIVES: Tuple[str, ...] = ("wrht",)


@dataclass(frozen=True)
class CollectivePolicy:
    """The per-message algorithm switch.

    ``select`` returns ``small_algorithm`` for messages strictly below
    ``switch_bytes`` and ``large_algorithm`` otherwise.  A fixed policy
    is just both arms set to the same algorithm.
    """

    small_algorithm: str = "recursive-doubling"
    large_algorithm: str = "ring"
    switch_bytes: float = DEFAULT_SWITCH_BYTES

    def __post_init__(self) -> None:
        known = tuple(sorted(COLLECTIVES)) + PLANNED_COLLECTIVES
        for algo in (self.small_algorithm, self.large_algorithm):
            if algo not in known:
                raise ConfigurationError(
                    f"unknown collective {algo!r}; choose from {known}")
        if not self.switch_bytes >= 0:  # NaN fails too
            raise ConfigurationError(
                f"switch_bytes must be >= 0, got {self.switch_bytes!r}")

    @property
    def is_adaptive(self) -> bool:
        """Whether the two arms can ever differ."""
        return self.small_algorithm != self.large_algorithm

    def select(self, message_bytes: float) -> str:
        """Algorithm name for one message of ``message_bytes``."""
        if message_bytes < self.switch_bytes:
            return self.small_algorithm
        return self.large_algorithm

    @property
    def label(self) -> str:
        """Human-readable policy name for reports."""
        if not self.is_adaptive:
            return self.large_algorithm
        return (f"adaptive(<{units.fmt_bytes(self.switch_bytes)}: "
                f"{self.small_algorithm}, else {self.large_algorithm})")


def adaptive_policy(switch_bytes: float = DEFAULT_SWITCH_BYTES,
                    small_algorithm: str = "recursive-doubling",
                    large_algorithm: str = "ring") -> CollectivePolicy:
    """The default size-adaptive switch."""
    return CollectivePolicy(small_algorithm=small_algorithm,
                            large_algorithm=large_algorithm,
                            switch_bytes=switch_bytes)


def fixed_policy(algorithm: str) -> CollectivePolicy:
    """A degenerate policy that always picks ``algorithm``."""
    return CollectivePolicy(small_algorithm=algorithm,
                            large_algorithm=algorithm)


# place_schedule is re-exported from repro.collectives.placement (see
# module docstring); serving call sites keep importing it from here.
