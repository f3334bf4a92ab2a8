"""The serving layer: streaming multi-job traffic on a shared substrate.

Everything below this package executes one collective for one job; the
serving layer is the step toward the "heavy traffic" north star — a
fleet of concurrent training/inference jobs contending for one warm
fabric:

* **jobs** (:mod:`~repro.serving.jobs`) — the demand model: catalog
  model, arrival, steps, priority, and per-step all-reduce message
  sizes derived from layer shapes via gradient bucketing (or explicit
  activation-sized messages for inference-style jobs);
* **traffic** (:mod:`~repro.serving.traffic`) — deterministic seeded
  arrival processes: Poisson and trace replay, all randomness through
  one :class:`numpy.random.Generator`;
* **scheduler** (:mod:`~repro.serving.scheduler` +
  :mod:`~repro.serving.policies`) — online admission onto contiguous
  node ranges with FIFO/SJF/priority queueing (beyond-capacity
  arrivals queue, never drop);
* **dispatch** (:mod:`~repro.serving.dispatch`) — the size-adaptive
  collective switch: latency-optimal algorithms below the message-size
  threshold, bandwidth-optimal above (the 1-stage/2-stage split of
  LLM-stack allreduce kernels, lifted to fabric level);
* **contention** (:mod:`~repro.serving.contention`) — concurrent jobs'
  transfers solved as one shared
  :class:`~repro.simulation.fluid.FluidNetworkSimulator` batch, so
  inter-job interference falls out of max-min fair sharing;
* **engine** (:mod:`~repro.serving.engine`) — the event loop tying it
  together, reporting throughput, mean/p50/p99 job-completion time,
  queue depth, and substrate cache-hit tables.
"""

from .contention import ContentionModel, contention_topology
from .dispatch import (DEFAULT_SWITCH_BYTES, PLANNED_COLLECTIVES,
                       CollectivePolicy, adaptive_policy, fixed_policy,
                       place_schedule)
from .engine import JobRecord, RetryPolicy, ServingEngine, ServingReport
from .jobs import JobSpec, inference_message_sizes, strategy_jobs
from .policies import POLICIES, available_policies, policy_key
from .scheduler import OnlineScheduler, Placement
from .traffic import poisson_traffic, strategy_traffic, trace_traffic

__all__ = [
    "JobSpec",
    "inference_message_sizes",
    "poisson_traffic",
    "strategy_traffic",
    "trace_traffic",
    "strategy_jobs",
    "POLICIES",
    "available_policies",
    "policy_key",
    "OnlineScheduler",
    "Placement",
    "CollectivePolicy",
    "adaptive_policy",
    "fixed_policy",
    "place_schedule",
    "PLANNED_COLLECTIVES",
    "DEFAULT_SWITCH_BYTES",
    "ContentionModel",
    "contention_topology",
    "ServingEngine",
    "ServingReport",
    "JobRecord",
    "RetryPolicy",
]
