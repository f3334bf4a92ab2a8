"""The traffic engine: deterministic, seeded job-arrival processes.

Two sources, both returning plain ``List[JobSpec]`` sorted by arrival
(the engine replays them event by event, so a materialized list keeps
the whole run reproducible and inspectable):

* :func:`poisson_traffic` — an open-loop Poisson process: exponential
  inter-arrivals at ``arrival_rate`` jobs/s, every per-job attribute
  (model, class, world size, steps, priority) drawn from **one**
  :class:`numpy.random.Generator`, so an entire serving run is
  reproducible end to end from a single seed;
* :func:`trace_traffic` — trace replay: explicit job rows (dicts or
  ready :class:`~repro.serving.jobs.JobSpec`\\ s), validated and
  sorted.

The default mix interleaves bandwidth-bound training jobs (bucketed
gradient all-reduces, tens of MB per message) with latency-bound
inference jobs (per-layer activation all-reduces, KBs per message) —
the spread the scheduler's size-adaptive algorithm switch exists for.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..models.catalog import MODELS
from .jobs import JobSpec, inference_message_sizes, strategy_jobs

__all__ = ["poisson_traffic", "strategy_traffic", "trace_traffic"]

#: Default model pool: the paper's four CNN catalogs.
DEFAULT_MODELS: Tuple[str, ...] = tuple(sorted(MODELS))

#: Default tensor-parallel hidden sizes for inference-style jobs
#: (1B-ish to 70B-ish transformer widths).
DEFAULT_HIDDEN_SIZES: Tuple[int, ...] = (1024, 4096, 8192)


def _resolve_rng(seed: Optional[int],
                 rng: Optional[np.random.Generator]) -> np.random.Generator:
    """``rng`` wins over ``seed`` (the repo-wide stochastic convention)."""
    if rng is not None:
        return rng
    return np.random.default_rng(0 if seed is None else seed)


def poisson_traffic(num_jobs: int,
                    arrival_rate: float,
                    seed: Optional[int] = 0,
                    rng: Optional[np.random.Generator] = None,
                    models: Sequence[str] = DEFAULT_MODELS,
                    node_choices: Sequence[int] = (4, 8, 16),
                    step_bounds: Tuple[int, int] = (5, 50),
                    priorities: Sequence[int] = (0, 1, 2),
                    inference_fraction: float = 0.5,
                    hidden_sizes: Sequence[int] = DEFAULT_HIDDEN_SIZES,
                    inference_layers: int = 4,
                    start_time: float = 0.0) -> List[JobSpec]:
    """A deterministic Poisson job stream (``num_jobs`` arrivals).

    Inter-arrival gaps are exponential with mean ``1/arrival_rate``;
    each job is a training job with probability
    ``1 - inference_fraction`` (message sizes bucketized from a
    uniformly drawn catalog model) or an inference-style job
    (``inference_layers`` activation messages of a drawn hidden size
    per step).  All randomness flows through one generator — pass
    ``rng`` to chain the stream into a larger seeded experiment, or
    ``seed`` to stand alone.
    """
    if num_jobs < 0:
        raise ConfigurationError("num_jobs must be >= 0")
    if arrival_rate <= 0:
        raise ConfigurationError("arrival_rate must be > 0")
    if not models or not node_choices or not priorities or not hidden_sizes:
        raise ConfigurationError(
            "models, node_choices, priorities, hidden_sizes must be "
            "non-empty")
    lo, hi = step_bounds
    if lo < 1 or hi < lo:
        raise ConfigurationError(
            f"step_bounds must satisfy 1 <= lo <= hi, got {step_bounds}")
    if not 0.0 <= inference_fraction <= 1.0:
        raise ConfigurationError("inference_fraction must be in [0, 1]")
    gen = _resolve_rng(seed, rng)
    models = tuple(models)
    node_choices = tuple(int(n) for n in node_choices)
    priorities = tuple(int(p) for p in priorities)
    hidden_sizes = tuple(int(h) for h in hidden_sizes)

    jobs: List[JobSpec] = []
    now = float(start_time)
    for job_id in range(num_jobs):
        now += float(gen.exponential(1.0 / arrival_rate))
        model = models[int(gen.integers(len(models)))]
        num_nodes = node_choices[int(gen.integers(len(node_choices)))]
        num_steps = int(gen.integers(lo, hi + 1))
        priority = priorities[int(gen.integers(len(priorities)))]
        sizes: Optional[Tuple[float, ...]] = None
        if float(gen.random()) < inference_fraction:
            hidden = hidden_sizes[int(gen.integers(len(hidden_sizes)))]
            sizes = inference_message_sizes(hidden, inference_layers)
        jobs.append(JobSpec(job_id=job_id, model=model, arrival_time=now,
                            num_steps=num_steps, num_nodes=num_nodes,
                            priority=priority, message_sizes=sizes))
    return jobs


def strategy_traffic(num_arrivals: int,
                     model: str,
                     strategy: Any,
                     world: Optional[int] = None,
                     arrival_rate: float = 20.0,
                     seed: Optional[int] = 0,
                     rng: Optional[np.random.Generator] = None,
                     step_bounds: Tuple[int, int] = (5, 50),
                     start_time: float = 0.0,
                     **lower_kwargs) -> List[JobSpec]:
    """A Poisson stream of strategy-lowered training jobs.

    Each of the ``num_arrivals`` arrivals is one training run of
    ``model`` under ``strategy`` (a
    :class:`~repro.models.strategies.ParallelStrategy`, or a spec /
    preset string sized by ``world``), expanded through
    :func:`~repro.serving.jobs.strategy_jobs` into one serving job per
    collective group — so a ``dp4+tp2`` arrival lands as its two DP
    groups plus four TP groups, each with its own per-step message
    list.  Steps per arrival are drawn uniformly from ``step_bounds``;
    all randomness flows through one generator (the repo-wide seeding
    convention).  ``lower_kwargs`` pass through to the lowering.
    """
    if num_arrivals < 0:
        raise ConfigurationError("num_arrivals must be >= 0")
    if arrival_rate <= 0:
        raise ConfigurationError("arrival_rate must be > 0")
    lo, hi = step_bounds
    if lo < 1 or hi < lo:
        raise ConfigurationError(
            f"step_bounds must satisfy 1 <= lo <= hi, got {step_bounds}")
    # Only strategy traffic loads the strategy lowering.
    from ..models.strategies import ParallelStrategy, parse_strategy

    if not isinstance(strategy, ParallelStrategy):
        strategy = parse_strategy(strategy, world=world)
    gen = _resolve_rng(seed, rng)
    jobs: List[JobSpec] = []
    now = float(start_time)
    next_id = 0
    for _ in range(num_arrivals):
        now += float(gen.exponential(1.0 / arrival_rate))
        num_steps = int(gen.integers(lo, hi + 1))
        batch = strategy_jobs(model, strategy, arrival_time=now,
                              start_id=next_id, num_steps=num_steps,
                              **lower_kwargs)
        next_id += len(batch)
        jobs.extend(batch)
    return jobs


def trace_traffic(rows: Iterable[Any]) -> List[JobSpec]:
    """Trace-driven traffic: replay explicit job rows.

    Each row is a ready :class:`~repro.serving.jobs.JobSpec` or a
    mapping of ``JobSpec`` fields (``job_id`` defaults to the row
    index).  Rows are validated and returned sorted by
    ``(arrival_time, job_id)`` — the order the engine consumes.
    """
    jobs: List[JobSpec] = []
    for idx, row in enumerate(rows):
        if isinstance(row, JobSpec):
            jobs.append(row)
            continue
        if not isinstance(row, Mapping):
            raise ConfigurationError(
                f"trace row {idx} must be a JobSpec or a mapping, "
                f"got {type(row).__name__}")
        fields = dict(row)
        fields.setdefault("job_id", idx)
        if "message_sizes" in fields and fields["message_sizes"] is not None:
            fields["message_sizes"] = tuple(
                float(m) for m in fields["message_sizes"])
        try:
            jobs.append(JobSpec(**fields))
        except TypeError as exc:
            raise ConfigurationError(
                f"trace row {idx}: bad JobSpec fields ({exc})") from None
    ids = [j.job_id for j in jobs]
    if len(set(ids)) != len(ids):
        raise ConfigurationError("trace job_ids must be unique")
    return sorted(jobs, key=lambda j: (j.arrival_time, j.job_id))
