"""Queue-ordering policies for the online scheduler.

A policy is a pure sort key over :class:`~repro.serving.jobs.JobSpec`:
the scheduler computes it once when a job joins the wait queue, keeps
the queue heap-ordered by it, and admits from the head.  Every key
ends with ``(arrival_time, job_id)`` so ties break deterministically —
two runs of the same traffic produce the same admission order, which
the serving tests pin.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from ..errors import ConfigurationError
from .jobs import JobSpec

__all__ = ["POLICIES", "policy_key", "available_policies"]

PolicyKey = Callable[[JobSpec], Tuple]


def _fifo_key(job: JobSpec) -> Tuple:
    return (job.arrival_time, job.job_id)


def _sjf_key(job: JobSpec) -> Tuple:
    return (job.estimated_work, job.arrival_time, job.job_id)


def _priority_key(job: JobSpec) -> Tuple:
    return (-job.priority, job.arrival_time, job.job_id)


#: Registered queue-ordering policies (name -> sort key).
POLICIES: Dict[str, PolicyKey] = {
    "fifo": _fifo_key,
    "sjf": _sjf_key,
    "priority": _priority_key,
}


def available_policies() -> Tuple[str, ...]:
    """Registered policy names, sorted."""
    return tuple(sorted(POLICIES))


def policy_key(name: str) -> PolicyKey:
    """The sort key registered under ``name``."""
    try:
        return POLICIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scheduling policy {name!r}; choose from "
            f"{available_policies()}") from None
