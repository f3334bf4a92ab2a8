"""The serving job model: what one unit of traffic asks of the fabric.

A :class:`JobSpec` is a *demand description*, not an execution state:
which catalog model it trains (or serves), when it arrives, how many
steps it runs, how many nodes it wants, and how its per-step all-reduce
message sizes are derived.  Two derivations exist, mirroring the two
traffic classes of an LLM serving stack:

* **training** jobs all-reduce their gradients in DDP-style buckets —
  the sizes come from
  :func:`repro.models.gradients.allreduce_message_sizes` applied to the
  catalog model's layer map (bucket-size knob, dtype-aware);
* **inference-style** jobs all-reduce small per-layer activations
  (``batch x seq x hidden`` elements, the shape the Modular MAX stack
  reduces after every attention/MLP block) — tiny messages repeated
  for many steps, the latency-bound end of the spectrum.

Explicit ``message_sizes`` override both (trace replay, parity tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

from ..errors import ConfigurationError
from ..models.catalog import get_model
from ..models.gradients import DEFAULT_BUCKET_BYTES, allreduce_message_sizes

if TYPE_CHECKING:
    from ..models.strategies import ParallelStrategy

__all__ = ["JobSpec", "inference_message_sizes", "strategy_jobs"]


def inference_message_sizes(hidden_size: int, num_layers: int,
                            batch_size: int = 1, seq_len: int = 1,
                            dtype_bytes: int = 2) -> Tuple[float, ...]:
    """Per-step all-reduce sizes of a tensor-parallel inference step.

    One decode step reduces each transformer layer's output activation
    of shape ``[batch, seq, hidden]`` (the per-block attention/MLP
    all-reduce of the MAX inference stack), so a step injects
    ``num_layers`` messages of ``batch * seq * hidden * dtype`` bytes.
    """
    if hidden_size < 1 or num_layers < 1 or batch_size < 1 or seq_len < 1:
        raise ConfigurationError(
            "hidden_size, num_layers, batch_size, seq_len must be >= 1")
    if dtype_bytes < 1:
        raise ConfigurationError("dtype_bytes must be >= 1")
    nbytes = float(batch_size * seq_len * hidden_size * dtype_bytes)
    return (nbytes,) * num_layers


@dataclass(frozen=True)
class JobSpec:
    """One job of the serving stream.

    Parameters
    ----------
    job_id:
        Unique id; also the deterministic last-resort tie-break every
        scheduling policy falls back to.
    model:
        Catalog model name (:func:`repro.models.catalog.get_model`).
    arrival_time:
        When the job enters the system (simulated seconds).
    num_steps:
        Training/decode steps to run; each step all-reduces every
        message in :meth:`resolve_message_sizes` once.
    num_nodes:
        World size requested from the shared substrate.
    priority:
        Larger = more urgent (only the ``"priority"`` policy reads it).
    bucket_bytes / dtype_bytes:
        Gradient-bucket fusion knobs for the derived message sizes.
    message_sizes:
        Explicit per-step message list in bytes; overrides the
        model-derived sizing when given (inference jobs, traces,
        parity tests).
    """

    job_id: int
    model: str
    arrival_time: float
    num_steps: int = 1
    num_nodes: int = 8
    priority: int = 0
    bucket_bytes: float = DEFAULT_BUCKET_BYTES
    dtype_bytes: int = 4
    message_sizes: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.arrival_time < 0:
            raise ConfigurationError(
                f"job {self.job_id}: arrival_time must be >= 0")
        if self.num_steps < 1:
            raise ConfigurationError(
                f"job {self.job_id}: num_steps must be >= 1")
        if self.num_nodes < 2:
            raise ConfigurationError(
                f"job {self.job_id}: num_nodes must be >= 2 "
                f"(a one-node job has nothing to all-reduce)")
        if self.bucket_bytes <= 0:
            raise ConfigurationError(
                f"job {self.job_id}: bucket_bytes must be > 0")
        if self.dtype_bytes < 1:
            raise ConfigurationError(
                f"job {self.job_id}: dtype_bytes must be >= 1")
        if self.message_sizes is not None:
            if not self.message_sizes:
                raise ConfigurationError(
                    f"job {self.job_id}: message_sizes must be non-empty")
            if any(m <= 0 for m in self.message_sizes):
                raise ConfigurationError(
                    f"job {self.job_id}: message sizes must be > 0")

    def resolve_message_sizes(self) -> Tuple[float, ...]:
        """The per-step all-reduce message sizes in bytes.

        Explicit sizes win; otherwise the catalog model's gradients are
        bucketized (the training-job derivation).  Resolved once per
        job, and equal for every job with the same :attr:`sizing_key`.
        """
        return self._resolved_sizes

    @property
    def sizing_key(self) -> Tuple:
        """Everything :meth:`resolve_message_sizes` depends on.

        Jobs with equal keys have equal message sizes, so a caller can
        resolve sizes once per key instead of once per job.
        """
        if self.message_sizes is not None:
            return (self.message_sizes,)
        return (self.model, self.bucket_bytes, self.dtype_bytes)

    @cached_property
    def _resolved_sizes(self) -> Tuple[float, ...]:
        if self.message_sizes is not None:
            return tuple(float(m) for m in self.message_sizes)
        return tuple(float(n) for n in allreduce_message_sizes(
            get_model(self.model), bucket_bytes=self.bucket_bytes,
            dtype_bytes=self.dtype_bytes))

    @property
    def bytes_per_step(self) -> float:
        """Total bytes all-reduced per step (sum of the messages)."""
        return float(sum(self._resolved_sizes))

    @property
    def estimated_work(self) -> float:
        """Service-demand proxy the SJF policy orders by:
        ``steps x bytes-per-step`` (node count cancels to first order —
        ring serialization moves ~``S`` bytes per node regardless of
        ``N``)."""
        return self.num_steps * self.bytes_per_step


def strategy_jobs(model: str,
                  strategy: Union[str, ParallelStrategy],
                  world: Optional[int] = None,
                  arrival_time: float = 0.0,
                  start_id: int = 0,
                  num_steps: int = 1,
                  priority: int = 0,
                  **lower_kwargs) -> List[JobSpec]:
    """One training job's collective groups as serving jobs.

    Lowers ``strategy`` (a :class:`~repro.models.strategies.
    ParallelStrategy` or a spec like ``"dp4+tp2"`` / a preset sized by
    ``world``) over the catalog ``model`` and emits one
    :class:`JobSpec` per distinct collective *group*: the group's
    per-step ``message_sizes`` are the concatenation, in phase order,
    of every phase that group participates in (a pure-DP strategy
    therefore yields exactly one full-width job carrying the legacy
    gradient-bucket list).  The serving scheduler places each group on
    whatever nodes it finds — group *shapes and sizes* carry over; the
    strategy's rank layout is the scheduler's to re-derive.

    ``lower_kwargs`` pass through to ``ParallelStrategy.lower``
    (``batch_size``, ``bucket_bytes``, ``microbatches``, ...).
    """
    # Only strategy traffic loads the strategy lowering.
    from ..models.strategies import ParallelStrategy, parse_strategy

    if not isinstance(strategy, ParallelStrategy):
        strategy = parse_strategy(strategy, world=world)
    elif world is not None and strategy.world != world:
        raise ConfigurationError(
            f"strategy {strategy.name!r} spans {strategy.world} ranks, "
            f"but world={world} was requested")
    profile = strategy.lower(get_model(model), **lower_kwargs)
    by_group: "dict[Tuple[int, ...], List[float]]" = {}
    for phase in profile.phases:
        for grp in phase.groups:
            by_group.setdefault(grp, []).extend(
                [phase.message_bytes] * phase.count)
    jobs: List[JobSpec] = []
    for offset, (grp, sizes) in enumerate(by_group.items()):
        jobs.append(JobSpec(
            job_id=start_id + offset, model=model,
            arrival_time=arrival_time, num_steps=num_steps,
            num_nodes=len(grp), priority=priority,
            message_sizes=tuple(sizes)))
    return jobs
