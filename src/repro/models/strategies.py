"""Parallelization strategies and the strategy demand IR.

The paper evaluates one uniform all-reduce; real training traffic is
shaped by the *parallelization strategy* (TopoOpt's observation).  A
:class:`ParallelStrategy` describes how a :class:`~repro.models.catalog.
DnnModel` is split over ``world`` ranks along the data / tensor /
pipeline axes, and *lowers* to a :class:`DemandProfile` — an ordered
list of :class:`CollectivePhase`\\ s, each naming its participant rank
groups, per-group message size, and cadence:

* **data parallel** (degree ``d``) — every gradient bucket from
  :func:`~repro.models.gradients.allreduce_message_sizes` becomes one
  ``per-step`` phase whose groups are the ``t*p`` DP rank groups, each
  all-reducing its ``1/(t*p)`` parameter shard (uniform-shard model);
* **tensor parallel** (degree ``t``) — Megatron-style per-layer
  activation all-reduces: one ``per-layer`` phase per distinct
  activation width, counted twice per layer (forward activations +
  backward activation gradients) across the ``d*p`` TP groups;
* **pipeline parallel** (degree ``p``) — ``per-microbatch`` boundary
  exchanges between adjacent stages, modelled as 2-rank groups.

Rank layout is Megatron-style: ``rank = dp*(t*p) + pp*t + tp`` — TP
groups are contiguous innermost runs (they carry the most frequent
traffic and want the tightest placement), DP groups stride by ``t*p``.
The pure data-parallel full-width strategy (``t == p == 1``) with one
fused bucket lowers to a single phase over all ranks whose payload is
exactly :func:`~repro.models.gradients.gradient_bytes` — the legacy
single-:class:`~repro.config.Workload` model, which the parity tests
pin bit-for-bit through the planners.

The catalog's CNNs record parameter counts, not activation maps, so
activation payloads use the same hidden-width sizing as the serving
layer's :func:`~repro.serving.jobs.inference_message_sizes`:
``batch x width x dtype`` per layer, with the layer's output channel /
feature count as the width (spatial dims are not tracked).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..config import Workload
from ..errors import ConfigurationError
from .catalog import DnnModel, get_model
from .gradients import (DEFAULT_BUCKET_BYTES, allreduce_message_sizes,
                        gradient_bytes)
from .layers import BatchNorm2d, Conv2d, Layer, Linear

__all__ = [
    "CADENCES", "CollectivePhase", "DemandProfile", "ParallelStrategy",
    "STRATEGY_PRESETS", "activation_width", "enumerate_strategies",
    "parse_strategy", "strategy_profile",
]

#: Phase cadences, most to least frequent.  ``per-microbatch`` fires
#: for every pipeline microbatch, ``per-layer`` once per layer per
#: step, ``per-step`` once per training step.
CADENCE_PER_MICROBATCH = "per-microbatch"
CADENCE_PER_LAYER = "per-layer"
CADENCE_PER_STEP = "per-step"
CADENCES: Tuple[str, ...] = (CADENCE_PER_MICROBATCH, CADENCE_PER_LAYER,
                             CADENCE_PER_STEP)

#: Default global batch size used when lowering activation traffic.
DEFAULT_BATCH_SIZE = 32

#: Activations travel in half precision by default (gradients in fp32).
DEFAULT_ACTIVATION_DTYPE_BYTES = 2

#: Named strategy shapes accepted by the CLI (``--strategy``).
STRATEGY_PRESETS: Tuple[str, ...] = ("dp", "tp", "dp+tp")

_AXIS_RE = re.compile(r"^(dp|tp|pp)(\d+)$")


def activation_width(layer: Layer) -> int:
    """Output width (elements per sample) of a parameterized layer.

    ``Conv2d`` -> out_channels, ``Linear`` -> out_features,
    ``BatchNorm2d`` -> channels; anything else with parameters is a
    catalog bug.
    """
    if isinstance(layer, Conv2d):
        return layer.out_channels
    if isinstance(layer, Linear):
        return layer.out_features
    if isinstance(layer, BatchNorm2d):
        return layer.channels
    raise ConfigurationError(
        f"layer {layer.name!r} ({type(layer).__name__}) has no "
        f"activation width")


@dataclass(frozen=True)
class CollectivePhase:
    """One homogeneous collective of a training step.

    ``groups`` are the *concurrent, disjoint* participant rank sets —
    every group runs the same collective on its own ``message_bytes``
    payload at the same time.  ``count`` is how many times the phase
    fires per training step (e.g. one per layer at this width);
    occurrences are identical, so planners may either repeat or scale.
    """

    name: str
    groups: Tuple[Tuple[int, ...], ...]
    message_bytes: float
    cadence: str = CADENCE_PER_STEP
    count: int = 1

    def __post_init__(self) -> None:
        groups = tuple(tuple(int(r) for r in grp) for grp in self.groups)
        object.__setattr__(self, "groups", groups)
        if not groups:
            raise ConfigurationError(f"phase {self.name!r} has no groups")
        width = len(groups[0])
        seen: set = set()
        for grp in groups:
            if len(grp) < 2:
                raise ConfigurationError(
                    f"phase {self.name!r}: a group needs >=2 ranks, "
                    f"got {grp}")
            if len(grp) != width:
                raise ConfigurationError(
                    f"phase {self.name!r}: groups must share one width "
                    f"({width} vs {len(grp)})")
            for r in grp:
                if r < 0:
                    raise ConfigurationError(
                        f"phase {self.name!r}: negative rank {r}")
                if r in seen:
                    raise ConfigurationError(
                        f"phase {self.name!r}: rank {r} appears in two "
                        f"groups (groups must be disjoint)")
                seen.add(r)
        if self.message_bytes <= 0:
            raise ConfigurationError(
                f"phase {self.name!r}: message_bytes must be > 0")
        if self.cadence not in CADENCES:
            raise ConfigurationError(
                f"phase {self.name!r}: cadence must be one of "
                f"{CADENCES}, got {self.cadence!r}")
        if self.count < 1:
            raise ConfigurationError(
                f"phase {self.name!r}: count must be >= 1")

    @property
    def group_size(self) -> int:
        """Ranks per group (uniform)."""
        return len(self.groups[0])

    @property
    def num_groups(self) -> int:
        """Concurrent groups."""
        return len(self.groups)

    @property
    def participants(self) -> Tuple[int, ...]:
        """Every participating rank, ascending."""
        return tuple(sorted(r for grp in self.groups for r in grp))

    @property
    def total_bytes(self) -> float:
        """Bytes this phase injects per training step (all groups,
        all occurrences)."""
        return self.message_bytes * self.num_groups * self.count

    def is_full_width(self, world: int) -> bool:
        """Whether this is one group spanning ranks ``0..world-1``."""
        return (self.num_groups == 1
                and self.groups[0] == tuple(range(world)))

    def workload(self, dtype_bytes: int = 4) -> Workload:
        """One group's payload as a legacy :class:`Workload`."""
        return Workload(data_bytes=self.message_bytes, name=self.name,
                        dtype_bytes=dtype_bytes)


@dataclass(frozen=True)
class DemandProfile:
    """The lowered demand IR: ordered phases over a ``world`` of ranks."""

    world: int
    phases: Tuple[CollectivePhase, ...]
    name: str = "profile"

    def __post_init__(self) -> None:
        object.__setattr__(self, "phases", tuple(self.phases))
        if self.world < 2:
            raise ConfigurationError(
                f"profile {self.name!r}: world must be >= 2")
        if not self.phases:
            raise ConfigurationError(
                f"profile {self.name!r} has no phases")
        for ph in self.phases:
            top = max(r for grp in ph.groups for r in grp)
            if top >= self.world:
                raise ConfigurationError(
                    f"profile {self.name!r}: phase {ph.name!r} uses rank "
                    f"{top} outside world {self.world}")

    @property
    def total_bytes(self) -> float:
        """Bytes injected per training step across all phases."""
        return sum(ph.total_bytes for ph in self.phases)

    @property
    def num_phases(self) -> int:
        """Number of distinct phases."""
        return len(self.phases)

    @property
    def is_single_full_width(self) -> bool:
        """Whether this profile is the legacy model: exactly one phase,
        one group spanning every rank, fired once per step."""
        return (len(self.phases) == 1
                and self.phases[0].count == 1
                and self.phases[0].is_full_width(self.world))

    def to_workload(self, dtype_bytes: int = 4) -> Workload:
        """The legacy single-:class:`Workload` view (single-full-width
        profiles only — anything else has no scalar equivalent)."""
        if not self.is_single_full_width:
            raise ConfigurationError(
                f"profile {self.name!r} has {self.num_phases} phase(s) "
                f"with subset groups; no single-workload equivalent")
        return Workload(data_bytes=self.phases[0].message_bytes,
                        name=self.name, dtype_bytes=dtype_bytes)


@dataclass(frozen=True)
class ParallelStrategy:
    """A data x tensor x pipeline split over ``d*t*p`` ranks.

    Rank layout: ``rank = dp*(t*p) + pp*t + tp`` (TP contiguous
    innermost, DP strided outermost).
    """

    data_parallel: int = 1
    tensor_parallel: int = 1
    pipeline_parallel: int = 1

    def __post_init__(self) -> None:
        for axis, v in (("data_parallel", self.data_parallel),
                        ("tensor_parallel", self.tensor_parallel),
                        ("pipeline_parallel", self.pipeline_parallel)):
            if v < 1:
                raise ConfigurationError(f"{axis} must be >= 1, got {v}")
        if self.world < 2:
            raise ConfigurationError(
                "a strategy needs >= 2 ranks (all axes are 1)")

    @property
    def world(self) -> int:
        """Total ranks (``d*t*p``)."""
        return (self.data_parallel * self.tensor_parallel
                * self.pipeline_parallel)

    @property
    def name(self) -> str:
        """Canonical label, e.g. ``"dp4+tp2"``."""
        parts = [f"{tag}{v}" for tag, v in
                 (("dp", self.data_parallel), ("tp", self.tensor_parallel),
                  ("pp", self.pipeline_parallel)) if v > 1]
        return "+".join(parts)

    def rank(self, dp: int, pp: int, tp: int) -> int:
        """The global rank of coordinate ``(dp, pp, tp)``."""
        t, p = self.tensor_parallel, self.pipeline_parallel
        return dp * (t * p) + pp * t + tp

    @property
    def data_parallel_groups(self) -> Tuple[Tuple[int, ...], ...]:
        """The ``t*p`` DP groups (width ``d``), strided by ``t*p``."""
        d = self.data_parallel
        return tuple(
            tuple(self.rank(i, pp, tp) for i in range(d))
            for pp in range(self.pipeline_parallel)
            for tp in range(self.tensor_parallel))

    @property
    def tensor_parallel_groups(self) -> Tuple[Tuple[int, ...], ...]:
        """The ``d*p`` TP groups (width ``t``), contiguous runs."""
        t = self.tensor_parallel
        return tuple(
            tuple(self.rank(dp, pp, i) for i in range(t))
            for dp in range(self.data_parallel)
            for pp in range(self.pipeline_parallel))

    @property
    def pipeline_chains(self) -> Tuple[Tuple[int, ...], ...]:
        """The ``d*t`` stage chains (length ``p``)."""
        p = self.pipeline_parallel
        return tuple(
            tuple(self.rank(dp, i, tp) for i in range(p))
            for dp in range(self.data_parallel)
            for tp in range(self.tensor_parallel))

    # -- byte accounting ----------------------------------------------------

    def activation_bytes(self, model: DnnModel,
                         batch_size: int = DEFAULT_BATCH_SIZE,
                         activation_dtype_bytes: int
                         = DEFAULT_ACTIVATION_DTYPE_BYTES) -> float:
        """Total TP activation traffic per step (0 when ``t == 1``):
        two all-reduces per parameterized layer (forward + backward)
        in each of the ``d*p`` TP groups."""
        if self.tensor_parallel == 1:
            return 0.0
        per_group = sum(
            2 * batch_size * activation_width(l) * activation_dtype_bytes
            for l in model.parameterized_layers)
        return per_group * self.data_parallel * self.pipeline_parallel

    def pipeline_bytes(self, model: DnnModel,
                       batch_size: int = DEFAULT_BATCH_SIZE,
                       activation_dtype_bytes: int
                       = DEFAULT_ACTIVATION_DTYPE_BYTES) -> float:
        """Total stage-boundary traffic per step (0 when ``p == 1``):
        the boundary layer's activation forward + its gradient backward
        in each of the ``d*t`` chains, per boundary."""
        if self.pipeline_parallel == 1:
            return 0.0
        stages = self._stage_layers(model)
        total = 0.0
        for stage in stages[:-1]:
            width = activation_width(stage[-1])
            total += (2 * batch_size * width * activation_dtype_bytes
                      * self.data_parallel * self.tensor_parallel)
        return total

    def communication_bytes(self, model: DnnModel,
                            batch_size: int = DEFAULT_BATCH_SIZE,
                            dtype_bytes: int = 4,
                            activation_dtype_bytes: int
                            = DEFAULT_ACTIVATION_DTYPE_BYTES) -> float:
        """Per-step fabric bytes of this strategy: gradient all-reduce
        traffic (when ``d > 1``) + TP activations + pipeline
        boundaries.  The lowered profile's ``total_bytes`` equals this
        (up to float division round-trip) — the invariant the
        hypothesis tests pin."""
        grads = (float(gradient_bytes(model, dtype_bytes))
                 if self.data_parallel > 1 else 0.0)
        return (grads
                + self.activation_bytes(model, batch_size,
                                        activation_dtype_bytes)
                + self.pipeline_bytes(model, batch_size,
                                      activation_dtype_bytes))

    # -- lowering -----------------------------------------------------------

    def _stage_layers(self, model: DnnModel) -> List[List[Layer]]:
        """Contiguous split of the parameterized layers into ``p``
        stages (front stages take the remainder)."""
        layers = model.parameterized_layers
        p = self.pipeline_parallel
        if p > len(layers):
            raise ConfigurationError(
                f"pipeline degree {p} exceeds {model.name}'s "
                f"{len(layers)} parameterized layers")
        base, extra = divmod(len(layers), p)
        stages: List[List[Layer]] = []
        at = 0
        for s in range(p):
            size = base + (1 if s < extra else 0)
            stages.append(layers[at:at + size])
            at += size
        return stages

    def lower(self, model: DnnModel, *,
              batch_size: int = DEFAULT_BATCH_SIZE,
              bucket_bytes: float = DEFAULT_BUCKET_BYTES,
              dtype_bytes: int = 4,
              activation_dtype_bytes: int = DEFAULT_ACTIVATION_DTYPE_BYTES,
              microbatches: int = 1,
              name: Optional[str] = None) -> DemandProfile:
        """Lower this strategy on ``model`` to a :class:`DemandProfile`.

        Phase order follows a training step: TP activation phases
        (``per-layer``), pipeline boundary phases (``per-microbatch``),
        then the DP gradient buckets (``per-step``, backward order via
        :func:`~repro.models.gradients.allreduce_message_sizes`).

        ``ParallelStrategy(data_parallel=N).lower(model,
        bucket_bytes=float("inf"))`` yields the legacy single-phase
        full-width profile whose payload is exactly
        :func:`~repro.models.gradients.gradient_bytes`.
        """
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if microbatches < 1:
            raise ConfigurationError("microbatches must be >= 1")
        d, t, p = (self.data_parallel, self.tensor_parallel,
                   self.pipeline_parallel)
        # Validate the pipeline depth before building rank groups: they
        # hold d*t*p ranks, so a bogus depth must fail first.
        stages = self._stage_layers(model) if p > 1 else []
        phases: List[CollectivePhase] = []
        if t > 1:
            widths: Dict[int, int] = {}
            for layer in model.parameterized_layers:
                w = activation_width(layer)
                widths[w] = widths.get(w, 0) + 1
            tp_groups = self.tensor_parallel_groups
            for i, (w, layers_at) in enumerate(widths.items()):
                phases.append(CollectivePhase(
                    name=f"tp-act{i}-w{w}",
                    groups=tp_groups,
                    message_bytes=float(batch_size * w
                                        * activation_dtype_bytes),
                    cadence=CADENCE_PER_LAYER,
                    count=2 * layers_at))
        if p > 1:
            chains = self.pipeline_chains
            for s in range(p - 1):
                w = activation_width(stages[s][-1])
                pairs = tuple((chain[s], chain[s + 1]) for chain in chains)
                phases.append(CollectivePhase(
                    name=f"pp-cut{s}-w{w}",
                    groups=pairs,
                    message_bytes=(batch_size * w * activation_dtype_bytes
                                   / microbatches),
                    cadence=CADENCE_PER_MICROBATCH,
                    count=2 * microbatches))
        if d > 1:
            sizes = allreduce_message_sizes(model, bucket_bytes=bucket_bytes,
                                            dtype_bytes=dtype_bytes)
            dp_groups = self.data_parallel_groups
            shards = t * p
            for i, nbytes in enumerate(sizes):
                phases.append(CollectivePhase(
                    name=f"dp-bucket{i}",
                    groups=dp_groups,
                    message_bytes=nbytes / shards,
                    cadence=CADENCE_PER_STEP))
        return DemandProfile(
            world=self.world, phases=tuple(phases),
            name=name if name is not None
            else f"{model.name}:{self.name}")


def parse_strategy(spec: str, world: Optional[int] = None,
                   ) -> ParallelStrategy:
    """Parse a strategy spec: a preset (``"dp"``/``"tp"``/``"dp+tp"``,
    sized by ``world``) or explicit axes (``"dp4+tp2"``, validated
    against ``world`` when given).

    ``"dp+tp"`` picks the balanced split: the largest TP degree not
    exceeding ``sqrt(world)`` that divides it (composite worlds only).
    """
    spec = spec.strip().lower()
    if spec in STRATEGY_PRESETS:
        if world is None:
            raise ConfigurationError(
                f"preset {spec!r} needs a world size")
        if spec == "dp":
            return ParallelStrategy(data_parallel=world)
        if spec == "tp":
            return ParallelStrategy(tensor_parallel=world)
        t = _balanced_factor(world)
        if t == 1:
            raise ConfigurationError(
                f"'dp+tp' needs a composite world, got {world}")
        return ParallelStrategy(data_parallel=world // t,
                                tensor_parallel=t)
    axes = {"dp": 1, "tp": 1, "pp": 1}
    seen: set = set()
    for part in spec.split("+"):
        m = _AXIS_RE.match(part.strip())
        if m is None:
            raise ConfigurationError(
                f"bad strategy spec {spec!r}; want a preset "
                f"{STRATEGY_PRESETS} or axes like 'dp4+tp2'")
        tag, v = m.group(1), int(m.group(2))
        if tag in seen:
            raise ConfigurationError(
                f"strategy spec {spec!r} repeats axis {tag!r}")
        seen.add(tag)
        axes[tag] = v
    strategy = ParallelStrategy(data_parallel=axes["dp"],
                                tensor_parallel=axes["tp"],
                                pipeline_parallel=axes["pp"])
    if world is not None and strategy.world != world:
        raise ConfigurationError(
            f"strategy {spec!r} spans {strategy.world} ranks; "
            f"world is {world}")
    return strategy


def _balanced_factor(world: int) -> int:
    """Largest divisor of ``world`` not exceeding ``sqrt(world)``."""
    best = 1
    d = 2
    while d * d <= world:
        if world % d == 0:
            best = d
        d += 1
    return best


def enumerate_strategies(world: int,
                         max_tensor: Optional[int] = None,
                         ) -> Tuple[ParallelStrategy, ...]:
    """The co-planner's outer-loop strategy pool at ``world`` ranks:
    pure DP first (the legacy-parity candidate), pure TP, then every
    ``dp x tp`` factorization with both degrees >= 2 (TP degree
    ascending, optionally capped at ``max_tensor``)."""
    if world < 2:
        raise ConfigurationError(f"world must be >= 2, got {world}")
    out: List[ParallelStrategy] = [ParallelStrategy(data_parallel=world)]
    cap = world if max_tensor is None else max_tensor
    if world <= cap:
        out.append(ParallelStrategy(tensor_parallel=world))
    for t in range(2, world):
        if world % t == 0 and t <= cap:
            out.append(ParallelStrategy(data_parallel=world // t,
                                        tensor_parallel=t))
    return tuple(out)


def strategy_profile(model_name: str, spec: str, world: int,
                     **lower_kwargs) -> DemandProfile:
    """Convenience: catalog lookup + parse + lower in one call."""
    model = get_model(model_name)
    strategy = parse_strategy(spec, world)
    return strategy.lower(model, **lower_kwargs)
