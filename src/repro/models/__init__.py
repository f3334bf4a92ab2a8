"""DNN model catalogs and the data-parallel training model.

The paper's workloads are the gradients of four ImageNet CNNs.  This
package reproduces their parameter counts from layer-by-layer
definitions (:mod:`~repro.models.catalog`), turns them into all-reduce
payloads with optional DDP-style bucket fusion
(:mod:`~repro.models.gradients`), and provides a per-iteration training
time model for the overlap extension experiments
(:mod:`~repro.models.training`).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".layers": ("Layer", "Conv2d", "Linear", "BatchNorm2d",
                "LocalResponseNorm", "Pool2d"),
    ".catalog": ("DnnModel", "alexnet", "vgg16", "resnet50", "googlenet",
                 "get_model", "MODELS", "PAPER_PARAM_COUNTS",
                 "paper_workload"),
    ".gradients": ("gradient_bytes", "gradient_workload", "GradientBucket",
                   "allreduce_message_sizes", "bucketize_gradients"),
    ".flops": ("forward_macs", "sequential_forward_macs",
               "training_flops_per_sample"),
    ".training": ("DataParallelTrainingModel", "IterationBreakdown"),
    ".strategies": ("CADENCES", "STRATEGY_PRESETS", "CollectivePhase",
                    "DemandProfile", "ParallelStrategy",
                    "enumerate_strategies", "parse_strategy",
                    "strategy_profile"),
})
