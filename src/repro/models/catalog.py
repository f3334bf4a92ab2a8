"""Layer-by-layer catalogs of the paper's four DNNs.

The experiment only consumes the *gradient byte count*, so each catalog
reproduces the published parameter totals from first principles:

========== ================== ==================== =======================
model      paper's count (§3) catalog total        reference architecture
========== ================== ==================== =======================
AlexNet    62.3 M             61,100,840           torchvision AlexNet
VGG16      138 M              138,357,544          Simonyan & Zisserman D
ResNet50   25 M               25,557,032           He et al. / torchvision
GoogLeNet  6.7977 M           ~6.6-7.0 M           Szegedy et al. v1 (LRN)
========== ================== ==================== =======================

Where the paper's rounded numbers differ from the canonical architecture
(AlexNet's 62.3 M vs the canonical 61.1 M; GoogLeNet's 6.7977 M), the
benchmark harness uses the *paper's* number (``PAPER_PARAM_COUNTS``) so
Fig. 2 is reproduced on the authors' payloads, while the catalog records
the faithful architecture — the discrepancy is documented, not hidden.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..config import Workload
from ..errors import ConfigurationError
from .layers import (BatchNorm2d, Conv2d, Layer, Linear, LocalResponseNorm,
                     Pool2d)

#: The paper's models in its panel order (Fig. 2 a-d).
PAPER_MODELS: Tuple[str, ...] = ("alexnet", "vgg16", "resnet50",
                                 "googlenet")

#: The parameter counts stated in the paper's §3, used as Fig. 2 payloads.
PAPER_PARAM_COUNTS: Dict[str, float] = {
    "alexnet": 62.3e6,
    "vgg16": 138e6,
    "resnet50": 25e6,
    "googlenet": 6.7977e6,
}


@dataclass(frozen=True)
class DnnModel:
    """A named network: ordered layers + the paper's stated count."""

    name: str
    layers: Tuple[Layer, ...]
    paper_param_count: float

    @property
    def num_parameters(self) -> int:
        """Exact trainable parameters of the catalog architecture."""
        return sum(l.num_parameters for l in self.layers)

    @property
    def parameterized_layers(self) -> List[Layer]:
        """Layers that actually carry gradients."""
        return [l for l in self.layers if l.num_parameters > 0]

    def layer_parameter_sizes(self) -> List[int]:
        """Per-layer parameter counts (parameterized layers only)."""
        return [l.num_parameters for l in self.parameterized_layers]


# ---------------------------------------------------------------------------
# AlexNet (torchvision single-tower variant)
# ---------------------------------------------------------------------------

def alexnet() -> DnnModel:
    """AlexNet [10]: 5 convolutions + 3 FC layers (61,100,840 params)."""
    layers: List[Layer] = [
        Conv2d("conv1", 3, 64, (11, 11), stride=4, padding=2),
        LocalResponseNorm("lrn1"),
        Pool2d("pool1", kernel_size=3, stride=2),
        Conv2d("conv2", 64, 192, (5, 5), padding=2),
        LocalResponseNorm("lrn2"),
        Pool2d("pool2", kernel_size=3, stride=2),
        Conv2d("conv3", 192, 384, (3, 3), padding=1),
        Conv2d("conv4", 384, 256, (3, 3), padding=1),
        Conv2d("conv5", 256, 256, (3, 3), padding=1),
        Pool2d("pool5", kernel_size=3, stride=2),
        Linear("fc6", 256 * 6 * 6, 4096),
        Linear("fc7", 4096, 4096),
        Linear("fc8", 4096, 1000),
    ]
    return DnnModel("alexnet", tuple(layers),
                    PAPER_PARAM_COUNTS["alexnet"])


# ---------------------------------------------------------------------------
# VGG16 (configuration D)
# ---------------------------------------------------------------------------

_VGG16_CFG = [64, 64, "M", 128, 128, "M", 256, 256, 256, "M",
              512, 512, 512, "M", 512, 512, 512, "M"]


def vgg16() -> DnnModel:
    """VGG16 [11]: 13 3x3 convolutions + 3 FC layers (138,357,544)."""
    layers: List[Layer] = []
    in_ch = 3
    conv_idx = 0
    for v in _VGG16_CFG:
        if v == "M":
            layers.append(Pool2d(f"pool{conv_idx}", kernel_size=2,
                                 stride=2))
        else:
            conv_idx += 1
            layers.append(Conv2d(f"conv{conv_idx}", in_ch, int(v), (3, 3),
                                 padding=1))
            in_ch = int(v)
    layers += [
        Linear("fc1", 512 * 7 * 7, 4096),
        Linear("fc2", 4096, 4096),
        Linear("fc3", 4096, 1000),
    ]
    return DnnModel("vgg16", tuple(layers), PAPER_PARAM_COUNTS["vgg16"])


# ---------------------------------------------------------------------------
# ResNet50 (v1, bottleneck [3, 4, 6, 3])
# ---------------------------------------------------------------------------

def _bottleneck(prefix: str, in_ch: int, mid_ch: int,
                downsample: bool) -> List[Layer]:
    out_ch = 4 * mid_ch
    layers: List[Layer] = [
        Conv2d(f"{prefix}.conv1", in_ch, mid_ch, (1, 1), bias=False),
        BatchNorm2d(f"{prefix}.bn1", mid_ch),
        Conv2d(f"{prefix}.conv2", mid_ch, mid_ch, (3, 3), bias=False),
        BatchNorm2d(f"{prefix}.bn2", mid_ch),
        Conv2d(f"{prefix}.conv3", mid_ch, out_ch, (1, 1), bias=False),
        BatchNorm2d(f"{prefix}.bn3", out_ch),
    ]
    if downsample:
        layers += [
            Conv2d(f"{prefix}.downsample", in_ch, out_ch, (1, 1),
                   bias=False),
            BatchNorm2d(f"{prefix}.downsample_bn", out_ch),
        ]
    return layers


def resnet50() -> DnnModel:
    """ResNet50 [12]: bottleneck stages [3,4,6,3] (25,557,032)."""
    layers: List[Layer] = [
        Conv2d("conv1", 3, 64, (7, 7), bias=False),
        BatchNorm2d("bn1", 64),
        Pool2d("maxpool"),
    ]
    in_ch = 64
    for stage, (mid, blocks) in enumerate(
            [(64, 3), (128, 4), (256, 6), (512, 3)], start=1):
        for b in range(blocks):
            layers += _bottleneck(f"layer{stage}.{b}", in_ch, mid, b == 0)
            in_ch = 4 * mid
    layers += [Pool2d("avgpool", kind="avg"),
               Linear("fc", 2048, 1000)]
    return DnnModel("resnet50", tuple(layers),
                    PAPER_PARAM_COUNTS["resnet50"])


# ---------------------------------------------------------------------------
# GoogLeNet (inception v1, LRN era, conv biases, no BN, no aux heads)
# ---------------------------------------------------------------------------

#: (1x1, 3x3reduce, 3x3, 5x5reduce, 5x5, pool-proj) per inception block.
_INCEPTION_CFG: List[Tuple[str, int, Tuple[int, int, int, int, int, int]]] = [
    ("3a", 192, (64, 96, 128, 16, 32, 32)),
    ("3b", 256, (128, 128, 192, 32, 96, 64)),
    ("4a", 480, (192, 96, 208, 16, 48, 64)),
    ("4b", 512, (160, 112, 224, 24, 64, 64)),
    ("4c", 512, (128, 128, 256, 24, 64, 64)),
    ("4d", 512, (112, 144, 288, 32, 64, 64)),
    ("4e", 528, (256, 160, 320, 32, 128, 128)),
    ("5a", 832, (256, 160, 320, 32, 128, 128)),
    ("5b", 832, (384, 192, 384, 48, 128, 128)),
]


def _inception(name: str, in_ch: int,
               cfg: Tuple[int, int, int, int, int, int]) -> List[Layer]:
    c1, r3, c3, r5, c5, pp = cfg
    return [
        Conv2d(f"inception{name}.1x1", in_ch, c1, (1, 1)),
        Conv2d(f"inception{name}.3x3reduce", in_ch, r3, (1, 1)),
        Conv2d(f"inception{name}.3x3", r3, c3, (3, 3)),
        Conv2d(f"inception{name}.5x5reduce", in_ch, r5, (1, 1)),
        Conv2d(f"inception{name}.5x5", r5, c5, (5, 5)),
        Conv2d(f"inception{name}.poolproj", in_ch, pp, (1, 1)),
    ]


def googlenet() -> DnnModel:
    """GoogLeNet [13]: 9 inception blocks, main branch only (~6.8 M)."""
    layers: List[Layer] = [
        Conv2d("conv1", 3, 64, (7, 7)),
        Pool2d("pool1"),
        LocalResponseNorm("lrn1"),
        Conv2d("conv2reduce", 64, 64, (1, 1)),
        Conv2d("conv2", 64, 192, (3, 3)),
        LocalResponseNorm("lrn2"),
        Pool2d("pool2"),
    ]
    for name, in_ch, cfg in _INCEPTION_CFG:
        layers += _inception(name, in_ch, cfg)
        if name in ("3b", "4e"):
            layers.append(Pool2d(f"pool_{name}"))
    layers += [Pool2d("avgpool", kind="avg"),
               Linear("fc", 1024, 1000)]
    return DnnModel("googlenet", tuple(layers),
                    PAPER_PARAM_COUNTS["googlenet"])


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

MODELS = {
    "alexnet": alexnet,
    "vgg16": vgg16,
    "resnet50": resnet50,
    "googlenet": googlenet,
}


def get_model(name: str) -> DnnModel:
    """Fetch a catalog model by name."""
    try:
        return MODELS[name.lower()]()
    except KeyError:
        raise ConfigurationError(
            f"unknown model {name!r}; choose from {sorted(MODELS)}") from None


def paper_workload(name: str, dtype_bytes: int = 4) -> Workload:
    """The Fig. 2 payload for ``name``: paper's parameter count x fp32."""
    try:
        count = PAPER_PARAM_COUNTS[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown model {name!r}; choose from "
            f"{sorted(PAPER_PARAM_COUNTS)}") from None
    return Workload.from_parameters(count, name=name.lower(),
                                    dtype_bytes=dtype_bytes)
