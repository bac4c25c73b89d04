"""From-scratch CNN stack (NumPy), sized for the queen-detection service.

Layers follow the forward/backward protocol of :class:`repro.ml.nn.layers.Layer`;
:func:`repro.ml.nn.resnet.resnet18` builds the paper's architecture (with a
width multiplier so tests can train scaled-down variants quickly), and
:mod:`repro.ml.nn.flops` provides the FLOP → time → energy model used to
reproduce Figure 5's quadratic energy curve.
"""

from repro.ml.nn.layers import (
    Layer,
    Conv2d,
    BatchNorm2d,
    ReLU,
    MaxPool2d,
    GlobalAvgPool2d,
    Linear,
    Flatten,
    Sequential,
    Add,
)
from repro.ml.nn.functional import im2col, col2im, softmax, cross_entropy_loss
from repro.ml.nn.resnet import BasicBlock, ResNet, resnet18, small_cnn
from repro.ml.nn.optim import SGD
from repro.ml.nn.train import Trainer, TrainConfig
from repro.ml.nn.flops import count_flops, InferenceCostModel

__all__ = [
    "Layer",
    "Conv2d",
    "BatchNorm2d",
    "ReLU",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "Linear",
    "Flatten",
    "Sequential",
    "Add",
    "im2col",
    "col2im",
    "softmax",
    "cross_entropy_loss",
    "BasicBlock",
    "ResNet",
    "resnet18",
    "small_cnn",
    "SGD",
    "Trainer",
    "TrainConfig",
    "count_flops",
    "InferenceCostModel",
]
