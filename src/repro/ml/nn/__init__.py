"""From-scratch CNN stack (NumPy), sized for the queen-detection service.

Layers follow the forward/backward protocol of :class:`repro.ml.nn.layers.Layer`;
:func:`repro.ml.nn.resnet.resnet18` builds the paper's architecture (with a
width multiplier so tests can train scaled-down variants quickly), and
:mod:`repro.ml.nn.flops` provides the FLOP → time → energy model used to
reproduce Figure 5's quadratic energy curve.
"""
