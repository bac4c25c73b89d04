"""Machine-learning substrate, implemented from scratch on NumPy.

Two model families mirror §V of the paper:

* :class:`repro.ml.svm.SVC` — a binary support-vector classifier trained by
  SMO with an RBF kernel (paper settings: ``C=20``, ``gamma=1e-5``);
* :mod:`repro.ml.nn` — a CNN stack (im2col convolutions, batch norm,
  residual blocks, SGD training) able to build ResNet-18, plus a FLOP/energy
  model for inference-cost analysis.
"""
