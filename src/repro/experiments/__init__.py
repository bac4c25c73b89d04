"""Experiment harness: one module per paper table/figure.

Each experiment module exposes ``run(...) -> ExperimentResult``; the
registry maps experiment ids (``"fig3"``, ``"table1"``, …) to runners so
the CLI and the benchmark suite can drive them uniformly.  Results carry
paper-reported values next to measured values for EXPERIMENTS.md.
"""
