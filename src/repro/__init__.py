"""repro — energy-aware edge/cloud orchestration for precision beekeeping.

A from-scratch reproduction of Hadjur, Lefèvre & Ammar, *Services
Orchestration at the Edge and in the Cloud on Energy-Aware Precision
Beekeeping Systems* (PAISE @ IPDPS 2023).

Package map
-----------
``repro.core``
    The paper's contribution: calibrated scenarios (Tables I/II), the
    client/server/allocator large-scale model, loss models, sweeps and
    crossover analysis.
``repro.energy`` / ``repro.devices`` / ``repro.sensing`` / ``repro.network``
    The physical substrates: solar/battery energy node, device power-state
    machines, synthetic weather, Wi-Fi links.
``repro.audio`` / ``repro.dsp`` / ``repro.ml``
    The queen-detection service: synthetic hive audio, mel-spectrogram
    pipeline, SMO SVM and a NumPy CNN stack (ResNet-18) with a FLOP/energy
    model.
``repro.des``
    A discrete-event kernel used to cross-validate the analytic simulator.
``repro.experiments``
    One module per paper table/figure plus the registry behind the
    ``repro-exp`` CLI.
"""

from __future__ import annotations

__version__ = "1.0.0"

#: Documented top-level name -> defining module, resolved on first use
#: (PEP 562), so ``import repro`` loads no other module of the package.
_LAZY = {
    "PAPER": "core.calibration",
    "CYCLE_SECONDS": "core.calibration",
    "EDGE_SVM": "core.routines",
    "EDGE_CNN": "core.routines",
    "EDGE_CLOUD_SVM": "core.routines",
    "EDGE_CLOUD_CNN": "core.routines",
    "Scenario": "core.routines",
    "LossConfig": "core.losses",
    "simulate_fleet": "core.simulate",
    "sweep_clients": "core.sweep",
    "find_crossover": "core.crossover",
    "run_experiment": "experiments.registry",
    "experiment_ids": "experiments.registry",
}


def __getattr__(name: str):
    submodule = _LAZY.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f"{__name__}.{submodule}"), name)


__all__ = [*_LAZY, "__version__"]
