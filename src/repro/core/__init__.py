"""Core library: the paper's contribution.

Energy-aware placement of Precision-Beekeeping services between edge devices
(smart beehives) and a cloud server:

* calibrated task/routine models of the deployed system (§IV, Tables I/II);
* the client / server / allocator large-scale simulation model (§VI) with
  synchronized time slots and the three loss models;
* scenario comparison and crossover analysis (edge vs edge+cloud).

Typical use::

    from repro.core import (EDGE_SVM, EDGE_CLOUD_SVM, ServerProfile,
                            simulate_fleet, sweep_clients, find_crossover)

    result = simulate_fleet(n_clients=400, scenario=EDGE_CLOUD_SVM,
                            max_parallel=35)
    print(result.total_energy_per_client)
"""

from repro.core.calibration import (
    PaperConstants,
    PAPER,
    CYCLE_SECONDS,
    table1_rows,
    table2_rows,
)
from repro.core.tasks import Task, TaskSequence
from repro.core.client import ClientProfile, client_cycle_energy, average_power_for_period
from repro.core.server import ServerProfile, SlotPlan
from repro.core.routines import (
    edge_scenario_tasks,
    edge_cloud_client_tasks,
    data_collection_routine,
    EDGE_SVM,
    EDGE_CNN,
    EDGE_CLOUD_SVM,
    EDGE_CLOUD_CNN,
    Scenario,
)
from repro.core.losses import LossConfig, SaturationPenalty, TransferTimePenalty, ClientLoss
from repro.core.allocator import Allocator, Allocation, ServerAssignment, FirstFitPolicy, RoundRobinPolicy, BalancedPolicy
from repro.core.simulate import FleetResult, simulate_fleet
from repro.core.sweep import sweep_clients, SweepResult
from repro.core.crossover import find_crossover, crossover_report, CrossoverReport
from repro.core.adaptive import (
    AdaptiveDutyCycle,
    DutyCyclePolicy,
    AdaptiveRunResult,
    simulate_adaptive_week,
)
from repro.core.mixed import ClientGroup, MixedFleetResult, simulate_mixed_fleet

__all__ = [
    "PaperConstants",
    "PAPER",
    "CYCLE_SECONDS",
    "table1_rows",
    "table2_rows",
    "Task",
    "TaskSequence",
    "ClientProfile",
    "client_cycle_energy",
    "average_power_for_period",
    "ServerProfile",
    "SlotPlan",
    "edge_scenario_tasks",
    "edge_cloud_client_tasks",
    "data_collection_routine",
    "EDGE_SVM",
    "EDGE_CNN",
    "EDGE_CLOUD_SVM",
    "EDGE_CLOUD_CNN",
    "Scenario",
    "LossConfig",
    "SaturationPenalty",
    "TransferTimePenalty",
    "ClientLoss",
    "Allocator",
    "Allocation",
    "ServerAssignment",
    "FirstFitPolicy",
    "RoundRobinPolicy",
    "BalancedPolicy",
    "FleetResult",
    "simulate_fleet",
    "sweep_clients",
    "SweepResult",
    "find_crossover",
    "crossover_report",
    "CrossoverReport",
    "AdaptiveDutyCycle",
    "DutyCyclePolicy",
    "AdaptiveRunResult",
    "simulate_adaptive_week",
    "ClientGroup",
    "MixedFleetResult",
    "simulate_mixed_fleet",
]
