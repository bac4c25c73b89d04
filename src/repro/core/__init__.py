"""Core library: the paper's contribution.

Energy-aware placement of Precision-Beekeeping services between edge devices
(smart beehives) and a cloud server:

* calibrated task/routine models of the deployed system (§IV, Tables I/II);
* the client / server / allocator large-scale simulation model (§VI) with
  synchronized time slots and the three loss models;
* scenario comparison and crossover analysis (edge vs edge+cloud).

Typical use::

    from repro.core.routines import EDGE_CLOUD_SVM
    from repro.core.simulate import simulate_fleet

    result = simulate_fleet(n_clients=400, scenario=EDGE_CLOUD_SVM,
                            max_parallel=35)
    print(result.total_energy_per_client)
"""
