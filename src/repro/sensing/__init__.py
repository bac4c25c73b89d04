"""Synthetic environment: weather, in-hive microclimate, trace containers.

The paper deploys real hives in Cachan and Lyon and records weather alongside
the system traces (Figure 2).  Since real traces are unavailable, this
package generates statistically plausible substitutes: diurnal outdoor
temperature, per-day cloud cover modulating irradiance, and an in-hive
microclimate model (bee colonies thermoregulate the brood nest near 35 °C;
the paper's empty hive instead tracks ambient, which we also support).
"""
