"""Energy substrate: power models, ledgers, battery, solar harvest.

This package models the *energy node* of the deployed system (§III of the
paper): a 30 W monocrystalline solar panel, a DC/DC step-down converter
(5 V / 3 A) and a 20 000 mAh power bank, plus the power-state machinery used
to account for the duty-cycled Raspberry Pi devices.

The day/night outages visible in the paper's Figure 2a (the system halts when
panel output collapses after sunset and the battery is drained) emerge from
:class:`repro.energy.harvest.HarvestSimulation`.
"""
