"""Combined energy-node simulation: panel → converter → battery → load.

:class:`HarvestSimulation` steps the full chain on a fixed time grid and
produces the availability trace underlying the paper's Figure 2a: during the
day the panel covers the load and recharges the battery; after sunset the
battery alone carries the load, and once it hits the protection cutoff the
beehive electronics go dark until enough morning light has accumulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.energy.battery import Battery
from repro.energy.converter import DCDCConverter
from repro.energy.solar import SolarPanel, clear_sky_irradiance
from repro.util.validation import check_positive


@dataclass
class EnergyNode:
    """Panel + converter + battery assembly of one smart beehive."""

    panel: SolarPanel
    converter: DCDCConverter
    battery: Battery


@dataclass(frozen=True)
class HarvestResult:
    """Output of a harvest simulation on a fixed grid.

    Attributes
    ----------
    times:
        Grid timestamps (s).
    irradiance:
        Input irradiance (W/m²).
    harvest_watts:
        Converter output power (W).
    load_watts:
        Requested load (W).
    supplied_watts:
        Load actually supplied (W); zero during outages.
    soc:
        Battery state of charge after each step.
    available:
        Boolean availability trace (True while the load runs).
    """

    times: np.ndarray
    irradiance: np.ndarray
    harvest_watts: np.ndarray
    load_watts: np.ndarray
    supplied_watts: np.ndarray
    soc: np.ndarray
    available: np.ndarray

    @property
    def uptime_fraction(self) -> float:
        """Fraction of steps during which the load was fully supplied."""
        return float(np.mean(self.available))

    def outages(self) -> list[tuple[float, float]]:
        """Return ``(start, end)`` intervals of unavailability."""
        out = []
        in_outage = False
        start = 0.0
        for t, avail in zip(self.times, self.available):
            if not avail and not in_outage:
                in_outage, start = True, float(t)
            elif avail and in_outage:
                in_outage = False
                out.append((start, float(t)))
        if in_outage:
            out.append((start, float(self.times[-1])))
        return out


class HarvestSimulation:
    """Fixed-step simulation of the energy node under a load profile.

    Parameters
    ----------
    node:
        The :class:`EnergyNode` to simulate.
    irradiance_fn:
        ``f(time_s) -> W/m²``; defaults to :func:`clear_sky_irradiance`.
    load_fn:
        ``f(time_s, available) -> W`` requested by the electronics; receives
        the current availability so duty-cycled loads can stay dark during an
        outage.
    step:
        Grid step in seconds.
    """

    def __init__(
        self,
        node: EnergyNode,
        irradiance_fn: Optional[Callable[[float], float]] = None,
        load_fn: Optional[Callable[[float, bool], float]] = None,
        step: float = 60.0,
    ) -> None:
        self.node = node
        self.irradiance_fn = irradiance_fn or clear_sky_irradiance
        self.load_fn = load_fn or (lambda t, available: 1.0)
        self.step = check_positive(step, "step")

    def run(self, duration: float) -> HarvestResult:
        """Simulate ``duration`` seconds and return the full trace."""
        check_positive(duration, "duration")
        n = int(np.ceil(duration / self.step))
        times = np.arange(n) * self.step
        irr = np.empty(n)
        harvest = np.empty(n)
        load = np.empty(n)
        supplied = np.empty(n)
        soc = np.empty(n)
        available = np.empty(n, dtype=bool)

        battery = self.node.battery
        for i, t in enumerate(times):
            avail = battery.can_supply
            irr[i] = self.irradiance_fn(float(t))
            panel_watts = self.node.panel.output_watts(irr[i])
            harvest_watts = self.node.converter.convert(panel_watts)
            load_watts = self.load_fn(float(t), avail) if avail else 0.0

            # Harvest covers the load first; surplus charges, deficit discharges.
            dt = self.step
            direct = min(harvest_watts, load_watts)
            surplus = (harvest_watts - direct) * dt
            deficit = (load_watts - direct) * dt
            if surplus > 0:
                battery.charge(surplus)
            delivered = direct * dt
            if deficit > 0:
                delivered += battery.discharge(deficit)

            harvest[i] = harvest_watts
            load[i] = load_watts
            supplied[i] = delivered / dt
            soc[i] = battery.soc
            # The step counts as available if the full request was met.
            available[i] = avail and (delivered >= load_watts * dt - 1e-9)

        return HarvestResult(
            times=times,
            irradiance=irr,
            harvest_watts=harvest,
            load_watts=load,
            supplied_watts=supplied,
            soc=soc,
            available=available,
        )
