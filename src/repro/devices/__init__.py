"""Device substrate: hardware catalog and duty-cycled device models.

Models the three machines of the paper's testbed:

* **Raspberry Pi 3b+** — the beehive data recorder (duty-cycled; boots on a
  GPIO wake-up signal, samples sensors, uploads, shuts down);
* **Raspberry Pi Zero WH** — the always-on energy monitor that issues the
  wake-up signals and records currents;
* **Cloud server** — an i7-8700K + RTX 2070 machine that is always idle-on
  and executes the queen-detection service in the edge+cloud scenario.
"""
