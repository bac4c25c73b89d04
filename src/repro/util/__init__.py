"""Shared utilities: RNG management, units, validation, tables.

Everything in :mod:`repro` that is stochastic draws its randomness from a
:class:`numpy.random.Generator` obtained through :func:`repro.util.rng.make_rng`
or spawned from a parent generator, so that every experiment is exactly
reproducible from a single integer seed.
"""

from repro.util.rng import make_rng, spawn, derive_seed
from repro.util.units import (
    Joules,
    Seconds,
    Watts,
    MINUTE,
    HOUR,
    DAY,
    format_duration,
    format_energy,
    format_power,
    wh_to_joules,
    joules_to_wh,
)
from repro.util.validation import (
    check_positive,
    check_non_negative,
    check_in_range,
    check_probability,
    check_integer,
)
from repro.util.tabulate import render_table, render_kv

__all__ = [
    "make_rng",
    "spawn",
    "derive_seed",
    "Joules",
    "Seconds",
    "Watts",
    "MINUTE",
    "HOUR",
    "DAY",
    "format_duration",
    "format_energy",
    "format_power",
    "wh_to_joules",
    "joules_to_wh",
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_probability",
    "check_integer",
    "render_table",
    "render_kv",
]
