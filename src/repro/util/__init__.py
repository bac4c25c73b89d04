"""Shared utilities: RNG management, units, validation, tables.

Everything in :mod:`repro` that is stochastic draws its randomness from a
:class:`numpy.random.Generator` obtained through :func:`repro.util.rng.make_rng`
or spawned from a parent generator, so that every experiment is exactly
reproducible from a single integer seed.
"""
