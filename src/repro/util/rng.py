"""Deterministic random-number-generator plumbing.

All stochastic components in the library accept either an integer seed or an
existing :class:`numpy.random.Generator`.  :func:`make_rng` normalises both
into a Generator; :func:`spawn` derives independent child streams so that
adding a new consumer of randomness never perturbs existing draws (important
when comparing loss-model runs side by side).
"""

from __future__ import annotations

import hashlib
import warnings
from typing import TYPE_CHECKING, Sequence, Union

if TYPE_CHECKING:
    import numpy as np

SeedLike = Union[int, "np.random.Generator", "np.random.SeedSequence", None]

#: Default seed used by experiments when the caller does not provide one.
DEFAULT_SEED = 0xBEE5


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` (use :data:`DEFAULT_SEED`), an ``int``, a ``SeedSequence``,
        or an existing ``Generator`` (returned unchanged).
    """
    import numpy as np

    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None:
        seed = DEFAULT_SEED
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be int/Generator/SeedSequence/None, got {type(seed)!r}")
    return np.random.default_rng(int(seed))


def resolve_rng(rng: SeedLike = None, seed: SeedLike = None) -> np.random.Generator:
    """Normalise the ``rng``/legacy-``seed`` pair into one Generator.

    ``seed`` is a deprecated alias kept so older call sites keep working;
    passing it emits a :class:`DeprecationWarning`.  Passing both is an
    error.  Long simulations should thread a single ``rng`` through every
    transfer instead of re-creating a generator per call.
    """
    if seed is not None:
        if rng is not None:
            raise TypeError("pass either rng or seed, not both")
        warnings.warn(
            "the 'seed' parameter is deprecated; pass 'rng' instead",
            DeprecationWarning,
            stacklevel=3,
        )
        return make_rng(seed)
    return make_rng(rng)


def spawn(rng: np.random.Generator, n: int = 1) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent child generators from ``rng``.

    Children are produced via ``SeedSequence`` spawning on fresh entropy drawn
    from the parent, so repeated calls on the same parent yield different but
    reproducible streams.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    import numpy as np

    entropy = int(rng.integers(0, 2**63 - 1))
    seq = np.random.SeedSequence(entropy)
    return [np.random.default_rng(child) for child in seq.spawn(n)]


def derive_seed(base: int, *labels: Union[str, int]) -> int:
    """Derive a stable 63-bit seed from a base seed and a label path.

    Used so that e.g. ``derive_seed(seed, "fig8", "loss_c")`` always names the
    same stream regardless of execution order.  Each label component is
    length-prefixed before hashing, so label *structure* is part of the
    stream name: ``("a/b",)`` and ``("a", "b")`` derive different seeds (a
    plain separator join would collide whenever a label contains the
    separator).  Labels are stringified, so ``1`` and ``"1"`` are the same
    component by design.
    """
    h = hashlib.sha256()
    base_repr = str(int(base)).encode()
    h.update(len(base_repr).to_bytes(4, "little"))
    h.update(base_repr)
    for label in labels:
        data = str(label).encode()
        h.update(len(data).to_bytes(4, "little"))
        h.update(data)
    return int.from_bytes(h.digest()[:8], "little") & (2**63 - 1)


def rng_for(base: int, *labels: Union[str, int]) -> np.random.Generator:
    """Shorthand for ``make_rng(derive_seed(base, *labels))``."""
    return make_rng(derive_seed(base, *labels))


def choice_without_replacement(
    rng: np.random.Generator, pool: Sequence[int], size: int
) -> np.ndarray:
    """Sample ``size`` distinct items from ``pool`` (clamped to pool size)."""
    import numpy as np

    size = min(size, len(pool))
    if size <= 0:
        return np.empty(0, dtype=np.int64)
    return rng.choice(np.asarray(pool), size=size, replace=False)
