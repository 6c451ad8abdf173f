"""Deterministic random-number helpers.

All stochastic pieces of the library (workload generation, the simulated
annealing mapper, fuzz helpers in tests) take an explicit seed and build a
:class:`numpy.random.Generator` through :func:`make_rng`, so every experiment
in the paper reproduction is bit-for-bit repeatable.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng", "derive_seed"]


def make_rng(seed: int | np.random.Generator | None = 0) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator`.

    Accepts an integer seed (the common case), ``None`` (non-deterministic,
    only sensible for exploratory use), or an existing generator which is
    passed through unchanged so call sites can accept either form.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_seed(seed: int, *streams: int | str) -> int:
    """Derive a child seed from *seed* and a tuple of stream labels.

    Uses :class:`numpy.random.SeedSequence` entropy mixing, so children of
    distinct labels are statistically independent while remaining
    reproducible.  String labels are hashed stably (not with ``hash()``,
    which is salted per process).
    """
    keys: list[int] = []
    for s in streams:
        if isinstance(s, str):
            acc = 2166136261
            for ch in s.encode("utf-8"):  # FNV-1a, stable across processes
                acc = ((acc ^ ch) * 16777619) & 0xFFFFFFFF
            keys.append(acc)
        else:
            keys.append(int(s) & 0xFFFFFFFF)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(keys))
    return int(ss.generate_state(1, dtype=np.uint64)[0])

