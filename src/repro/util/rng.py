"""Deterministic random-number helpers.

Every stochastic piece of the library takes an explicit seed, so every
experiment in the reproduction is bit-for-bit repeatable.  Two sources:

* :class:`PCG64Stream` — the mapper's perturbed op orders
  (:meth:`repro.compiler.ems.EMSMapper.attempt_order`).  It is pure Python,
  so compiling, storing, auditing and serving never import numpy, and an
  artifact's bytes depend on this file rather than on numpy's internals.
  ``PCG64Stream(seed).integers(n)`` returns exactly the integers
  ``numpy.random.default_rng(seed).integers(n)`` returns; numpy stays its
  test reference (``tests/test_rng.py``).
* :func:`make_rng` / :func:`derive_seed` — numpy generators and seeds for
  everything that builds arrays (workload traces, random DFGs, kernel
  inputs, fuzz helpers).  numpy is imported inside them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = ["PCG64Stream", "make_rng", "derive_seed"]

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1

# numpy.random.SeedSequence hashing constants (pool size 4, 32-bit words).
_POOL_SIZE = 4
_XSHIFT = 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

#: PCG's default 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """*seed* as little-endian 32-bit words (``[0]`` for 0)."""
    words = [seed & _M32]
    seed >>= 32
    while seed:
        words.append(seed & _M32)
        seed >>= 32
    return words


def _seed_state(seed: int) -> tuple[int, int]:
    """PCG64's (state, increment) after seeding from
    ``SeedSequence(seed).generate_state(4, uint64)``."""
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _M32
        value = (value * hash_const) & _M32
        return value ^ (value >> _XSHIFT)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return result ^ (result >> _XSHIFT)

    entropy = _seed_words(seed)
    padded = entropy + [0] * (_POOL_SIZE - len(entropy))
    pool = [hashmix(word) for word in padded[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(4, uint64): eight 32-bit words, paired little-endian.
    hash_const = _INIT_B
    words = []
    for k in range(8):
        value = pool[k % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _M32
        value = (value * hash_const) & _M32
        words.append(value ^ (value >> _XSHIFT))
    s0, s1, i0, i1 = (words[k] | words[k + 1] << 32 for k in range(0, 8, 2))

    # pcg_setseq_128_srandom_r; of each 64-bit pair the first is the high half.
    inc = (((i0 << 64 | i1) << 1) | 1) & _M128
    state = (inc + (s0 << 64 | s1)) & _M128  # step from 0, add the seed
    return (state * _PCG_MULT + inc) & _M128, inc


class PCG64Stream:
    """Bounded integer draws identical to ``numpy.random.default_rng(seed)``.

    The parts are numpy's: SeedSequence pool hashing, PCG64 seeding, the
    XSL-RR 128/64 output, the spare 32-bit half of each 64-bit output kept
    for the next draw, and Lemire's bounded draw.  Only
    :meth:`integers` with a scalar bound in ``[1, 2**32]`` is provided —
    the one call the mapper makes.
    """

    __slots__ = ("_state", "_inc", "_spare")

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self._state, self._inc = _seed_state(seed)
        self._spare: int | None = None

    def _next32(self) -> int:
        spare = self._spare
        if spare is not None:
            self._spare = None
            return spare
        state = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        rot = state >> 122
        x = ((state >> 64) ^ state) & _M64
        out = ((x >> rot) | (x << (64 - rot))) & _M64
        self._spare = out >> 32
        return out & _M32

    def integers(self, n: int) -> int:
        """A uniform integer in ``[0, n)``, ``1 <= n <= 2**32``."""
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"bound must be in [1, 2**32], got {n}")
        if n == 1:
            return 0
        if n == 1 << 32:
            return self._next32()
        m = self._next32() * n
        if m & _M32 < n:
            threshold = ((1 << 32) - n) % n
            while m & _M32 < threshold:
                m = self._next32() * n
        return m >> 32


def make_rng(seed: int | np.random.Generator | None = 0) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator`.

    Accepts an integer seed (the common case), ``None`` (non-deterministic,
    only sensible for exploratory use), or an existing generator which is
    passed through unchanged so call sites can accept either form.
    """
    import numpy as np

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
    import numpy as np

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
