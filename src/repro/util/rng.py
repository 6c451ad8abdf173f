"""Deterministic random-number helpers.

Every stochastic piece of the library takes an explicit seed, so every
experiment in the reproduction is bit-for-bit repeatable.  One source,
:class:`PCG64Stream`, draws everything: the mapper's perturbed op orders
(:meth:`repro.compiler.ems.EMSMapper.attempt_order`), the kernels' inputs
(:mod:`repro.kernels`), the random DFGs (:mod:`repro.dfg.random_dfg`) and
the system simulator's traces (:mod:`repro.sim.workload`).  It is pure
Python, so the program never imports numpy, and an artifact's, an input's
or a trace's bytes depend on this file rather than on numpy's internals.
Its draws (``integers``, ``int_list``, ``random``, ``exponential``,
``poisson``) return exactly what the same calls on
``numpy.random.default_rng(seed)`` return, in any interleaving; numpy stays
their test reference (``tests/test_util.py``).  :func:`derive_seed` is
numpy's ``SeedSequence`` with a spawn key, in pure Python too.

:func:`make_rng` returns a numpy generator for the benchmark harness under
``perf/``, which imports it; nothing under ``src/`` calls it.
"""

from __future__ import annotations

import math

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


def _entropy_pool(entropy: list[int]) -> list[int]:
    """``SeedSequence.mix_entropy``: the pool hashed from the 32-bit
    *entropy* words."""
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

    padded = entropy + [0] * (_POOL_SIZE - len(entropy))
    pool = [hashmix(word) for word in padded[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _state_words(pool: list[int], n: int) -> list[int]:
    """``SeedSequence.generate_state(n, uint32)`` from a mixed *pool*."""
    hash_const = _INIT_B
    words = []
    for k in range(n):
        value = pool[k % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _M32
        value = (value * hash_const) & _M32
        words.append(value ^ (value >> _XSHIFT))
    return words


def _seed_state(seed: int) -> tuple[int, int]:
    """PCG64's (state, increment) after seeding from
    ``SeedSequence(seed).generate_state(4, uint64)``."""
    # four uint64 words: eight 32-bit words, paired little-endian
    words = _state_words(_entropy_pool(_seed_words(seed)), 8)
    s0, s1, i0, i1 = (words[k] | words[k + 1] << 32 for k in range(0, 8, 2))

    # pcg_setseq_128_srandom_r; of each 64-bit pair the first is the high half.
    inc = (((i0 << 64 | i1) << 1) | 1) & _M128
    state = (inc + (s0 << 64 | s1)) & _M128  # step from 0, add the seed
    return (state * _PCG_MULT + inc) & _M128, inc


class PCG64Stream:
    """Draws identical to the same calls on ``numpy.random.default_rng(seed)``.

    The parts are numpy's: SeedSequence pool hashing, PCG64 seeding, the
    XSL-RR 128/64 output, the spare 32-bit half of a 64-bit output kept
    for the next 32-bit draw (a 64-bit draw leaves it alone), Lemire's
    bounded draw, the 53-bit double, the exponential ziggurat and the
    Poisson samplers.  An array draw of numpy's is the same scalar draws
    in order (:meth:`int_list`).
    """

    __slots__ = ("_state", "_inc", "_spare")

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self._state, self._inc = _seed_state(seed)
        self._spare: int | None = None

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        rot = state >> 122
        x = ((state >> 64) ^ state) & _M64
        return ((x >> rot) | (x << (64 - rot))) & _M64

    def _next32(self) -> int:
        spare = self._spare
        if spare is not None:
            self._spare = None
            return spare
        out = self._next64()
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

    def int_list(self, low: int, high: int, size: int) -> list[int]:
        """*size* uniform integers in ``[low, high)``: numpy's
        ``integers(low, high, size)``, the scalar draws in order."""
        span, draw = high - low, self.integers
        return [low + draw(span) for _ in range(size)]

    def random(self) -> float:
        """A uniform double in ``[0, 1)``: the top 53 bits of a 64-bit draw."""
        return (self._next64() >> 11) * _TWO_M53

    def exponential(self, scale: float = 1.0) -> float:
        """An exponential draw of mean *scale*: numpy's 256-layer ziggurat."""
        from repro.util.ziggurat import FE, KE, WE

        while True:
            bits = self._next64() >> 3
            idx = bits & 0xFF
            bits >>= 8
            x = bits * WE[idx]
            if bits < KE[idx]:
                return scale * x
            if idx == 0:  # the tail, drawn as 1 - U to keep log away from 0
                return scale * (_ZIGGURAT_EXP_R - math.log1p(-self.random()))
            if (FE[idx - 1] - FE[idx]) * self.random() + FE[idx] < math.exp(-x):
                return scale * x

    def poisson(self, lam: float) -> int:
        """A Poisson draw of mean *lam*: numpy's PTRS rejection sampler for
        ``lam >= 10``, its product of uniforms below."""
        if not 0 <= lam <= _POISSON_LAM_MAX:
            raise ValueError(f"lam must be in [0, {_POISSON_LAM_MAX}], got {lam}")
        lam = float(lam)
        if lam >= 10:
            return self._poisson_ptrs(lam)
        if lam == 0:
            return 0
        limit = math.exp(-lam)
        count, prod = 0, 1.0
        while True:
            prod *= self.random()
            if prod <= limit:
                return count
            count += 1

    def _poisson_ptrs(self, lam: float) -> int:
        """Hörmann's transformed rejection (PTRS), as numpy writes it."""
        slam = math.sqrt(lam)
        loglam = math.log(lam)
        b = 0.931 + 2.53 * slam
        a = -0.059 + 0.02483 * b
        log_invalpha = math.log(1.1239 + 1.1328 / (b - 3.4))
        vr = 0.9277 - 3.6224 / (b - 2)
        while True:
            u = self.random() - 0.5
            v = self.random()
            us = 0.5 - abs(u)
            if us == 0.0:  # C's k is then floor(-inf) cast: negative, rejected
                continue
            k = math.floor((2 * a / us + b) * u + lam + 0.43)
            if us >= 0.07 and v <= vr:
                return k
            # C casts k to int64: out of range it is negative, rejected
            if not 0 <= k < 1 << 63 or (us < 0.013 and v > us):
                continue
            log_v = math.log(v) if v > 0.0 else -math.inf  # C's log(0) is -inf
            if (log_v + log_invalpha - math.log(a / (us * us) + b)
                    <= -lam + k * loglam - _loggam(float(k + 1))):
                return k


#: ``2**-53``: a 53-bit integer scaled into ``[0, 1)``
_TWO_M53 = 1.0 / 9007199254740992.0
#: the ziggurat's rightmost layer edge, where the idx-0 tail starts
_ZIGGURAT_EXP_R = 7.69711747013104972
#: numpy's largest accepted Poisson mean
_POISSON_LAM_MAX = 9.223372006484771e18
#: numpy's Stirling-series coefficients of ``random_loggam``
_LOGGAM_COEFFS = (
    8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04,
    -5.952380952380952e-04, 8.417508417508418e-04, -1.917526917526918e-03,
    6.410256410256410e-03, -2.955065359477124e-02, 1.796443723688307e-01,
    -1.39243221690590e00,
)
_HALF_LOG_2PI = 0.5 * 1.8378770664093453


def _loggam(x: float) -> float:
    """``log(Gamma(x))`` for ``x >= 1``: numpy's ``random_loggam``."""
    if x == 1.0 or x == 2.0:
        return 0.0
    n = int(7 - x) if x < 7.0 else 0
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = _LOGGAM_COEFFS[9]
    for coeff in reversed(_LOGGAM_COEFFS[:9]):
        gl0 = gl0 * x2 + coeff
    gl = gl0 / x0 + _HALF_LOG_2PI + (x0 - 0.5) * math.log(x0) - x0
    for _ in range(n):
        gl -= math.log(x0 - 1.0)
        x0 -= 1.0
    return gl


def make_rng(seed=0):
    """Return a :class:`numpy.random.Generator`, for ``perf/`` only: its
    serve workload draws its request mix from it.  The program draws from
    :class:`PCG64Stream`.

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

    ``SeedSequence(entropy=seed, spawn_key=labels).generate_state(1,
    uint64)``, in pure Python: children of distinct labels are
    statistically independent while remaining reproducible.  String
    labels are hashed stably (FNV-1a, not ``hash()``, which is salted per
    process); integer labels are taken modulo ``2**32``.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    keys: list[int] = []
    for s in streams:
        if isinstance(s, str):
            acc = 2166136261
            for ch in s.encode("utf-8"):  # FNV-1a, stable across processes
                acc = ((acc ^ ch) * 16777619) & 0xFFFFFFFF
            keys.append(acc)
        else:
            keys.append(int(s) & 0xFFFFFFFF)
    entropy = _seed_words(seed)
    if keys:  # a spawn key starts after an entropy zero-padded to the pool
        entropy += [0] * (_POOL_SIZE - len(entropy))
    low, high = _state_words(_entropy_pool(entropy + keys), 2)
    return low | high << 32
