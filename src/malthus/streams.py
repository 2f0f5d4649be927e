"""numpy's Philox4x64-10 streams, evaluated on arrays, and the draws made from them.

``philox_block`` computes the first output block of many Philox streams at
once (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11),
word for word what ``numpy.random.Philox.random_raw`` returns.  The 64x64 ->
128-bit products are formed from 32-bit halves, so everything stays in
``uint64`` and wraps as the C code does.

Every draw reads exactly one word ``w``.  ``uniform`` is the uniform that
``Generator.random`` gives for it, U = (w >> 11) 2**-53, and ``exponential``
inverts the Exp(1) law on it, -log1p(-U) (Devroye, *Non-Uniform Random
Variate Generation*, 1986, section 2.1).  Its largest value is 53 ln 2, about
36.74; the mass of the law beyond it is about 1e-16.
"""

from __future__ import annotations

import math

import numpy as np

MASK32 = 0xFFFFFFFF
_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)   # round multipliers
_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)   # Weyl key increments
_ROUNDS = 10


def _mulhilo(m: int, x: np.ndarray):
    """(low, high) 64-bit words of the 128-bit products m * x."""
    m_lo, m_hi = np.uint64(m & MASK32), np.uint64(m >> 32)
    x_lo, x_hi = x & MASK32, x >> 32
    lh = x_lo * m_hi
    hl = x_hi * m_lo
    cross = ((x_lo * m_lo) >> 32) + (hl & MASK32) + lh
    return x * np.uint64(m), x_hi * m_hi + (hl >> 32) + (cross >> 32)


def philox_block(key0: int, key1: np.ndarray, counter: tuple) -> list:
    """Philox4x64-10 of ``counter`` (four words) under key ``(key0, key1)``.

    ``key1`` and the counter words broadcast as uint64 arrays; returns the
    four output words, each an array over the lanes.
    """
    c0, c1, c2, c3 = (np.asarray(c, dtype=np.uint64) for c in counter)
    k0 = key0
    k1 = np.asarray(key1, dtype=np.uint64)
    # uint64 arithmetic wraps, as in C; 0-d operands would warn about it
    with np.errstate(over="ignore"):
        for r in range(_ROUNDS):
            if r:
                k0 = (k0 + _W[0]) & 0xFFFFFFFFFFFFFFFF
                k1 = k1 + np.uint64(_W[1])
            lo0, hi0 = _mulhilo(_M[0], c0)
            lo1, hi1 = _mulhilo(_M[1], c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ k1, lo0
    return [c0, c1, c2, c3]


def uniform(w: np.ndarray) -> np.ndarray:
    """``Generator.random`` of each word ``w``: its top 53 bits times 2**-53."""
    return (w >> 11).astype(float) * 2.0**-53


def math_map(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` (a ``math`` function) applied to every element of the 1-D ``x``.

    numpy's vectorised log1p, exp and log differ from ``math``'s in the last
    bit on some CPUs, which would make draws and phases depend on the machine.
    """
    return np.fromiter(map(fn, x.tolist()), dtype=float, count=x.size)


def exponential(w: np.ndarray) -> np.ndarray:
    """Exp(1) draws -log1p(-U) from words ``w``, U = ``uniform(w)``, by ``math.log1p``."""
    return -math_map(math.log1p, -uniform(w))
