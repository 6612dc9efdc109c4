"""Self-contained xoshiro256** generator used for reproducible instances.

The generator is pinned algorithmically, not to a library, so the exact
streams can be reproduced from this description alone:

* State: four unsigned 64-bit words ``s0..s3``, seeded by four successive
  outputs of SplitMix64 started at the user seed.  SplitMix64 step:
  ``state += 0x9E3779B97F4A7C15``; then ``z = state``,
  ``z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9``,
  ``z = (z ^ (z >> 27)) * 0x94D049BB133111EB``, output ``z ^ (z >> 31)``,
  all modulo 2**64.
* Output: ``rotl(s1 * 5, 7) * 9``; update: ``t = s1 << 17``,
  ``s2 ^= s0; s3 ^= s1; s1 ^= s2; s0 ^= s3; s2 ^= t; s3 = rotl(s3, 45)``.
* Uniform double in [0, 1): top 53 bits, ``(u64 >> 11) * 2.0**-53``.
* Standard normal pair (Box-Muller): draw u1 then u2,
  ``r = sqrt(-2 ln(1 - u1))``, ``theta = 2 pi u2``, output
  ``(r cos theta, r sin theta)``.
* Complex standard normal entry: one Box-Muller pair, real part first.
  Matrices are filled row-major.

The 64-bit integer stream is bit-exact on any platform; the derived floats
are deterministic given IEEE-754 doubles and the platform's libm.

:func:`complex_normal_matrix` draws the same stream in blocks: a Python
loop advances the state, the scrambler and Box-Muller's exact operations
run on arrays, and ``log``/``cos``/``sin`` still go through ``math`` (libm),
so every entry matches the scalar methods bit for bit.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

__all__ = ["Xoshiro256StarStar", "complex_normal_matrix"]

_MASK = (1 << 64) - 1


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


def _splitmix64_fill(seed: int, count: int):
    state = seed & _MASK
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        out.append(z ^ (z >> 31))
    return out


class Xoshiro256StarStar:
    """xoshiro256** with SplitMix64 seeding; see the module docstring."""

    def __init__(self, seed: int):
        self._s = _splitmix64_fill(int(seed), 4)

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK, 7) * 9) & _MASK
        t = (s[1] << 17) & _MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53

    def normal_pair(self):
        u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(1.0 - u1))
        theta = 2.0 * math.pi * u2
        return r * math.cos(theta), r * math.sin(theta)

    def complex_normal(self) -> complex:
        re, im = self.normal_pair()
        return complex(re, im)


# Entries per block of complex_normal_matrix; bounds its temporaries.
_BLOCK = 1024


def _uniforms(raw: array) -> np.ndarray:
    """Uniform doubles from the ``s1`` words the state held: scrambler, then top 53 bits."""
    x = np.frombuffer(raw, dtype=np.uint64) * np.uint64(5)  # uint64 wraps mod 2**64
    x = ((x << np.uint64(7)) | (x >> np.uint64(57))) * np.uint64(9)
    # Integers below 2**53 convert exactly, and the power-of-two scale is exact.
    return (x >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` from ``math`` applied entrywise, so results match the scalar path."""
    return np.fromiter(map(fn, x.tolist()), dtype=np.float64, count=x.size)


def complex_normal_matrix(rng: Xoshiro256StarStar, rows: int, cols: int) -> np.ndarray:
    """Row-major matrix of independent standard complex normal entries.

    The stream and the generator's final state equal ``rows * cols`` calls
    of :meth:`Xoshiro256StarStar.complex_normal`.
    """
    out = np.empty(rows * cols, dtype=np.complex128)
    s0, s1, s2, s3 = rng._s
    for start in range(0, out.size, _BLOCK):
        count = min(_BLOCK, out.size - start)
        raw = array("Q", bytes(16 * count))
        # Two draws per entry: keep s1 for the scrambler, then advance the state.
        for i in range(2 * count):
            raw[i] = s1
            t = (s1 << 17) & _MASK
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) & _MASK) | (s3 >> 19)
        u = _uniforms(raw)
        r = np.sqrt(-2.0 * _libm(math.log, 1.0 - u[0::2]))
        theta = (2.0 * math.pi) * u[1::2]
        block = out[start:start + count]
        block.real = r * _libm(math.cos, theta)
        block.imag = r * _libm(math.sin, theta)
    rng._s[:] = [s0, s1, s2, s3]
    return out.reshape(rows, cols)
