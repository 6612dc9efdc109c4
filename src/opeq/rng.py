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

:func:`complex_normal_matrix` draws the same stream in parallel lanes
rather than one Python step per word.  The update is linear over GF(2), so ``L = _LANE`` steps are one
256x256 bit matrix T^L (Haramoto et al., "Efficient Jump Ahead for
F2-Linear Random Number Generators", INFORMS J. Computing 20(3), 2008).
Its columns are the images of the 256 unit states, which the vectorised
step computes.  It is applied as a byte table (32 byte positions x 256
values, built on first use), so a jump is an XOR of 32 rows.  Lane ``j``
starts at T^(jL) s, all lanes advance together as ``uint64`` arrays, and
their ``s1`` words read out lane by lane are the stream in order.  The part
shorter than one lane, and every draw of fewer than ``_MIN_LANES`` lanes,
runs the scalar loop, which leaves the state where the scalar methods
would.  The scrambler and Box-Muller's exact operations then run on arrays,
``log`` still goes through ``math`` (libm), and each entry is
``cmath.rect(r, theta)``, which forms ``r cos theta`` and ``r sin theta``
with the same libm ``cos`` and ``sin`` in one pass, so every entry matches
the scalar methods bit for bit.
"""

from __future__ import annotations

import cmath
import functools
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


# Entries per block of complex_normal_matrix's float stage; bounds its temporaries.
_BLOCK = 1024
# Words each lane draws; T^_LANE is the jump from one lane's start to the
# next.  A draw costs about _LANE numpy steps plus one Python jump per lane.
# The words of the k=32 benchmark set-up's draws took 198, 165, 156, 153,
# 161 and 180 ms at 64, 96, 128, 160, 192 and 256 (k=16's: 68, 65, 82, 96,
# 105, 126 ms; the scalar loop takes about 1.45 s for k=32), 2-core x86 VM.
_LANE = 128
# Fewest lanes worth starting; a shorter draw takes the scalar loop.  Same
# VM: a 1 x (n * _LANE / 2) draw through n lanes beat the scalar loop in
# 1 of 41 interleaved trials at n = 16, 21 at n = 20 and 38 at n = 24.
_MIN_LANES = 24


def _advance(state: np.ndarray, steps: int, words: np.ndarray | None = None) -> None:
    """Step every lane of ``state`` (4 x lanes, uint64) ``steps`` times, in place.

    Column ``i`` of ``words`` (lanes x steps), if given, receives the ``s1``
    word each lane held before step ``i``.  uint64 shifts wrap mod 2**64.
    """
    s0, s1, s2, s3 = state
    t = np.empty_like(s1)
    for i in range(steps):
        if words is not None:
            words[:, i] = s1
        np.left_shift(s1, 17, out=t)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        np.left_shift(s3, 45, out=t)
        s3 >>= 19
        s3 |= t


@functools.cache
def _jump_table() -> list[list[int]]:
    """T^_LANE as byte rows over 256-bit states ``s0 | s1 << 64 | s2 << 128 | s3 << 192``.

    ``row[p][v]`` is the image of the state whose byte ``p`` is ``v`` and
    every other bit 0, so a state's image is the XOR of one entry per row.
    """
    # Column b of T^_LANE is where the unit state with only bit b set goes.
    bit = np.arange(256)
    unit = np.zeros((4, 256), dtype=np.uint64)
    unit[bit // 64, bit] = np.left_shift(np.uint64(1), (bit % 64).astype(np.uint64))
    _advance(unit, _LANE)
    raw = unit.T.astype("<u8").tobytes()
    cols = [int.from_bytes(raw[32 * b:32 * b + 32], "little") for b in range(256)]
    rows = []
    for p in range(32):
        row = [0]
        for c in cols[8 * p:8 * p + 8]:  # entries with bit i of v set follow those without
            row += [x ^ c for x in row]
        rows.append(row)
    return rows


def _jump(table: list[list[int]], x: int) -> int:
    """T^_LANE applied to the 256-bit state ``x``."""
    y = 0
    for row, byte in zip(table, x.to_bytes(32, "little")):
        y ^= row[byte]
    return y


def _scalar_words(s: list[int], count: int) -> array:
    """The ``s1`` words of the next ``count`` steps of state ``s``, which is advanced in place."""
    s0, s1, s2, s3 = s
    raw = array("Q", bytes(8 * count))
    for i in range(count):
        raw[i] = s1
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) & _MASK) | (s3 >> 19)
    s[:] = [s0, s1, s2, s3]
    return raw


def _words(s: list[int], count: int) -> np.ndarray:
    """The ``s1`` words of the next ``count`` steps of state ``s``, which is advanced in place.

    Lane ``j`` starts at T^(j _LANE) s and draws words ``j _LANE`` onwards;
    the scalar loop draws the tail from where the last lane stops.
    """
    lanes = count // _LANE
    if lanes < _MIN_LANES:
        return np.frombuffer(_scalar_words(s, count), dtype=np.uint64)
    table = _jump_table()
    x = s[0] | s[1] << 64 | s[2] << 128 | s[3] << 192
    starts = [x]
    for _ in range(lanes - 1):
        x = _jump(table, x)
        starts.append(x)
    raw = b"".join(x.to_bytes(32, "little") for x in starts)
    state = np.ascontiguousarray(np.frombuffer(raw, dtype="<u8").reshape(lanes, 4).T,
                                 dtype=np.uint64)
    words = np.empty(count, dtype=np.uint64)
    _advance(state, _LANE, words[:lanes * _LANE].reshape(lanes, _LANE))
    s[:] = [int(w) for w in state[:, -1]]
    words[lanes * _LANE:] = np.frombuffer(_scalar_words(s, count - lanes * _LANE), dtype=np.uint64)
    return words


def _uniforms(words: np.ndarray) -> np.ndarray:
    """Uniform doubles from the ``s1`` words the state held: scrambler, then top 53 bits."""
    x = words * np.uint64(5)  # uint64 wraps mod 2**64
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
    words = _words(rng._s, 2 * out.size)  # two per entry
    for start in range(0, out.size, _BLOCK):
        stop = min(start + _BLOCK, out.size)
        u = _uniforms(words[2 * start:2 * stop])
        r = np.sqrt(-2.0 * _libm(math.log, 1.0 - u[0::2]))
        theta = (2.0 * math.pi) * u[1::2]
        out[start:stop] = np.fromiter(map(cmath.rect, r.tolist(), theta.tolist()), dtype=np.complex128,
                                      count=stop - start)
    return out.reshape(rows, cols)
