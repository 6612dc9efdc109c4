"""The pinned xoshiro256** stream: scalar reference values and the lane/block matrix path."""

import numpy as np
import pytest

from opeq import rng
from opeq.rng import Xoshiro256StarStar, complex_normal_matrix


def scalar_matrix(rng, rows, cols):
    """Row-major loop of the scalar reference draw."""
    out = np.empty((rows, cols), dtype=np.complex128)
    for i in range(rows):
        for j in range(cols):
            out[i, j] = rng.complex_normal()
    return out


# The first eight outputs of seed 0; integers, so exact on every platform.
SEED0 = [0x99EC5F36CB75F2B4, 0xBF6E1F784956452A, 0x1A5F849D4933E6E0, 0x6AA594F1262D2D2C,
         0xBBA5AD4A1F842E59, 0xFFEF8375D9EBCACA, 0x6C160DEED2F54C98, 0x8920AD648FC30A3F]


def test_seed_zero_stream():
    scalar, block = Xoshiro256StarStar(0), Xoshiro256StarStar(0)
    assert [scalar.next_u64() for _ in range(8)] == SEED0
    complex_normal_matrix(block, 1, 2)  # two words per entry
    assert [block.next_u64() for _ in range(4)] == SEED0[4:]


# Entries (two words each) in a draw of whole lanes; the smallest that takes
# lanes is LANES[0], and at LANES[1] the scalar tail goes from a lane less one
# entry to none.
LANES = [n * rng._LANE // 2 for n in (rng._MIN_LANES, rng._MIN_LANES + 1)]


# 1x1023, 1x1024 and 1x1025 straddle the edge of complex_normal_matrix's blocks,
# and 1 x (n +- 1) the lane boundaries.
@pytest.mark.parametrize("shape", [(0, 3), (1, 1), (3, 4), (1, 1023), (1, 1024), (1, 1025),
                                   (192, 192),
                                   *[(1, n + d) for n in LANES for d in (-1, 0, 1)]])
@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, 2**64 - 1])
def test_matrix_equals_scalar_draws(seed, shape):
    block, scalar = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
    m = complex_normal_matrix(block, *shape)
    expected = scalar_matrix(scalar, *shape)
    assert m.shape == shape and m.dtype == np.complex128
    assert m.tobytes() == expected.tobytes()
    assert block._s == scalar._s


def _packed(s):
    return s[0] | s[1] << 64 | s[2] << 128 | s[3] << 192


@pytest.mark.parametrize("seed", range(8))
def test_jump_table_equals_lane_length_steps(seed):
    g = Xoshiro256StarStar(seed)
    jumped = rng._jump(rng._jump_table(), _packed(g._s))
    for _ in range(rng._LANE):
        g.next_u64()
    assert jumped == _packed(g._s)


def test_state_after_large_draw_is_pinned():
    # Integers, so exact on every platform; catches the scalar and lane paths drifting together.
    g = Xoshiro256StarStar(0)
    complex_normal_matrix(g, 192, 192)
    assert g._s == [0xD76BF82317CA990F, 0x1FDDAC011A6E4048, 0x9B094A532E14861F, 0xF1AF2EF0D1E0ADBD]
