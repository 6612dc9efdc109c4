"""The pinned xoshiro256** stream: scalar reference values and the block matrix path."""

import numpy as np
import pytest

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


# 1x1023, 1x1024 and 1x1025 straddle the edge of complex_normal_matrix's blocks.
@pytest.mark.parametrize("shape", [(0, 3), (1, 1), (3, 4), (1, 1023), (1, 1024), (1, 1025),
                                   (192, 192)])
@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, 2**64 - 1])
def test_matrix_equals_scalar_draws(seed, shape):
    block, scalar = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
    m = complex_normal_matrix(block, *shape)
    expected = scalar_matrix(scalar, *shape)
    assert m.shape == shape and m.dtype == np.complex128
    assert m.tobytes() == expected.tobytes()
    assert block._s == scalar._s
