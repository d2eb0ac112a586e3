import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gradlite.rng import _GOLDEN, SplitMix64, derive_seed


def test_stream_is_deterministic():
    a = SplitMix64(1234).normals(1000)
    b = SplitMix64(1234).normals(1000)
    assert np.array_equal(a, b)


def test_block_generation_matches_scalar_path():
    stream = SplitMix64(42)
    block = stream._bits(16)
    scalar = SplitMix64(42)
    singles = [scalar.next_u64() for _ in range(16)]
    assert [int(x) for x in block] == singles


def test_uniforms_in_unit_interval():
    u = SplitMix64(7).uniforms(10000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.02


def test_normals_have_standard_moments():
    z = SplitMix64(99).normals(200000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    assert np.all(np.isfinite(z))


def test_normals_odd_count():
    assert SplitMix64(5).normals(7).shape == (7,)


def test_derived_seeds_give_distinct_streams():
    s1 = derive_seed(0, 1)
    s2 = derive_seed(0, 2)
    assert s1 != s2
    a = SplitMix64(s1).normals(64)
    b = SplitMix64(s2).normals(64)
    assert not np.array_equal(a, b)
    assert derive_seed(0, 1) == s1


@pytest.mark.parametrize("rows", [1, 3, 64])
@pytest.mark.parametrize("n", [1, 2, 49, 50, 51, 512])
def test_normal_rows_equal_consecutive_normals_calls(n, rows):
    block_stream, call_stream = SplitMix64(2024), SplitMix64(2024)
    block = block_stream.normal_rows(n, rows)
    calls = np.stack([call_stream.normals(n) for _ in range(rows)])
    assert block.shape == (rows, n)
    assert np.array_equal(block.view(np.uint64), calls.view(np.uint64))
    assert block_stream._state == call_stream._state


# Seeds whose counter reaches 2**64 (and wraps to 0) within 4 outputs.
WRAPPING_SEEDS = st.integers(0, 4).map(lambda j: (-j * _GOLDEN) % 2**64)


@pytest.mark.parametrize("n", [1, 2, 7, 50, 51])
@given(seed=st.integers(0, 2**64 - 1) | WRAPPING_SEEDS,
       start=st.integers(0, 70), rows=st.integers(1, 4))
@example(seed=(-2 * _GOLDEN) % 2**64, start=65, rows=3)
def test_rows_after_a_jump_equal_the_rows_of_one_long_draw(n, seed, start, rows):
    whole = SplitMix64(seed)
    long = whole.normal_rows(n, start + rows)
    jumped = SplitMix64(seed).skip_rows(n, start)
    assert jumped.normal_rows(n, rows).tobytes() == long[start:].tobytes()
    assert jumped._state == whole._state
