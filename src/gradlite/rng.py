"""Seedable random stream with a fixed, portable algorithm.

All randomness in the package flows through :class:`SplitMix64` so that
datasets, noise draws, and random bases are reproducible bit-for-bit
from a 64-bit seed, independent of numpy's own generators.  The stream is
the splitmix64 mixer over a counter that advances by the 64-bit golden
ratio, so output i is a pure function of (seed, i); normals come from
Box-Muller applied to consecutive outputs.  ``normal_rows`` draws a block
of equal-length normal vectors in one call, bit for bit what as many
``normals`` calls would give, and ``skip_rows`` jumps the counter past
rows without drawing them, so row t of a seed is read by its index.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix_int(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, salt: int) -> int:
    """Deterministically split a seed into an independent child seed.

    Used to give datasets, noise, and bases separate streams that never
    interleave, so consuming one stream cannot shift another.
    """
    return _mix_int((seed & _MASK) + _mix_int(salt + _GOLDEN))


def _mix_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


class SplitMix64:
    """Counter-based 64-bit stream; cheap to fork and fully deterministic."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix_int(self._state)

    def _bits(self, n: int) -> np.ndarray:
        # The i-th output only depends on state + i*GOLDEN, so a block of
        # outputs vectorizes; uint64 arithmetic wraps mod 2**64 as required.
        idx = np.arange(1, n + 1, dtype=np.uint64)
        base = np.uint64(self._state)
        with np.errstate(over="ignore"):
            out = _mix_array(base + idx * np.uint64(_GOLDEN))
        self._state = (self._state + n * _GOLDEN) & _MASK
        return out

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in [0, 1): the top 53 bits of each output."""
        return (self._bits(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller on consecutive output pairs."""
        pairs = (n + 1) // 2
        bits = self._bits(2 * pairs)
        # u1 in (0, 1] so the log is finite; u2 in [0, 1).
        u1 = ((bits[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        u2 = (bits[1::2] >> np.uint64(11)).astype(np.float64) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def normal_rows(self, n: int, rows: int) -> np.ndarray:
        """rows x n normals; row i is the i-th of `rows` calls of normals(n).

        Each normals(n) call draws 2*ceil(n/2) values and drops the last
        one for odd n, so one draw of rows * 2*ceil(n/2) values, cut into
        rows, holds the same bits and leaves the stream at the same state.
        """
        width = 2 * ((n + 1) // 2)
        return self.normals(rows * width).reshape(rows, width)[:, :n]

    def skip_rows(self, n: int, rows: int) -> SplitMix64:
        """Jump past `rows` rows of normals(n), 2*ceil(n/2) outputs each."""
        self._state = (self._state + rows * 2 * ((n + 1) // 2) * _GOLDEN) & _MASK
        return self

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        return self.normals(rows * cols).reshape(rows, cols)
