"""Portable deterministic random streams.

Dataset generation promises bit-identical output for a given seed regardless
of platform or language, so the generator algorithm is pinned rather than
delegated to numpy: a SplitMix64-expanded seed feeds xoshiro256**, and normal
variates come from the Box-Muller transform. Every module stream is derived
from the single run seed via ``subseed(seed, label)``; the labels in use are
documented in docs/config.md.

Words are drawn in blocks by ``_u64s``, the one place the xoshiro256** step
is written: the state recurrence runs in Python ints held in locals, and the
output scrambler, which reads one state word, runs afterwards on the whole
block in wrapping uint64 arithmetic. tests/test_rng.py pins known answers of
every method, so the stream cannot drift.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

_MASK64 = (1 << 64) - 1
_TWO_PI = 2.0 * math.pi
# words per block in belows(), which bounds its temporaries
_BLOCK = 4096


def _splitmix64_next(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def subseed(seed: int, label: str) -> int:
    """Derive a 64-bit stream seed from (run seed, stream label)."""
    digest = hashlib.sha256(f"{seed}|{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class PortableRNG:
    """xoshiro256** stream seeded through SplitMix64."""

    def __init__(self, seed: int):
        state = seed & _MASK64
        s = []
        for _ in range(4):
            state, word = _splitmix64_next(state)
            s.append(word)
        self._s = s
        self._spare_normal: float | None = None

    def _u64s(self, n: int) -> np.ndarray:
        """The next n words of the stream, as a uint64 array."""
        mask = _MASK64
        s0, s1, s2, s3 = self._s
        s1s = []  # the state word each output is scrambled from
        append = s1s.append
        for _ in range(n):
            append(s1)
            t = s1 << 17 & mask
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = s3 << 45 & mask | s3 >> 19  # rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        # rotl(s1 * 5, 7) * 9, modulo 2**64
        x = np.array(s1s, dtype=np.uint64) * np.uint64(5)
        return (x << np.uint64(7) | x >> np.uint64(57)) * np.uint64(9)

    def next_u64(self) -> int:
        return int(self._u64s(1)[0])

    def uniforms(self, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """n uniform draws low + (high - low) * u, u a unit draw, on the block."""
        return low + (high - low) * _unit(self._u64s(n))

    def normals(self, n: int) -> np.ndarray:
        """n standard normals, Box-Muller on pairs (u1, u2) of unit draws.

        A pair gives r*cos(2*pi*u2), then r*sin(2*pi*u2) with
        r = sqrt(-2*log(1 - u1)). When n leaves a sine unused it becomes the
        spare, which the next normals() call returns first.
        """
        out = []
        if n > 0 and self._spare_normal is not None:
            out.append(self._spare_normal)
            self._spare_normal = None
        u = _unit(self._u64s(2 * ((n - len(out) + 1) // 2)))
        # log, cos and sin stay libm's, per element: numpy's may differ in
        # the last bit across builds
        sqrt, log, cos, sin = math.sqrt, math.log, math.cos, math.sin
        append = out.append
        for u1, angle in zip((1.0 - u[0::2]).tolist(), (_TWO_PI * u[1::2]).tolist()):
            r = sqrt(-2.0 * log(u1))  # u1 in (0, 1] keeps the log finite
            append(r * cos(angle))
            append(r * sin(angle))
        if len(out) > n:
            self._spare_normal = out.pop()
        return np.array(out, dtype=np.float64)

    def below(self, n: int) -> int:
        """Unbiased integer in [0, n) by rejection."""
        if n <= 0:
            raise ValueError(f"below() needs n >= 1, got {n}")
        limit = _MASK64 - (_MASK64 + 1) % n
        while True:
            x = self.next_u64()
            if x <= limit:
                return x % n

    def belows(self, bounds):
        """Yield below(n) for each n in the sequence bounds, in order.

        The same stream as below() in a loop, with the words drawn in blocks,
        so the stream is only in step once the iterator is exhausted.
        """
        for start in range(0, len(bounds), _BLOCK):
            block = bounds[start : start + _BLOCK]
            if min(block) <= 0:
                raise ValueError(f"below() needs n >= 1, got {min(block)}")
            state = self._s
            words = self._u64s(len(block))
            # below(n) rejects only words above 2**64 - 1 - 2**64 % n, which
            # is at least 2**64 - n; a block with no word that high needs no
            # test (each word reaches it with odds of n / 2**64)
            if int(words.max()) < _MASK64 + 1 - max(block):
                yield from (words % np.array(block, dtype=np.uint64)).tolist()
            else:
                self._s = state
                yield from (self.below(n) for n in block)

    def shuffle(self, items) -> None:
        """In-place Fisher-Yates from the last index: swap i with below(i + 1)."""
        last = len(items) - 1
        for i, j in zip(range(last, 0, -1), self.belows(range(last + 1, 1, -1))):
            items[i], items[j] = items[j], items[i]

    def sample_without_replacement(self, n: int, m: int) -> np.ndarray:
        """m distinct indices from [0, n), via partial Fisher-Yates.

        Step i swaps entries i and i + below(n - i) of the pool 0..n-1 and
        keeps entry i. The pool is virtual: an entry is its own index unless
        the dict holds it, and the dict drops entry i once it is kept.
        """
        if not 0 <= m <= n:
            raise ValueError(f"cannot draw {m} from {n}")
        displaced: dict[int, int] = {}
        out = []
        for i, j in enumerate(self.belows(range(n, n - m, -1))):
            j += i
            out.append(displaced.get(j, j))
            displaced[j] = displaced.pop(i, i)
        return np.array(out, dtype=np.int64)


def _unit(words: np.ndarray) -> np.ndarray:
    """The unit draw of each word: its top 53 bits times 2**-53, exact in
    float64, so in [0, 1)."""
    return (words >> np.uint64(11)) * 2.0**-53
