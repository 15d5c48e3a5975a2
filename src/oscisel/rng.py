"""Portable deterministic random streams.

Dataset generation promises bit-identical output for a given seed regardless
of platform or language, so the generator algorithm is pinned rather than
delegated to numpy: a SplitMix64-expanded seed feeds xoshiro256**, and normal
variates come from the Box-Muller transform. Every module stream is derived
from the single run seed via ``subseed(seed, label)``; the labels in use are
documented in docs/config.md.

Words are drawn in blocks by ``_u64s``. A short block runs the state
recurrence one word at a time in Python ints held in locals. A block of at
least ``_LANE_MIN`` words is cut into lanes of ``_LANE`` consecutive words:
lane k starts ``k * _LANE`` steps ahead, and all lanes run the recurrence
together, one NumPy uint64 step per word of a lane (``_advance``). The lane
starts come from the jump ``A**_LANE``: xoshiro256** is linear over GF(2), so
``_LANE`` steps are one 256x256 bit matrix A**_LANE, applied by tables of its
columns, one table per 4 bits of the state. The matrix is made by running
``_advance`` on the 256 unit states, not written down as constants, so a jump
can only ever agree with the step it skips over. The output scrambler, which
reads one state word, runs afterwards on the whole block in wrapping uint64
arithmetic. How a draw is cut into lanes never changes a word of the stream;
tests/test_rng.py pins known answers of every method, with draws long enough
to take the lanes, so it cannot drift.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator

import numpy as np

_MASK64 = (1 << 64) - 1
_TWO_PI = 2.0 * math.pi
# words per block in belows(), which bounds its temporaries
_BLOCK = 4096
# words per lane, and the shortest draw cut into lanes (see CHANGES.md for the
# timings that chose them)
_LANE = 64
_LANE_MIN = 2048


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
        lanes = n // _LANE if n >= _LANE_MIN else 0
        if lanes:
            head = self._lane_states(lanes)
        x = np.array(self._states(n - lanes * _LANE), dtype=np.uint64)
        if lanes:
            x = np.concatenate((head, x))
        # rotl(s1 * 5, 7) * 9, modulo 2**64
        x *= np.uint64(5)
        return (x << np.uint64(7) | x >> np.uint64(57)) * np.uint64(9)

    def _states(self, n: int) -> list:
        """The state word s1 that each of the next n outputs is scrambled
        from, one xoshiro256** step at a time."""
        mask = _MASK64
        s0, s1, s2, s3 = self._s
        s1s = []
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
        return s1s

    def _lane_states(self, lanes: int) -> np.ndarray:
        """_states(lanes * _LANE) as a uint64 array, drawn in lanes."""
        start = b"".join(word.to_bytes(8, "little") for word in self._s)
        starts = [start]
        for _ in range(lanes - 1):
            start = _jump(start)
            starts.append(start)
        state = np.frombuffer(b"".join(starts), dtype="<u8").reshape(lanes, 4)
        state = state.T.astype(np.uint64, order="C")
        s1s = np.empty((_LANE, lanes), dtype=np.uint64)
        _advance(state, s1s)
        # the last lane ends lanes * _LANE steps on
        self._s = state[:, -1].tolist()
        return s1s.T.ravel()

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
            # np.array would step through a range one Python int at a time
            if isinstance(block, range):
                ns = np.arange(block.start, block.stop, block.step)
            else:
                ns = np.array(block)
            if ns.min() <= 0:
                raise ValueError(f"below() needs n >= 1, got {ns.min()}")
            state = self._s
            words = self._u64s(len(block))
            # below(n) rejects only words above 2**64 - 1 - 2**64 % n, which
            # is at least 2**64 - n; a block with no word that high needs no
            # test (each word reaches it with odds of n / 2**64)
            if int(words.max()) < _MASK64 + 1 - int(ns.max()):
                yield from (words % ns.astype(np.uint64)).tolist()
            else:
                self._s = state
                yield from (self.below(n) for n in block)

    def shuffle(self, items) -> None:
        """In-place Fisher-Yates from the last index: swap i with below(i + 1).

        A 1-D integer array is swapped through a memoryview of its buffer: a
        memoryview swap costs half an array's, which boxes every element in
        a NumPy scalar, and unlike a list copy it needs no extra memory.
        """
        seq = items
        if isinstance(items, np.ndarray) and items.ndim == 1:
            if items.dtype.kind in "iu" and items.dtype.isnative:
                seq = memoryview(items)
        last = len(seq) - 1
        for i, j in zip(range(last, 0, -1), self.belows(range(last + 1, 1, -1))):
            seq[i], seq[j] = seq[j], seq[i]

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


def _advance(state: np.ndarray, s1s: np.ndarray) -> None:
    """Step every column of the (4, lanes) xoshiro256** state once per row of
    s1s, writing into each row the s1 words it steps from."""
    shifted = np.empty((2, state.shape[1]), dtype=np.uint64)
    shifts = np.array([[17], [45]], dtype=np.uint64)
    nineteen = np.uint64(19)
    # the views are made once: on a few hundred lanes a NumPy call costs
    # about its fixed overhead, and so does making a view
    s01, s23, s1, s3 = state[:2], state[2:], state[1], state[3]
    s13, s32 = state[1::2], state[3:1:-1]
    xor, copyto = np.bitwise_xor, np.copyto
    for row in s1s:
        copyto(row, s1)
        xor(s23, s01, out=s23)  # s2 ^= s0, s3 ^= s1
        np.left_shift(s13, shifts, out=shifted)  # s1 << 17, s3 << 45
        xor(s01, s32, out=s01)  # s0 ^= s3, s1 ^= s2
        np.right_shift(s3, nineteen, out=s3)
        # s2 ^= s1 << 17, and s3 = rotl(s3, 45): its two halves share no bit
        xor(s23, shifted, out=s23)


# bytes.translate tables splitting a byte into its low and its high nibble
_LOW_NIBBLE = bytes(b & 15 for b in range(256))
_HIGH_NIBBLE = bytes(b >> 4 for b in range(256))


def _jump(state: bytes) -> bytes:
    """The 32-byte little-endian state (s0 first) _LANE steps on: the XOR of
    one entry of each of the 64 tables of A**_LANE, picked by a nibble."""
    nibbles = state.translate(_LOW_NIBBLE) + state.translate(_HIGH_NIBBLE)
    entries = map(operator.getitem, _jump_tables(), nibbles)
    return functools.reduce(operator.xor, entries).to_bytes(32, "little")


@functools.cache
def _jump_tables() -> list:
    """A**_LANE as 64 tables of 16 entries: table i < 32 maps the low nibble
    of state byte i, table 32 + i its high nibble, to its image under the jump.

    A**_LANE is read off by stepping the 256 unit states _LANE times.
    """
    unit = np.zeros((4, 256), dtype=np.uint64)
    bit = np.arange(256)
    unit[bit // 64, bit] = np.uint64(1) << (bit % 64).astype(np.uint64)
    _advance(unit, np.empty((_LANE, 256), dtype=np.uint64))
    raw = unit.T.astype("<u8").tobytes()
    columns = [int.from_bytes(raw[32 * i : 32 * i + 32], "little") for i in range(256)]
    tables = []
    for low in [8 * i for i in range(32)] + [8 * i + 4 for i in range(32)]:
        table = [0] * 16
        for v in range(1, 16):
            # v with its lowest set bit cleared, plus that bit's column
            lowest = (v & -v).bit_length() - 1
            table[v] = table[v & (v - 1)] ^ columns[low + lowest]
        tables.append(table)
    return tables


def _unit(words: np.ndarray) -> np.ndarray:
    """The unit draw of each word: its top 53 bits times 2**-53, exact in
    float64, so in [0, 1)."""
    return (words >> np.uint64(11)) * 2.0**-53
