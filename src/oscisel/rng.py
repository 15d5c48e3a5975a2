"""Portable deterministic random streams.

Dataset generation promises reproducible output for a given seed, so the
generator algorithm is pinned rather than delegated to numpy: a
SplitMix64-expanded seed feeds xoshiro256**, and normal variates come from
the Box-Muller transform. The words, ``uniforms``, ``below``/``belows``,
``shuffle`` and sampling use only integer and correctly rounded arithmetic,
so they are the same on every platform. ``normals`` calls libm's ``log``,
``cos`` and ``sin``, and glibc picks an FMA or a non-FMA variant of these by
CPU, so normals (and every dataset built from them) are reproducible within
one numeric environment. Every module stream is derived from the single run
seed via ``subseed(seed, label)``; the labels in use are documented in
docs/config.md.

Words are drawn in blocks by ``_u64s``. A short block runs the state
recurrence one word at a time in Python ints held in locals. A block of at
least ``_LANE_MIN`` words is cut into lanes of ``_LANE`` consecutive words:
lane k starts ``k * _LANE`` steps ahead, and all lanes run the recurrence
together, one NumPy uint64 step per word of a lane (``_advance``). The lane
starts come from the jump ``A**_LANE``: xoshiro256** is linear over GF(2), so
``_LANE`` steps are one 256x256 bit matrix A**_LANE, applied by tables of its
images, one table of 256 entries per byte of the state, so a jump is 32
big-int XORs. Each byte's entry is the XOR of the images of its two nibbles,
and those are made by running ``_advance`` on the 1,024 states that each
hold one nibble, not written down as constants, so a jump can only ever
agree with the step it skips over. The output scrambler, which reads one
state word, runs afterwards on the whole block in wrapping uint64
arithmetic. ``normals`` and ``belows`` draw in blocks of at most ``_BLOCK``
pairs or words, which bounds their temporaries; ``normals`` cuts a draw into
blocks of even size, so that no block of a long draw is too short for lanes.
How a draw is cut into blocks or lanes never changes a word of the stream;
tests/test_rng.py pins known answers of every method, with draws long
enough to take the lanes and to cross a block, so it cannot drift.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import operator

import numpy as np

_MASK64 = (1 << 64) - 1
_TWO_PI = 2.0 * math.pi
# words per block in belows(), the most pairs per block in normals(): a block
# bounds a draw's temporaries (a normals block holds a few arrays of _BLOCK
# floats), and a longer one takes fewer _advance rows per word; how a draw is
# cut never changes the stream
_BLOCK = 16384
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
        x = np.empty(n, dtype=np.uint64)
        if lanes:
            x[: lanes * _LANE].reshape(lanes, _LANE)[...] = self._lane_states(lanes).T
        x[lanes * _LANE :] = self._states(n - lanes * _LANE)
        # rotl(s1 * 5, 7) * 9, modulo 2**64, in place but for one temporary
        x *= np.uint64(5)
        high = x >> np.uint64(57)
        x <<= np.uint64(7)
        x |= high
        x *= np.uint64(9)
        return x

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
        """_states(lanes * _LANE) as a (_LANE, lanes) uint64 array, drawn in
        lanes: column k holds lane k."""
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
        return s1s

    def next_u64(self) -> int:
        return int(self._u64s(1)[0])

    def uniforms(self, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """n uniform draws low + (high - low) * u, u a unit draw, on the block."""
        _check_count(n)
        return low + (high - low) * _unit(self._u64s(n))

    def normals(self, n: int) -> np.ndarray:
        """n standard normals, Box-Muller on pairs (u1, u2) of unit draws.

        A pair gives r*cos(2*pi*u2), then r*sin(2*pi*u2) with
        r = sqrt(-2*log(1 - u1)). When n leaves a sine unused it becomes the
        spare, which the next normals() call returns first.
        """
        _check_count(n)
        out = np.empty(n)
        start = 0
        if n > 0 and self._spare_normal is not None:
            out[0] = self._spare_normal
            self._spare_normal = None
            start = 1
        # log, cos and sin stay libm's, called per element: numpy's may differ
        # in the last bit across builds; sqrt and * are correctly rounded in
        # both, so taking them on a whole block gives the per-pair bits
        log, cos, sin = math.log, math.cos, math.sin
        while start < n:
            pairs = (n - start + 1) // 2
            blocks = -(-pairs // _BLOCK)  # the pairs left, cut into even blocks
            k = -(-pairs // blocks)
            u = _unit(self._u64s(2 * k))
            # 1 - u1 in (0, 1] keeps the log finite
            r = np.sqrt(-2.0 * np.fromiter(map(log, (1.0 - u[0::2]).tolist()), float, k))
            angle = (_TWO_PI * u[1::2]).tolist()
            stop = start + 2 * k
            np.multiply(r, np.fromiter(map(cos, angle), float, k), out=out[start:stop:2])
            sines = r * np.fromiter(map(sin, angle), float, k)
            if stop > n:
                self._spare_normal = float(sines[-1])
                sines = sines[:-1]
            out[start + 1 : stop : 2] = sines
            start = stop
        return out

    def below(self, n: int) -> int:
        """Unbiased integer in [0, n) by rejection; n is any integer type."""
        n = operator.index(n)
        _check_bound(n)
        limit = _MASK64 - (_MASK64 + 1) % n
        while True:
            x = self.next_u64()
            if x <= limit:
                return x % n

    def belows(self, bounds):
        """An iterator of below(n) for each n in the sequence bounds, in order.

        The same stream as below() in a loop, with the words drawn in blocks
        of _BLOCK, each block's draws made as one list when the iterator
        reaches it, so the stream is only in step once the iterator is
        exhausted.
        """
        blocks = (bounds[i : i + _BLOCK] for i in range(0, len(bounds), _BLOCK))
        return itertools.chain.from_iterable(map(self._belows_block, blocks))

    def _belows_block(self, block) -> list:
        # np.array would step through a range one Python int at a time
        if isinstance(block, range):
            ns = np.arange(block.start, block.stop, block.step)
        else:
            ns = np.array(block)
        if ns.dtype.kind not in "iu":
            # a bound of 2**64 or more, or one past int64 beside others that
            # NumPy then rounds to float64: below() in a loop
            for n in block:
                _check_bound(n)
            return [self.below(n) for n in block]
        _check_bound(ns.min())
        state = self._s
        words = self._u64s(len(block))
        # below(n) rejects only words above 2**64 - 1 - 2**64 % n, which is
        # at least 2**64 - n; a block with no word that high needs no test
        # (each word reaches it with odds of n / 2**64)
        if int(words.max()) < _MASK64 + 1 - int(ns.max()):
            return (words % ns.astype(np.uint64)).tolist()
        self._s = state
        return [self.below(n) for n in block]

    def shuffle(self, items) -> None:
        """In-place Fisher-Yates from the last index: swap i with below(i + 1).

        A 1-D integer array is swapped through a memoryview of its buffer: a
        memoryview swap costs half an array's, which boxes every element in
        a NumPy scalar, and unlike a list copy it needs no extra memory. An
        array of more dimensions is permuted along its first axis by the
        shuffle of its row indices, as a list of its rows would be: swapping
        row views in place would copy one row over another.
        """
        if isinstance(items, np.ndarray) and items.ndim > 1:
            perm = np.arange(len(items))
            self.shuffle(perm)
            items[...] = items[perm]
            return
        seq = items
        if isinstance(items, np.ndarray) and items.ndim == 1:
            if items.dtype.kind in "iu" and items.dtype.isnative:
                seq = memoryview(items)
        last = len(seq) - 1
        for i, j in zip(range(last, 0, -1), self.belows(range(last + 1, 1, -1))):
            seq[i], seq[j] = seq[j], seq[i]

    def sample_without_replacement(self, n: int, m: int) -> np.ndarray:
        """m distinct indices from [0, n), via partial Fisher-Yates; n is at
        most 2**63, so that every index fits the int64 result.

        Step i swaps entries i and i + below(n - i) of the pool 0..n-1 and
        keeps entry i. The pool is virtual: an entry is its own index unless
        the dict holds it, and the dict drops entry i once it is kept.
        """
        if not 0 <= m <= n <= 2**63:
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


def _jump(state: bytes) -> bytes:
    """The 32-byte little-endian state (s0 first) _LANE steps on: the XOR of
    one entry of each of the 32 tables of A**_LANE, picked by a state byte."""
    entries = map(operator.getitem, _jump_tables(), state)
    return functools.reduce(operator.xor, entries).to_bytes(32, "little")


@functools.cache
def _jump_tables() -> list:
    """A**_LANE as 32 tables of 256 entries: table i maps byte i of the state
    to its image under the jump.

    An entry is the XOR of the images of its byte's low and high nibble, and
    each nibble's image is read off by stepping its one-nibble state _LANE
    times.
    """
    table, v = np.divmod(np.arange(1024), 16)
    states = np.zeros((1024, 32), dtype=np.uint8)
    states[np.arange(1024), table % 32] = v << 4 * (table // 32)
    state = states.view("<u8").T.astype(np.uint64, order="C")
    _advance(state, np.empty((_LANE, 1024), dtype=np.uint64))
    raw = state.T.astype("<u8").tobytes()
    images = [int.from_bytes(raw[32 * k : 32 * k + 32], "little") for k in range(1024)]
    # images[16 * i + v] holds v in the low nibble of byte i, and
    # images[512 + 16 * i + v] holds it in the high nibble
    return [
        [images[16 * i + (b & 15)] ^ images[512 + 16 * i + (b >> 4)] for b in range(256)]
        for i in range(32)
    ]


def _check_count(n: int) -> None:
    if n < 0:
        raise ValueError(f"cannot draw a negative count of values, got {n}")


def _check_bound(n: int) -> None:
    if not 1 <= n <= _MASK64 + 1:
        raise ValueError(f"below() needs 1 <= n <= 2**64, got {n}")


def _unit(words: np.ndarray) -> np.ndarray:
    """The unit draw of each word: its top 53 bits times 2**-53, exact in
    float64, so in [0, 1)."""
    return (words >> np.uint64(11)) * 2.0**-53
