import hashlib

import numpy as np
import pytest

import oscisel.rng
from oscisel.rng import PortableRNG, subseed


def test_streams_deterministic():
    a = PortableRNG(42)
    b = PortableRNG(42)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    assert PortableRNG(42).next_u64() != PortableRNG(43).next_u64()


def test_normals_moments():
    rng = PortableRNG(2)
    xs = rng.normals(20_000)
    assert abs(xs.mean()) < 0.03
    assert abs(xs.std() - 1.0) < 0.03


def test_below_bounds_and_coverage():
    rng = PortableRNG(3)
    draws = [rng.below(7) for _ in range(2000)]
    assert set(draws) == set(range(7))


def test_sample_without_replacement_distinct():
    rng = PortableRNG(5)
    for _ in range(100):
        idx = rng.sample_without_replacement(30, 12)
        assert len(set(idx.tolist())) == 12
        assert idx.min() >= 0 and idx.max() < 30


def test_subseed_label_separation():
    assert subseed(0, "a") != subseed(0, "b")
    assert subseed(0, "a") != subseed(1, "a")
    assert subseed(7, "data.train") == subseed(7, "data.train")


# Known answers of the portable stream. They pin the algorithm, not just its
# determinism: any rewrite of PortableRNG must reproduce these values exactly.
# The trailing next_u64 after each call pins the state it leaves behind.

def test_known_answer_next_u64():
    expected = {
        0: [
            0x99EC5F36CB75F2B4, 0xBF6E1F784956452A, 0x1A5F849D4933E6E0,
            0x6AA594F1262D2D2C, 0xBBA5AD4A1F842E59, 0xFFEF8375D9EBCACA,
            0x6C160DEED2F54C98, 0x8920AD648FC30A3F,
        ],
        2**64 - 1: [
            0x8F5520D52A7EAD08, 0xC476A018CAA1802D, 0x81DE31C0D260469E,
            0xBF658D7E065F3C2F, 0x913593FDA1BCA32A, 0xBB535E93941BA525,
            0x5ECDA415C3C6DFDE, 0xC487398FC9DE9AE2,
        ],
    }
    for seed, words in expected.items():
        rng = PortableRNG(seed)
        assert [rng.next_u64() for _ in range(8)] == words


def test_known_answer_normals_carry_the_spare_across_calls():
    rng = PortableRNG(11)
    first, second = rng.normals(3), rng.normals(4)
    assert [x.hex() for x in first] == [
        "0x1.36a5fbfbaa876p-1", "0x1.7b4e71031f45ap-2", "-0x1.685f17af50c6ep-1",
    ]
    # the sin spare of the second pair comes first
    assert [x.hex() for x in second] == [
        "0x1.09c480b62dabfp-2", "-0x1.2d63f2872041ep-3",
        "0x1.952b0242cea34p-2", "0x1.32bbf924a2becp+0",
    ]
    assert rng.next_u64() == 0xA1CAE0D779FD75D9
    seven = PortableRNG(11).normals(7)
    assert np.concatenate([first, second]).tobytes() == seven.tobytes()


# normals per block of normals(): _BLOCK pairs
NORMALS_BLOCK = 2 * oscisel.rng._BLOCK


@pytest.mark.parametrize(
    "a, b",
    # splits inside one block, on and around lane and half-block counts
    [(1, 8192), (8191, 8194), (8193, 8191), (8192, 16385), (16381, 16389)]
    # splits that cross one and two blocks
    + [(1, NORMALS_BLOCK), (NORMALS_BLOCK - 1, NORMALS_BLOCK + 2),
     (NORMALS_BLOCK + 1, NORMALS_BLOCK - 1), (NORMALS_BLOCK, 2 * NORMALS_BLOCK + 1),
     (2 * NORMALS_BLOCK - 3, 2 * NORMALS_BLOCK + 5)],
)
def test_normals_split_anywhere_equal_one_draw(a, b):
    # an odd a leaves a spare sine that the second call returns first,
    # whether or not it crosses a block
    split, whole = PortableRNG(25), PortableRNG(25)
    first, second = split.normals(a), split.normals(b)
    assert (np.concatenate([first, second]).tobytes()
            == whole.normals(a + b).tobytes())
    assert split.next_u64() == whole.next_u64()


def test_normals_draw_at_most_one_block_of_words_at_a_time(monkeypatch):
    requests = []
    draw = PortableRNG._u64s

    def recording(self, n):
        requests.append(n)
        return draw(self, n)

    monkeypatch.setattr(PortableRNG, "_u64s", recording)
    n = 5 * NORMALS_BLOCK + 3
    assert PortableRNG(26).normals(n).shape == (n,)
    assert max(requests) <= NORMALS_BLOCK
    assert sum(requests) == n + 1  # whole pairs: the last sine is the spare
    # blobs-verify's training draw: blocks of even size keep every one long
    # enough for lanes, where one full block would leave a 1,408-word tail
    requests.clear()
    PortableRNG(26).normals(9600)
    assert max(requests) <= NORMALS_BLOCK
    assert min(requests) >= oscisel.rng._LANE_MIN
    assert sum(requests) == 9600


def test_known_answer_shuffle_array_and_list():
    rng = PortableRNG(12)
    arr = np.arange(20)
    rng.shuffle(arr)
    assert arr.tolist() == [
        18, 13, 3, 8, 2, 4, 1, 7, 15, 9, 16, 11, 12, 10, 14, 0, 6, 17, 19, 5,
    ]
    items = list("abcdefghij")
    rng.shuffle(items)
    assert items == ["h", "i", "a", "c", "b", "g", "j", "e", "d", "f"]
    assert rng.next_u64() == 0xC46F33E0A9B0A042


@pytest.mark.parametrize(
    "items",
    [np.arange(40, dtype=np.int32), np.arange(40, dtype=np.uint8),
     np.arange(80)[::2], np.arange(40, dtype=">i8"), np.arange(40.0),
     np.array([str(i) for i in range(40)]), np.arange(80).reshape(40, 2)],
    ids=["int32", "uint8", "strided", "big-endian", "float64", "str", "2-D"],
)
def test_shuffle_permutes_every_array_like_a_list(items):
    expected = items.tolist()
    a, b = PortableRNG(13), PortableRNG(13)
    a.shuffle(expected)
    b.shuffle(items)
    assert items.tolist() == expected
    assert a.next_u64() == b.next_u64()


def test_known_answer_sample_without_replacement():
    rng = PortableRNG(14)
    assert rng.sample_without_replacement(100_000, 8).tolist() == [
        95285, 1621, 5432, 40790, 53528, 53843, 31606, 95621,
    ]
    assert rng.sample_without_replacement(30, 30).tolist() == [
        8, 12, 10, 4, 28, 20, 1, 24, 15, 14, 11, 6, 25, 13, 19,
        9, 26, 7, 21, 17, 16, 18, 23, 2, 29, 0, 3, 5, 27, 22,
    ]
    empty = rng.sample_without_replacement(1, 0)
    assert empty.tolist() == [] and empty.dtype == np.int64
    assert rng.next_u64() == 0x5F7FA76CB5A82250


def test_sample_without_replacement_takes_n_up_to_2_to_the_63():
    # every index of an int64 result is below 2**63
    assert PortableRNG(0).sample_without_replacement(2**63, 2).tolist() == [
        1867972634398290612, 4570625273314559276,
    ]
    for n in (2**63 + 1, 2**64 - 1, 2**64):
        with pytest.raises(ValueError, match=f"^cannot draw 2 from {n}$"):
            PortableRNG(0).sample_without_replacement(n, 2)


def test_known_answer_below_rejects_above_the_limit():
    # n = 2**63 + 1 rejects about half of all words
    rng = PortableRNG(15)
    assert [rng.below(2**63 + 1) for _ in range(6)] == [
        7478366605678704447, 5594926231409282421, 2193098277519328880,
        3746136863614322006, 8926621503256177554, 6339224542321258041,
    ]
    assert rng.next_u64() == 0xEE14696C480D4CD4


def test_belows_is_below_in_a_loop():
    # two whole blocks and a tail, in both calls
    size = 2 * oscisel.rng._BLOCK + 100
    bounds = [7, 1, 2**40 + 3, 5000] * (size // 4)
    a, b = PortableRNG(16), PortableRNG(16)
    assert list(a.belows(bounds)) == [b.below(n) for n in bounds]
    assert list(a.belows(range(size, 1, -1))) == [b.below(n) for n in range(size, 1, -1)]
    assert a.next_u64() == b.next_u64()
    with pytest.raises(ValueError):
        list(a.belows([3, 0]))


@pytest.mark.parametrize(
    "bounds",
    # NumPy holds the first as float64, which rounds 2**60 + 1 to 2**60; the
    # second fits no NumPy integer type at all
    [[2**60 + 1, 2**63 + 1], [2**64, 3]],
)
def test_belows_takes_bounds_past_int64_like_below(bounds):
    for seed in range(32):
        a, b = PortableRNG(seed), PortableRNG(seed)
        assert list(a.belows(bounds)) == [b.below(n) for n in bounds]
        assert a.next_u64() == b.next_u64()


@pytest.mark.parametrize("n", [0, -3, 2**64 + 1, 2**70])
def test_below_and_belows_reject_a_bound_outside_1_to_2_to_the_64(n):
    rng = PortableRNG(19)
    with pytest.raises(ValueError, match=f"got {n}$"):
        rng.below(n)
    with pytest.raises(ValueError, match=f"got {n}$"):
        list(rng.belows([n]))
    with pytest.raises(ValueError, match=f"got {n}$"):
        list(rng.belows([5, n, 2**63 + 1]))


@pytest.mark.parametrize("method", ["uniforms", "normals"])
def test_a_negative_count_is_a_value_error(method):
    with pytest.raises(ValueError, match="-5"):
        getattr(PortableRNG(20), method)(-5)
    assert getattr(PortableRNG(20), method)(0).shape == (0,)


def _words(state: bytes) -> list:
    return [int.from_bytes(state[8 * i : 8 * i + 8], "little") for i in range(4)]


def test_jump_is_lane_steps_from_every_one_byte_state():
    # every entry of the jump tables is the jump of one one-byte state
    rng = PortableRNG(0)
    for i in range(32):
        for b in range(256):
            state = bytes(i) + bytes([b]) + bytes(31 - i)
            rng._s = _words(state)
            rng._states(oscisel.rng._LANE)
            assert _words(oscisel.rng._jump(state)) == rng._s


def _rng_whose_next_word_is(word: int, seed: int) -> PortableRNG:
    # invert the xoshiro256** output rotl(s1 * 5, 7) * 9 for the state word s1
    mask = 2**64 - 1
    x = word * pow(9, -1, 2**64) & mask
    x = (x >> 7 | x << 57) & mask
    rng = PortableRNG(seed)
    rng._s[1] = x * pow(5, -1, 2**64) & mask
    return rng


@pytest.mark.parametrize("size", [3, 5000])
def test_shuffle_and_sampling_reject_like_below(size):
    # 2**64 - 1 is rejected by below(n) for every n that is not a power of 2
    top = 2**64 - 1
    assert _rng_whose_next_word_is(top, 17).next_u64() == top
    ref = _rng_whose_next_word_is(top, 17)
    expected = list(range(size))
    for i in range(size - 1, 0, -1):
        j = ref.below(i + 1)
        expected[i], expected[j] = expected[j], expected[i]
    rng = _rng_whose_next_word_is(top, 17)
    items = np.arange(size)
    rng.shuffle(items)
    assert items.tolist() == expected
    assert rng.next_u64() == ref.next_u64()

    ref = _rng_whose_next_word_is(top, 18)
    pool = list(range(size))
    for i in range(size):
        j = i + ref.below(size - i)
        pool[i], pool[j] = pool[j], pool[i]
    rng = _rng_whose_next_word_is(top, 18)
    assert rng.sample_without_replacement(size, size).tolist() == pool
    assert rng.next_u64() == ref.next_u64()


# Large-draw known answers, recorded from the word-at-a-time recurrence: each
# draw is long enough to be split into jump-ahead lanes, so these pin the lane
# starts, the scalar tail and the state handed back afterwards. Each output is
# pinned by the SHA-256 of its bytes, and the state it leaves by next_u64().

def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def test_known_answer_large_uniforms():
    rng = PortableRNG(21)
    u = rng.uniforms(100_003)
    assert u.dtype == np.float64 and u.shape == (100_003,)
    assert _sha256(u) == (
        "7a2e4bd4515930780cfa5efce9a8e0b659c9e1f289364772dfbd213d11f8d2bc"
    )
    assert rng.next_u64() == 0x5D6819704FECB0E7


def test_known_answer_large_normals_keep_the_spare():
    rng = PortableRNG(22)
    x = rng.normals(50_001)  # odd: the sine of the last pair is the spare
    assert x.dtype == np.float64 and x.shape == (50_001,)
    assert _sha256(x) == (
        "674f68f90a95fc75b79d8280cba8fa4db03ecae6ef0540ea58dbb53c4a441797"
    )
    assert rng.normals(1)[0].hex() == "0x1.84947e9c755dap+0"
    assert rng.next_u64() == 0x1BD6FA22444456AF


def test_known_answer_large_shuffle():
    rng = PortableRNG(23)
    items = np.arange(110_000)
    rng.shuffle(items)
    assert _sha256(items) == (
        "6b46fbf94011f1ac3a2cef1c7dd967ccd65f7a55a9885fde363db2c6e503228b"
    )
    assert rng.next_u64() == 0x975C8E9247365AB7


def test_known_answer_large_sample_without_replacement():
    rng = PortableRNG(24)
    idx = rng.sample_without_replacement(100_000, 30_000)
    assert idx.dtype == np.int64
    assert _sha256(idx) == (
        "81eb41cdaeec498cafecf38ebb95b4ac166c23d1065cac8e651b98cb080a7cef"
    )
    assert rng.next_u64() == 0x91C20BAF618D1D8D


@pytest.mark.parametrize(
    "bounds",
    [np.array([2**63 + 5] * 4, dtype=np.uint64), np.array([7, 3, 1000, 5], dtype=np.int64)],
    ids=["uint64-near-2**63", "int64"],
)
def test_belows_takes_an_array_of_bounds_like_a_list(bounds):
    # the first word, 2**64 - 1, is rejected by each of these bounds, so the
    # block falls back on below() with each NumPy integer bound
    top = 2**64 - 1
    a, b = _rng_whose_next_word_is(top, 21), _rng_whose_next_word_is(top, 21)
    assert list(a.belows(bounds)) == list(b.belows(bounds.tolist()))
    assert a.next_u64() == b.next_u64()
    assert list(PortableRNG(0).belows(bounds)) == list(PortableRNG(0).belows(bounds.tolist()))


def test_below_takes_a_numpy_integer_and_rejects_a_float():
    for n in (np.int64(5), np.uint64(2**63 + 5)):
        draw = PortableRNG(22).below(n)
        assert type(draw) is int and draw == PortableRNG(22).below(int(n))
    with pytest.raises(TypeError):
        PortableRNG(22).below(5.0)
