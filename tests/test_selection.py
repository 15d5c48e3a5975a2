import numpy as np
import pytest

from oscisel.errors import EmptyDatasetError, ParameterDomainError, StructuralError
from oscisel.rng import PortableRNG
from oscisel.selection import (
    LossMemory,
    POLICIES,
    select_hard_mining,
    select_random,
    subset_size,
    update_losses,
)


def scored_memory(values, epoch=0):
    values = np.asarray(values, dtype=np.float64)
    return LossMemory(
        values=values, last_updated=np.full(len(values), epoch, dtype=np.int64)
    )


def test_hard_mining_example():
    mem = scored_memory([0.1, 0.9, 0.5, 0.7])
    subset = select_hard_mining(mem, 0.5)
    assert subset.tolist() == [1, 3]


def test_hard_mining_tie_break_by_index():
    mem = scored_memory([0.4, 0.4, 0.4, 0.4])
    subset = select_hard_mining(mem, 0.5)
    assert subset.tolist() == [0, 1]


def test_hard_mining_floor_sizing():
    mem = scored_memory([0.1, 0.9, 0.5, 0.7])
    subset = select_hard_mining(mem, 0.95)
    assert subset.tolist() == [1, 2, 3]  # floor(3.8) = 3


def test_hard_mining_matches_sort_oracle():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        values = rng.random(n)
        p_t = float(rng.uniform(0.05, 1.0))
        mem = scored_memory(values)
        subset = select_hard_mining(mem, p_t)
        m = max(1, int(np.floor(p_t * n + 1e-9)))
        # stable descending sort oracle: (value desc, index asc)
        oracle = sorted(range(n), key=lambda i: (-values[i], i))[:m]
        assert subset.tolist() == sorted(oracle)


def test_cardinality_monotone_in_ratio():
    mem = scored_memory(np.random.default_rng(0).random(57))
    sizes = [len(select_hard_mining(mem, p)) for p in np.linspace(0.02, 1.0, 50)]
    assert sizes == sorted(sizes)
    assert sizes[-1] == 57


def test_unscored_excluded_until_first_scored():
    mem = LossMemory.empty(6)
    mem = update_losses(mem, [0, 1, 2], [0.1, 0.9, 0.5], epoch=0)
    # m=3 with exactly three scored entries: unscored 3..5 never outrank them
    assert select_hard_mining(mem, 0.5).tolist() == [0, 1, 2]
    # m=4 exceeds the scored count: lowest unscored index pads the subset
    assert select_hard_mining(mem, 0.7).tolist() == [0, 1, 2, 3]


def test_empty_memory_error():
    with pytest.raises(EmptyDatasetError):
        select_hard_mining(LossMemory.empty(0), 0.5)


def test_select_random_full_ratio():
    subset = select_random(4, 1.0, PortableRNG(1))
    assert subset.tolist() == [0, 1, 2, 3]


def test_select_random_cardinality():
    subset = select_random(1000, 0.05, PortableRNG(3))
    assert len(subset) == 50
    assert len(set(subset.tolist())) == 50


def test_select_random_deterministic_from_seed():
    a = select_random(200, 0.3, PortableRNG(99))
    b = select_random(200, 0.3, PortableRNG(99))
    assert np.array_equal(a, b)


def test_select_random_uniform_frequency():
    n, p_t, trials = 20, 0.3, 10_000
    counts = np.zeros(n)
    rng = PortableRNG(7)
    for _ in range(trials):
        counts[select_random(n, p_t, rng)] += 1
    freq = counts / trials
    tol = 3.0 * np.sqrt(p_t * (1 - p_t) / trials)
    assert np.all(np.abs(freq - p_t) <= tol)


def test_subset_size_domain():
    with pytest.raises(ParameterDomainError):
        subset_size(0.0, 10)
    with pytest.raises(ParameterDomainError):
        subset_size(1.5, 10)
    assert subset_size(0.001, 10) == 1  # min-1 floor


def test_update_losses_point_update():
    mem = LossMemory.empty(2)
    mem2 = update_losses(mem, [1], [0.7], epoch=3)
    assert mem2.values.tolist() == [0.0, 0.7]
    assert mem2.last_updated.tolist() == [-1, 3]
    # original untouched
    assert mem.last_updated.tolist() == [-1, -1]


def test_update_losses_empty_is_identity():
    mem = scored_memory([0.5, 0.6], epoch=2)
    mem2 = update_losses(mem, [], [], epoch=5)
    assert np.array_equal(mem2.values, mem.values)
    assert np.array_equal(mem2.last_updated, mem.last_updated)


def test_update_losses_full_refresh():
    mem = LossMemory.empty(5)
    mem2 = update_losses(mem, np.arange(5), np.ones(5), epoch=4)
    assert np.all(mem2.last_updated == 4)


def test_update_losses_structural_errors():
    mem = LossMemory.empty(3)
    with pytest.raises(StructuralError):
        update_losses(mem, [0, 1], [0.5], epoch=0)
    with pytest.raises(StructuralError):
        update_losses(mem, [3], [0.5], epoch=0)


def test_policy_registry():
    assert set(POLICIES) >= {"hard_mining", "random"}
