"""Sample selection policies over a per-sample loss memory.

A policy maps (memory, ratio, rng) to max(1, floor(p_t * N)) sorted indices
— the floor keeps the budget ledger safe against rounding, the min-1 avoids
empty epochs. Hard mining picks the largest stored losses, and draws
uniformly while none is stored; the random policy draws uniform subsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDatasetError, ParameterDomainError, StructuralError
from .rng import PortableRNG


@dataclass(frozen=True)
class LossMemory:
    """Last known per-sample loss; last_updated -1 means never scored."""

    values: np.ndarray  # float64, shape (N,)
    last_updated: np.ndarray  # int64, shape (N,)

    def __post_init__(self):
        if self.values.shape != self.last_updated.shape:
            raise StructuralError(
                f"values/last_updated length mismatch: "
                f"{self.values.shape} vs {self.last_updated.shape}"
            )

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @classmethod
    def empty(cls, n: int) -> "LossMemory":
        return cls(
            values=np.zeros(n, dtype=np.float64),
            last_updated=np.full(n, -1, dtype=np.int64),
        )


def subset_size(p_t: float, n: int) -> int:
    """max(1, floor(p_t * N)); the tolerance absorbs decimal-ratio roundoff."""
    if not 0.0 < p_t <= 1.0:
        raise ParameterDomainError(f"selection ratio must be in (0, 1], got {p_t}")
    return max(1, math.floor(p_t * n + 1e-9))


def select_hard_mining(mem: LossMemory, p_t: float) -> np.ndarray:
    """Top-m stored losses as sorted int64 indices, ties broken by smaller index.

    Entries never scored are excluded from the ranking; if fewer than m
    samples have been scored the remainder is filled with unscored indices in
    ascending order (deterministic fallback).
    """
    if mem.n == 0:
        raise EmptyDatasetError("cannot select from an empty loss memory")
    m = subset_size(p_t, mem.n)
    scored = np.flatnonzero(mem.last_updated >= 0)
    # stable descending sort on value, ascending on index
    order = scored[np.lexsort((scored, -mem.values[scored]))]
    chosen = order[:m]
    if chosen.shape[0] < m:
        unscored = np.flatnonzero(mem.last_updated < 0)
        chosen = np.concatenate([chosen, unscored[: m - chosen.shape[0]]])
    return np.sort(chosen).astype(np.int64)


def select_random(n: int, p_t: float, rng: PortableRNG) -> np.ndarray:
    """Uniform subset without replacement as sorted int64 indices, from rng."""
    if n < 1:
        raise EmptyDatasetError(f"dataset size must be >= 1, got {n}")
    m = subset_size(p_t, n)
    idx = rng.sample_without_replacement(n, m)
    return np.sort(idx)


def update_losses(
    mem: LossMemory, indices, losses, epoch: int
) -> LossMemory:
    """Overwrite the given entries; everything else stays (possibly stale)."""
    indices = np.asarray(indices, dtype=np.int64)
    losses = np.asarray(losses, dtype=np.float64)
    if indices.shape != losses.shape:
        raise StructuralError(
            f"indices/losses length mismatch: {indices.shape} vs {losses.shape}"
        )
    if indices.size and (indices.min() < 0 or indices.max() >= mem.n):
        raise StructuralError(f"index out of range for memory of size {mem.n}")
    values = mem.values.copy()
    updated = mem.last_updated.copy()
    values[indices] = losses
    updated[indices] = epoch
    return LossMemory(values=values, last_updated=updated)


# config policy name -> callable(mem, p_t, rng) -> sorted index array, called
# every epoch; hard mining has no loss to rank until a row is scored
POLICIES = {
    "hard_mining": lambda mem, p_t, rng: (
        select_hard_mining(mem, p_t) if (mem.last_updated >= 0).any()
        else select_random(mem.n, p_t, rng)),
    "random": lambda mem, p_t, rng: select_random(mem.n, p_t, rng),
}
