"""Oscillatory selection-ratio schedule.

Given a target ratio p and a stability margin eps, the schedule alternates k
low-ratio epochs with one high-ratio recovery epoch so that the running
average ratio never exceeds p. The low phase comes first in every period,
which makes every prefix (not just whole periods) budget-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterDomainError

# guards against float roundoff when p*N or the k ratio lands on an integer
_TOL = 1e-12


@dataclass(frozen=True)
class ScheduleParams:
    """Derived schedule: ratios for both phases and the period structure."""

    target_ratio: float
    margin: float
    p_low: float
    p_high: float
    k: int  # low-phase length in epochs

    @property
    def period(self) -> int:
        return self.k + 1

    def period_average(self) -> float:
        return (self.k * self.p_low + self.p_high) / self.period


def derive_params(p: float, eps: float) -> ScheduleParams:
    """Derive oscillation parameters for target ratio p and margin eps.

    High ratio is 1 - eps. Below a 0.5 target the low ratio is eps and the
    low-phase length k is the smallest integer keeping the period average
    under p; at or above 0.5 the oscillation is centered on p with k = 1.
    """
    if not 0.0 < eps < 0.5:
        raise ParameterDomainError(f"margin must satisfy 0 < eps < 0.5, got {eps}")
    if not eps < p < 1.0 - eps:
        raise ParameterDomainError(
            f"target ratio must satisfy eps < p < 1 - eps, got p={p}, eps={eps}"
        )

    p_high = 1.0 - eps
    if p < 0.5:
        p_low = eps  # eps < p was checked above, so p - p_low > 0
        k = max(1, math.ceil((p_high - p) / (p - p_low) - _TOL))
    else:
        k = 1
        p_low = 2.0 * p - p_high

    params = ScheduleParams(target_ratio=p, margin=eps, p_low=p_low, p_high=p_high, k=k)
    assert 0.0 < params.p_low < p < params.p_high < 1.0
    assert params.period_average() <= p + _TOL
    return params


@dataclass(frozen=True)
class RatioTrajectory:
    """Per-epoch ratio sequence: k low epochs then one high epoch, repeating."""

    params: ScheduleParams
    total_epochs: int

    def __post_init__(self):
        if self.total_epochs < 1:
            raise ParameterDomainError(
                f"total_epochs must be >= 1, got {self.total_epochs}"
            )

    def ratio_at(self, epoch: int) -> float:
        if not 0 <= epoch < self.total_epochs:
            raise IndexError(
                f"epoch {epoch} outside [0, {self.total_epochs})"
            )
        if epoch % self.params.period < self.params.k:
            return self.params.p_low
        return self.params.p_high

    def prefix_average(self, upto_epoch: int) -> float:
        if not 1 <= upto_epoch <= self.total_epochs:
            raise IndexError(
                f"upto_epoch {upto_epoch} outside [1, {self.total_epochs}]"
            )
        return sum(self.ratio_at(t) for t in range(upto_epoch)) / upto_epoch

    def ratios(self) -> list[float]:
        return [self.ratio_at(t) for t in range(self.total_epochs)]


def constant_params(p: float) -> ScheduleParams:
    """Degenerate schedule with the oscillation disabled (fixed-ratio mode)."""
    if not 0.0 < p <= 1.0:
        raise ParameterDomainError(f"fixed ratio must be in (0, 1], got {p}")
    return ScheduleParams(target_ratio=p, margin=0.0, p_low=p, p_high=p, k=1)
