"""Append-only accounting of training forward passes.

Every epoch's selected count is recorded and checked against the cumulative
budget: for a prefix of t epochs, sum(n_selected) <= p*t*N + t. The +t slack
exists only for the min-1 subset floor on tiny datasets; a violation is a bug
signal and is never recoverable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BudgetViolationError, EmptyDatasetError, SequencingError, StructuralError

_TOL = 1e-9


@dataclass
class BudgetLedger:
    n: int  # dataset size
    target_ratio: float
    entries: list = field(default_factory=list)  # (epoch, n_selected)

    def record_epoch(self, epoch: int, n_selected: int) -> "BudgetLedger":
        expected = self.entries[-1][0] + 1 if self.entries else 0
        if epoch != expected:
            raise SequencingError(
                f"epoch {epoch} out of order, expected {expected}"
            )
        if not 1 <= n_selected <= self.n:
            raise StructuralError(
                f"n_selected={n_selected} outside [1, {self.n}]"
            )
        self.entries.append((epoch, n_selected))
        t = len(self.entries)
        total = sum(n for _, n in self.entries)
        bound = self.target_ratio * t * self.n + t
        if total > bound + _TOL:
            self.entries.pop()
            raise BudgetViolationError(
                f"budget violated after epoch {epoch}: "
                f"{total} passes > {bound:.3f} allowed"
            )
        return self

    def total_passes(self) -> int:
        return sum(n for _, n in self.entries)

    def summary(self) -> dict:
        if not self.entries:
            raise EmptyDatasetError("ledger has no entries")
        t = len(self.entries)
        total = self.total_passes()
        realized = total / (t * self.n)
        return {
            "epochs": t,
            "total_passes": total,
            "realized_ratio": realized,
            "target_ratio": self.target_ratio,
            "headroom": self.target_ratio - realized,
            "floor_slack_used": realized > self.target_ratio + 1e-12,
        }
