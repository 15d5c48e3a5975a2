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
    # n_selected of epoch 0, 1, ...; append-only, so only record_epoch fills it
    entries: list = field(default_factory=list, init=False)

    def record_epoch(self, epoch: int, n_selected: int) -> "BudgetLedger":
        """Append one epoch's count; a rejected count leaves the ledger as it was."""
        t = len(self.entries)
        if epoch != t:
            raise SequencingError(f"epoch {epoch} out of order, expected {t}")
        if not 1 <= n_selected <= self.n:
            raise StructuralError(
                f"n_selected={n_selected} outside [1, {self.n}]"
            )
        total = self.total_passes() + n_selected
        bound = self.target_ratio * (t + 1) * self.n + (t + 1)
        if total > bound + _TOL:
            raise BudgetViolationError(
                f"budget violated after epoch {epoch}: "
                f"{total} passes > {bound:.3f} allowed"
            )
        self.entries.append(n_selected)
        return self

    def total_passes(self) -> int:
        return sum(self.entries)

    def realized_ratio(self) -> float:
        """Passes per epoch and row so far: total_passes() / (epochs * n)."""
        if not self.entries:
            raise EmptyDatasetError("ledger has no entries")
        return self.total_passes() / (len(self.entries) * self.n)

    def summary(self) -> dict:
        realized = self.realized_ratio()
        return {
            "epochs": len(self.entries),
            "total_passes": self.total_passes(),
            "realized_ratio": realized,
            "target_ratio": self.target_ratio,
            "headroom": self.target_ratio - realized,
            "floor_slack_used": realized > self.target_ratio + 1e-12,
        }
