import dataclasses
import math

import pytest

from oscisel.errors import (
    BudgetViolationError,
    EmptyDatasetError,
    ParameterDomainError,
    StructuralError,
)
from oscisel.ledger import BudgetLedger
from oscisel.schedule import RatioTrajectory, derive_params
from oscisel.selection import subset_size


def test_accepts_full_period():
    ledger = BudgetLedger(n=1000, target_ratio=0.3)
    for n in [50, 50, 50, 950]:
        ledger.record_epoch(n)
    assert ledger.total_passes() == 1100  # <= 0.3*4*1000 = 1200


def test_accepts_single_low_epoch():
    ledger = BudgetLedger(n=1000, target_ratio=0.5)
    ledger.record_epoch(50)
    assert ledger.total_passes() == 50


def test_rejects_inverted_phase_order():
    ledger = BudgetLedger(n=1000, target_ratio=0.3)
    with pytest.raises(BudgetViolationError, match="950"):
        ledger.record_epoch(950)
    # rejected entry must not linger
    assert ledger.entries == ()


def test_count_range_errors():
    ledger = BudgetLedger(n=100, target_ratio=0.5)
    with pytest.raises(StructuralError):
        ledger.record_epoch(0)
    with pytest.raises(StructuralError):
        ledger.record_epoch(101)


def test_summary_realized_ratio():
    ledger = BudgetLedger(n=1000, target_ratio=0.3)
    for n in [50, 50, 50, 950]:
        ledger.record_epoch(n)
    summary = ledger.summary()
    assert summary["realized_ratio"] == 1100 / 4000
    assert summary["headroom"] == pytest.approx(0.3 - 0.275)
    assert not summary["floor_slack_used"]


def test_summary_full_usage():
    ledger = BudgetLedger(n=10, target_ratio=1.0)
    for _ in range(3):
        ledger.record_epoch(10)
    assert ledger.summary()["realized_ratio"] == 1.0


def test_summary_min_floor_flagged():
    ledger = BudgetLedger(n=1, target_ratio=0.5)
    ledger.record_epoch(1)
    summary = ledger.summary()
    assert summary["realized_ratio"] == 1.0
    assert summary["floor_slack_used"]


def test_summary_empty_error():
    with pytest.raises(EmptyDatasetError):
        BudgetLedger(n=10, target_ratio=0.5).summary()
    with pytest.raises(EmptyDatasetError):
        BudgetLedger(n=10, target_ratio=0.5).realized_ratio()


def test_entries_come_only_from_record_epoch():
    # the ledger is append-only: a ledger made with entries could hold
    # counts its budget check never saw
    with pytest.raises(TypeError):
        BudgetLedger(n=10, target_ratio=0.5, entries=[10, 10])
    ledger = BudgetLedger(n=10, target_ratio=0.5)
    assert ledger.record_epoch(5) is None
    # nor can entries be changed in place or replaced
    with pytest.raises(AttributeError):
        ledger.entries.append(100)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ledger.entries = (100,)
    assert ledger.entries == (5,)
    assert ledger.total_passes() == 5


@pytest.mark.parametrize(
    "n,target_ratio",
    [(10, math.nan), (10, 0.0), (10, -0.5), (10, 1.5), (0, 0.5)],
)
def test_rejects_a_size_or_ratio_outside_its_domain(n, target_ratio):
    name = "n" if n < 1 else "target_ratio"
    with pytest.raises(ParameterDomainError, match=f"^{name} must"):
        BudgetLedger(n=n, target_ratio=target_ratio)


@pytest.mark.parametrize("n", [20, 1000])
@pytest.mark.parametrize("p,eps", [(0.1, 0.05), (0.3, 0.05), (0.5, 0.05), (0.7, 0.1), (0.9, 0.05)])
def test_schedule_plus_floor_sizing_never_violates(n, p, eps):
    traj = RatioTrajectory(derive_params(p, eps), 100)
    ledger = BudgetLedger(n=n, target_ratio=p)
    for epoch in range(100):
        ledger.record_epoch(subset_size(traj.ratio_at(epoch), n))
