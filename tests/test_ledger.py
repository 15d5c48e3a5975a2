import math

import pytest

from oscisel.errors import (
    BudgetViolationError,
    EmptyDatasetError,
    SequencingError,
    StructuralError,
)
from oscisel.ledger import BudgetLedger
from oscisel.schedule import RatioTrajectory, derive_params
from oscisel.selection import subset_size


def test_accepts_full_period():
    ledger = BudgetLedger(n=1000, target_ratio=0.3)
    for epoch, n in enumerate([50, 50, 50, 950]):
        ledger.record_epoch(epoch, n)
    assert ledger.total_passes() == 1100  # <= 0.3*4*1000 = 1200


def test_accepts_single_low_epoch():
    ledger = BudgetLedger(n=1000, target_ratio=0.5)
    ledger.record_epoch(0, 50)
    assert ledger.total_passes() == 50


def test_rejects_inverted_phase_order():
    ledger = BudgetLedger(n=1000, target_ratio=0.3)
    with pytest.raises(BudgetViolationError, match="950"):
        ledger.record_epoch(0, 950)
    # rejected entry must not linger
    assert ledger.entries == []


def test_sequencing_errors():
    ledger = BudgetLedger(n=100, target_ratio=0.5)
    with pytest.raises(SequencingError):
        ledger.record_epoch(1, 10)
    ledger.record_epoch(0, 10)
    with pytest.raises(SequencingError):
        ledger.record_epoch(2, 10)
    with pytest.raises(SequencingError):
        ledger.record_epoch(0, 10)


def test_count_range_errors():
    ledger = BudgetLedger(n=100, target_ratio=0.5)
    with pytest.raises(StructuralError):
        ledger.record_epoch(0, 0)
    with pytest.raises(StructuralError):
        ledger.record_epoch(0, 101)


def test_summary_realized_ratio():
    ledger = BudgetLedger(n=1000, target_ratio=0.3)
    for epoch, n in enumerate([50, 50, 50, 950]):
        ledger.record_epoch(epoch, n)
    summary = ledger.summary()
    assert summary["realized_ratio"] == 1100 / 4000
    assert summary["headroom"] == pytest.approx(0.3 - 0.275)
    assert not summary["floor_slack_used"]


def test_summary_full_usage():
    ledger = BudgetLedger(n=10, target_ratio=1.0)
    for epoch in range(3):
        ledger.record_epoch(epoch, 10)
    assert ledger.summary()["realized_ratio"] == 1.0


def test_summary_min_floor_flagged():
    ledger = BudgetLedger(n=1, target_ratio=0.5)
    ledger.record_epoch(0, 1)
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


@pytest.mark.parametrize("n", [20, 1000])
@pytest.mark.parametrize("p,eps", [(0.1, 0.05), (0.3, 0.05), (0.5, 0.05), (0.7, 0.1), (0.9, 0.05)])
def test_schedule_plus_floor_sizing_never_violates(n, p, eps):
    traj = RatioTrajectory(derive_params(p, eps), 100)
    ledger = BudgetLedger(n=n, target_ratio=p)
    for epoch in range(100):
        ledger.record_epoch(epoch, subset_size(traj.ratio_at(epoch), n))
