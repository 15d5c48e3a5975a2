import math

import numpy as np
import pytest

from oscisel.errors import ParameterDomainError
from oscisel.schedule import (
    RatioTrajectory,
    ScheduleParams,
    constant_params,
    derive_params,
)

GRID_P = [round(0.10 + 0.05 * i, 2) for i in range(17)]  # 0.10 .. 0.90
GRID_EPS = [0.01, 0.05, 0.1, 0.2]


def valid_grid():
    return [(p, e) for p in GRID_P for e in GRID_EPS if e < p < 1.0 - e]


def minimal_k_scan(p, p_low, p_high, k_max=10_000):
    """Brute-force smallest k >= 1 with (k*p_low + p_high)/(k+1) <= p."""
    for k in range(1, k_max + 1):
        if (k * p_low + p_high) / (k + 1) <= p + 1e-12:
            return k
    raise AssertionError("no feasible k found")


def test_derive_p03():
    params = derive_params(0.3, 0.05)
    assert params.p_high == 0.95
    assert params.p_low == 0.05
    assert params.k == 3
    assert params.period == 4
    assert params.period_average() == pytest.approx(0.275, abs=1e-12)


def test_derive_p05():
    params = derive_params(0.5, 0.05)
    assert params.p_high == 0.95
    assert params.p_low == pytest.approx(0.05, abs=1e-12)
    assert params.k == 1
    assert params.period_average() == pytest.approx(0.5, abs=1e-12)


def test_derive_p07():
    params = derive_params(0.7, 0.05)
    assert params.p_high == 0.95
    assert params.p_low == pytest.approx(0.45, abs=1e-12)
    assert params.k == 1
    assert params.period_average() == pytest.approx(0.7, abs=1e-12)


def test_grid_piecewise_formulas_and_bound():
    for p, eps in valid_grid():
        params = derive_params(p, eps)
        assert params.p_high == 1.0 - eps
        if p < 0.5:
            assert params.p_low == eps
            ratio = (params.p_high - p) / (p - params.p_low)
            assert params.k == max(1, math.ceil(ratio - 1e-12))
        else:
            assert params.k == 1
            assert params.p_low == pytest.approx(2 * p - params.p_high, abs=1e-15)
        assert 0.0 < params.p_low < p < params.p_high < 1.0
        assert params.period_average() <= p + 1e-12


def test_grid_k_is_minimal_feasible():
    for p, eps in valid_grid():
        params = derive_params(p, eps)
        assert params.k == minimal_k_scan(p, params.p_low, params.p_high)


def test_trajectory_low_first_and_examples():
    t5 = RatioTrajectory(derive_params(0.5, 0.05), 10)
    assert t5.ratio_at(0) == pytest.approx(0.05, abs=1e-12)
    assert t5.ratio_at(1) == 0.95
    t3 = RatioTrajectory(derive_params(0.3, 0.05), 10)
    assert t3.ratio_at(3) == 0.95
    assert t3.ratios()[:4] == [0.05, 0.05, 0.05, 0.95]


def test_prefix_average_examples():
    t3 = RatioTrajectory(derive_params(0.3, 0.05), 10)
    assert t3.prefix_average(4) == pytest.approx(0.275, abs=1e-12)
    t5 = RatioTrajectory(derive_params(0.5, 0.05), 10)
    assert t5.prefix_average(1) == pytest.approx(0.05, abs=1e-12)
    t7 = RatioTrajectory(derive_params(0.7, 0.05), 10)
    assert t7.prefix_average(2) == pytest.approx(0.70, abs=1e-12)


def test_every_prefix_respects_budget():
    for p, eps in valid_grid():
        traj = RatioTrajectory(derive_params(p, eps), 50)
        for t in range(1, 51):
            assert traj.prefix_average(t) <= p + 1e-12


def test_periodicity():
    for p, eps in [(0.3, 0.05), (0.5, 0.05), (0.15, 0.01), (0.8, 0.1)]:
        traj = RatioTrajectory(derive_params(p, eps), 60)
        tau = traj.params.period
        for t in range(60 - tau):
            assert traj.ratio_at(t) == traj.ratio_at(t + tau)


def test_large_k_when_gap_small():
    # p barely above eps: k may exceed any realistic T, still budget-safe
    params = derive_params(0.06, 0.05)
    assert params.k >= 89
    traj = RatioTrajectory(params, 20)
    assert all(r == 0.05 for r in traj.ratios())
    assert traj.prefix_average(20) <= 0.06


def test_domain_errors():
    with pytest.raises(ParameterDomainError):
        derive_params(0.3, 0.0)
    with pytest.raises(ParameterDomainError):
        derive_params(0.3, 0.5)
    with pytest.raises(ParameterDomainError):
        derive_params(0.05, 0.05)  # p <= eps: infeasible low phase
    with pytest.raises(ParameterDomainError):
        derive_params(0.97, 0.05)
    with pytest.raises(ParameterDomainError):
        derive_params(1.2, 0.05)


def test_epoch_range_errors():
    traj = RatioTrajectory(derive_params(0.5, 0.05), 5)
    with pytest.raises(IndexError):
        traj.ratio_at(5)
    with pytest.raises(IndexError):
        traj.ratio_at(-1)
    with pytest.raises(IndexError):
        traj.prefix_average(0)
    with pytest.raises(IndexError):
        traj.prefix_average(6)


@pytest.mark.parametrize("epochs", [0, -3])
def test_trajectory_needs_an_epoch(epochs):
    with pytest.raises(ParameterDomainError, match="total_epochs"):
        RatioTrajectory(derive_params(0.3, 0.05), epochs)


def test_constant_params_is_flat():
    traj = RatioTrajectory(constant_params(0.5), 6)
    assert traj.ratios() == [0.5] * 6


def test_derive_is_pure():
    assert derive_params(0.3, 0.05) == derive_params(0.3, 0.05)
