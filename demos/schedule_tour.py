"""Tour of the oscillatory ratio schedule.

For a handful of target budgets, derive the two-phase oscillation
parameters, print the first epochs of the trajectory, and show that every
prefix of the schedule stays at or under the budget.
"""

from oscisel.ledger import BudgetLedger
from oscisel.schedule import RatioTrajectory, derive_params
from oscisel.selection import subset_size


def main():
    n = 1000
    epochs = 12
    for target in (0.15, 0.3, 0.5, 0.8):
        params = derive_params(target, eps=0.05)
        traj = RatioTrajectory(params, epochs)
        print(
            f"target={target:.2f}: p_low={params.p_low:.2f} "
            f"p_high={params.p_high:.2f} k={params.k} period={params.period} "
            f"period_avg={params.period_average():.4f}"
        )
        print("  ratios:", " ".join(f"{r:.2f}" for r in traj.ratios()))

        ledger = BudgetLedger(n=n, target_ratio=target)
        for epoch in range(epochs):
            ledger.record_epoch(subset_size(traj.ratio_at(epoch), n))
        s = ledger.summary()
        print(
            f"  after {epochs} epochs on N={n}: realized_ratio="
            f"{s['realized_ratio']:.4f} headroom={s['headroom']:.4f}"
        )
        prefixes = [traj.prefix_average(t) for t in range(1, epochs + 1)]
        assert all(avg <= target + 1e-12 for avg in prefixes)
        print(f"  worst prefix average: {max(prefixes):.4f} (never above target)")
        print()


if __name__ == "__main__":
    main()
