import numpy as np
import pytest

from oscisel.data import gen_blobs, gen_two_moons
from oscisel.errors import EmptyDatasetError
from oscisel.models import Batch, ModelState, loss_per_sample, mean_gradient
from oscisel.regprobe import estimate_r, gradient_covariance_trace_hc
from oscisel.rng import PortableRNG, subseed
from oscisel.schedule import RatioTrajectory, constant_params
from oscisel.selection import (
    POLICIES,
    LossMemory,
    select_hard_mining,
    select_random,
    update_losses,
)
from oscisel import trainer
from oscisel.trainer import (
    EpochMetrics,
    RunConfig,
    build_datasets,
    build_model,
    evaluate,
    make_trajectory,
    run_training,
)

MOONS = {"kind": "two_moons", "n_train": 200, "n_test": 100, "noise": 0.2}


def moons_config(**overrides):
    base = dict(
        dataset=MOONS,
        model={"kind": "mlp", "hidden": 8},
        epochs=8,
        batch_size=32,
        learning_rate=0.5,
        target_ratio=0.5,
        margin=0.05,
        policy="hard_mining",
        seed=3,
    )
    base.update(overrides)
    return RunConfig(**base)


def test_runs_are_bit_reproducible():
    a = run_training(moons_config())
    b = run_training(moons_config())
    assert [m.to_record() for m in a.metrics] == [m.to_record() for m in b.metrics]
    assert np.array_equal(a.final_state.theta, b.final_state.theta)


def test_seed_changes_the_run():
    a = run_training(moons_config())
    b = run_training(moons_config(seed=4))
    assert not np.array_equal(a.final_state.theta, b.final_state.theta)


def test_oscillation_alternates_and_budget_exact():
    result = run_training(moons_config(epochs=10))
    sizes = [m.n_selected for m in result.metrics]
    assert sizes == [10, 190] * 5  # 0.05*200, 0.95*200
    summary = result.ledger.summary()
    assert summary["realized_ratio"] == 0.5  # N divisible by 20
    for m in result.metrics:
        assert m.cumulative_ratio <= 0.5 + 1.0 / 200
        assert np.isfinite(m.train_loss)


def test_full_data_baseline_matches_plain_sgd_loop():
    cfg = moons_config(
        target_ratio=1.0, schedule_mode="fixed", policy="random", epochs=5
    )
    result = run_training(cfg)

    # independent plain-SGD reference: full data, same shuffle stream
    train, test = build_datasets(cfg)
    state = build_model(cfg, train)
    shuffle_rng = PortableRNG(subseed(cfg.seed, "shuffle"))
    # the selection stream is consumed even for full selection
    select_rng = PortableRNG(subseed(cfg.seed, "select"))
    for _ in range(cfg.epochs):
        order = select_rng.sample_without_replacement(train.n, train.n)
        order = np.sort(order)
        shuffle_rng.shuffle(order)
        for start in range(0, train.n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            batch = Batch(train.inputs[idx], train.labels[idx])
            g = mean_gradient(state, batch)
            state = ModelState(state.arch, state.theta - cfg.learning_rate * g)
    assert np.array_equal(result.final_state.theta, state.theta)
    assert all(m.n_selected == train.n for m in result.metrics)


def test_fixed_mode_equals_degenerate_oscillation():
    # oscillation disabled: p_low = p_high = p gives the fixed-ratio run
    traj = RatioTrajectory(constant_params(0.5), 6)
    assert traj.ratios() == [0.5] * 6
    fixed = run_training(moons_config(schedule_mode="fixed", epochs=6))
    assert all(m.p_t == 0.5 for m in fixed.metrics)
    assert all(m.n_selected == 100 for m in fixed.metrics)


def test_cold_start_is_random_then_hard_mining(monkeypatch):
    updates = []

    def recorded(mem, indices, losses, epoch):
        after = update_losses(mem, indices, losses, epoch)
        updates.append((np.sort(indices), after))
        return after

    monkeypatch.setattr(trainer, "update_losses", recorded)
    cfg = moons_config(epochs=4)
    result = run_training(cfg)
    p = [m.p_t for m in result.metrics]
    # epoch 0 has no stored loss to rank: hard mining draws the random
    # policy's subset, from the same select stream words
    rng = PortableRNG(subseed(cfg.seed, "select"))
    assert np.array_equal(updates[0][0], select_random(200, p[0], rng))
    # epoch 1 ranks the losses epoch 0 stored
    assert np.array_equal(updates[1][0], select_hard_mining(updates[0][1], p[1]))


def test_loss_memory_records_pre_update_losses():
    cfg = moons_config(epochs=1, target_ratio=0.5, schedule_mode="fixed",
                       policy="random", batch_size=1000)
    result = run_training(cfg)
    train, _ = build_datasets(cfg)
    selected = np.flatnonzero(result.loss_memory.last_updated == 0)
    # single batch: recorded losses are the epoch-start model's losses
    state0 = build_model(cfg, train)
    batch = Batch(train.inputs[selected], train.labels[selected])
    expected = loss_per_sample(state0, batch)
    assert result.loss_memory.values[selected] == pytest.approx(expected)


def _train_updating_memory_per_minibatch(cfg):
    """Reference loop (constant rate, no momentum) that updates the loss
    memory after every minibatch; returns (memory, final theta)."""
    train, _ = build_datasets(cfg)
    state = build_model(cfg, train)
    traj = make_trajectory(cfg)
    memory = LossMemory.empty(train.n)
    select_rng = PortableRNG(subseed(cfg.seed, "select"))
    shuffle_rng = PortableRNG(subseed(cfg.seed, "shuffle"))
    for epoch in range(cfg.epochs):
        policy = POLICIES["random" if epoch == 0 else cfg.policy]
        order = policy(memory, traj.ratio_at(epoch), select_rng)
        shuffle_rng.shuffle(order)
        for start in range(0, order.shape[0], cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            batch = Batch(train.inputs[idx], train.labels[idx])
            memory = update_losses(memory, idx, loss_per_sample(state, batch), epoch)
            g = mean_gradient(state, batch)
            state = ModelState(state.arch, state.theta - cfg.learning_rate * g)
    return memory, state.theta


def test_loss_memory_equals_per_minibatch_updates():
    # 7 does not divide the epoch sizes 10 and 190: ragged last minibatches
    cfg = moons_config(batch_size=7, epochs=4)
    result = run_training(cfg)
    memory, theta = _train_updating_memory_per_minibatch(cfg)
    assert result.loss_memory.values.tobytes() == memory.values.tobytes()
    assert np.array_equal(result.loss_memory.last_updated, memory.last_updated)
    assert result.final_state.theta.tobytes() == theta.tobytes()


def test_loss_memory_takes_one_update_per_epoch(monkeypatch):
    calls = []

    def counting_update(mem, indices, losses, epoch):
        calls.append((epoch, len(indices)))
        return update_losses(mem, indices, losses, epoch)

    monkeypatch.setattr(trainer, "update_losses", counting_update)
    result = run_training(moons_config(batch_size=7, epochs=4))
    assert calls == [(m.epoch, m.n_selected) for m in result.metrics]


def test_each_minibatch_runs_one_forward_pass(monkeypatch):
    calls = []

    def spy(name):
        fn = getattr(trainer, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapped

    for name in ("mean_gradient", "loss_per_sample", "evaluate"):
        monkeypatch.setattr(trainer, name, spy(name))
    result = run_training(moons_config(batch_size=7, epochs=4))
    steps = sum(-(-m.n_selected // 7) for m in result.metrics)
    assert calls.count("mean_gradient") == steps
    # loss_per_sample runs only inside evaluate, once per evaluation
    others = [name for name in calls if name != "mean_gradient"]
    assert others == ["evaluate", "loss_per_sample"] * len(result.metrics)


def test_oscillatory_train_loss_variance_exceeds_fixed():
    wins = 0
    for seed in range(5):
        osc = run_training(moons_config(seed=seed, epochs=12))
        fix = run_training(
            moons_config(seed=seed, epochs=12, schedule_mode="fixed")
        )
        v_osc = np.var([m.train_loss for m in osc.metrics])
        v_fix = np.var([m.train_loss for m in fix.metrics])
        if v_osc > v_fix:
            wins += 1
    assert wins >= 4


def test_momentum_changes_trajectory():
    a = run_training(moons_config(epochs=3))
    b = run_training(moons_config(epochs=3, momentum=0.9))
    assert not np.array_equal(a.final_state.theta, b.final_state.theta)


def test_cosine_lr_changes_trajectory():
    a = run_training(moons_config(epochs=3))
    b = run_training(moons_config(epochs=3, lr_schedule="cosine"))
    assert not np.array_equal(a.final_state.theta, b.final_state.theta)


def test_eval_every_skips_epochs():
    result = run_training(moons_config(epochs=5, eval_every=2))
    evaluated = [m.epoch for m in result.metrics if m.test_loss is not None]
    assert evaluated == [0, 2, 4]


def test_probe_every_populates_r_estimates():
    cfg = moons_config(epochs=4, probe_every=2)
    result = run_training(cfg)
    probed = [m for m in result.metrics if m.R_estimate is not None]
    assert [m.epoch for m in probed] == [0, 2]
    assert [e for e, _, _ in result.snapshots] == [0, 2]
    n = build_datasets(cfg)[0].n
    for m, (_, _, trace_hc) in zip(probed, result.snapshots):
        assert m.R_estimate == estimate_r(trace_hc, n, m.n_selected,
                                          cfg.learning_rate)[1]


def test_snapshot_trace_is_the_trace_at_its_theta():
    cfg = moons_config(epochs=3, probe_every=1)
    result = run_training(cfg)
    train, _ = build_datasets(cfg)
    arch = result.final_state.arch
    for _, theta, trace_hc in result.snapshots:
        state = ModelState(arch, theta)
        assert trace_hc == gradient_covariance_trace_hc(state, train)


def test_full_data_run_probes_r_zero():
    # target_ratio 1 with a fixed schedule trains on all data every epoch
    result = run_training(
        moons_config(epochs=2, target_ratio=1.0, schedule_mode="fixed", probe_every=1)
    )
    assert [m.p_t for m in result.metrics] == [1.0, 1.0]
    assert [m.R_estimate for m in result.metrics] == [0.0, 0.0]
    assert all(trace_hc > 0.0 for _, _, trace_hc in result.snapshots)


def test_evaluate_zero_logistic_uniform():
    cfg = RunConfig(
        dataset={"kind": "blobs", "classes": 4, "per_class": 25, "spread": 0.3},
        model={"kind": "logistic"},
        epochs=1, batch_size=16, learning_rate=0.1, target_ratio=0.5,
        schedule_mode="fixed",
    )
    train, test = build_datasets(cfg)
    state = build_model(cfg, train)  # logistic init is zero
    loss, acc = evaluate(state, test)
    assert loss == pytest.approx(np.log(4))
    assert acc == 0.25  # balanced classes, argmax tie-break to class 0


def test_separable_data_reaches_full_accuracy():
    cfg = RunConfig(
        dataset={"kind": "blobs", "classes": 2, "per_class": 40, "spread": 0.02},
        model={"kind": "logistic"},
        epochs=30, batch_size=16, learning_rate=0.5, target_ratio=1.0,
        schedule_mode="fixed", policy="random", seed=1,
    )
    result = run_training(cfg)
    assert result.metrics[-1].test_accuracy == 1.0


def test_nonlinear_task_separates_models():
    # noisy two moons: linear model under ~95%, MLP above it at full data
    common = dict(
        dataset={"kind": "two_moons", "n_train": 600, "n_test": 400, "noise": 0.2},
        epochs=40, batch_size=32, learning_rate=0.5, target_ratio=1.0,
        schedule_mode="fixed", policy="random", seed=2,
    )
    linear = run_training(RunConfig(model={"kind": "logistic"}, **common))
    mlp = run_training(RunConfig(model={"kind": "mlp", "hidden": 32}, **common))
    assert linear.metrics[-1].test_accuracy < 0.95
    assert mlp.metrics[-1].test_accuracy > 0.95


def test_evaluate_empty_test_set_error():
    cfg = moons_config()
    train, _ = build_datasets(cfg)
    state = build_model(cfg, train)
    empty = type(train)(
        inputs=np.zeros((0, 2)), labels=np.zeros(0, dtype=np.int64),
        split="test", n_classes=2,
    )
    with pytest.raises(EmptyDatasetError):
        evaluate(state, empty)


def test_metrics_record_field_names_frozen():
    record = EpochMetrics(
        epoch=0, p_t=0.5, n_selected=1, cumulative_ratio=0.5,
        train_loss=0.1, test_loss=0.2, test_accuracy=0.9,
    ).to_record()
    assert list(record) == [
        "epoch", "p_t", "n_selected", "cumulative_ratio", "train_loss",
        "test_loss", "test_accuracy", "R_estimate",
    ]
