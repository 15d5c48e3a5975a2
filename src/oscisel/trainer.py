"""Epoch-level training loop with budgeted data selection.

A RunConfig is checked when it is made, so build_datasets and build_model
take it as it is. Before the first step, build_model checks the training
split against the model it builds, and run_training checks the test split.
Each epoch: get the scheduled ratio and learning rate, pick a subset with
the config's policy, shuffle it, run mini-batch SGD, and record the
pre-update forward losses into the loss memory, once per epoch; no pass
scores unselected data. Each minibatch runs one forward pass, which gives
both its losses and its gradient. The trainer names no run-config choice;
labeled sub-streams of the single run seed drive everything, so a fixed
config is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .config import RunConfig
from .data import Batch, Dataset, datasets_from_spec
from .ledger import BudgetLedger
from .models import (
    Arch,
    ModelState,
    check_batch,
    init_state,
    loss_per_sample,
    mean_gradient,
    predict,
)
from . import regprobe
from .regprobe import estimate_r
from .schedule import RatioTrajectory
from .selection import POLICIES, LossMemory, update_losses
from .rng import PortableRNG, subseed

import numpy as np


@dataclass
class EpochMetrics:
    epoch: int
    p_t: float
    n_selected: int
    cumulative_ratio: float
    train_loss: float
    test_loss: float | None
    test_accuracy: float | None
    R_estimate: float | None = None

    def to_record(self) -> dict:
        """The metrics.jsonl record: every field, in declaration order."""
        return asdict(self)


@dataclass
class TrainResult:
    metrics: list
    final_state: ModelState
    ledger: BudgetLedger
    loss_memory: LossMemory
    # (epoch, theta at epoch start, Tr(HC) at that theta) per probed epoch
    snapshots: list = field(default_factory=list)


def build_datasets(cfg: RunConfig) -> tuple[Dataset, Dataset]:
    return datasets_from_spec(cfg.dataset, cfg.seed)


def build_model(cfg: RunConfig, train: Dataset) -> ModelState:
    """The config's model, initialized, after checking train against it."""
    arch = Arch(d_in=train.d_in, classes=train.n_classes, **cfg.model)
    state = init_state(arch, PortableRNG(subseed(cfg.seed, "model_init")))
    check_batch(state, train)
    return state


def make_trajectory(cfg: RunConfig) -> RatioTrajectory:
    return RatioTrajectory(params=cfg.schedule_params(), total_epochs=cfg.epochs)


def evaluate(state: ModelState, test: Dataset) -> tuple[float, float | None]:
    """Mean loss and top-1 accuracy (None for a regression model, which
    predicts no classes, even on class data)."""
    loss = float(loss_per_sample(state, test).mean())
    if not state.arch.classifies:
        return loss, None
    return loss, float((predict(state, test) == test.labels).mean())


def run_training(cfg: RunConfig) -> TrainResult:
    train, test = build_datasets(cfg)
    state = build_model(cfg, train)
    check_batch(state, test)
    traj = make_trajectory(cfg)
    ledger = BudgetLedger(n=train.n, target_ratio=cfg.target_ratio)
    memory = LossMemory.empty(train.n)
    rng_select = PortableRNG(subseed(cfg.seed, "select"))
    rng_shuffle = PortableRNG(subseed(cfg.seed, "shuffle"))
    policy = POLICIES[cfg.policy]
    velocity = np.zeros_like(state.theta)

    metrics: list[EpochMetrics] = []
    snapshots = []
    # an overflow in a step leaves a non-finite theta, which the next
    # ModelState rejects; NumPy's warnings would only precede that error
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            p_t = traj.ratio_at(epoch)
            eta = cfg.learning_rate_at(epoch)
            probing = cfg.probe_every > 0 and epoch % cfg.probe_every == 0
            r_estimate = None
            if probing:
                # looked up on the module at each call, so that oscibench's span
                # tracer, which patches regprobe's globals, counts these traces
                trace_hc = regprobe.gradient_covariance_trace_hc(state, train)
                snapshots.append((epoch, state.theta.copy(), trace_hc))
                _, r_estimate = estimate_r(trace_hc, train.n, p_t, eta)

            # a fresh sorted array, shuffled in place into the visiting order
            order = policy(memory, p_t, rng_select)
            rng_shuffle.shuffle(order)
            loss_sum = 0.0
            # pre-update forward losses of the epoch, aligned with order; the
            # memory takes them in one update after the last step, which is the
            # same memory as one update per minibatch, since selection reads it
            # only between epochs and order holds distinct indices
            epoch_losses = np.empty(order.shape[0])
            for start in range(0, order.shape[0], cfg.batch_size):
                stop = start + cfg.batch_size
                idx = order[start:stop]
                batch = Batch(inputs=train.inputs[idx], labels=train.labels[idx])
                losses = epoch_losses[start:stop]
                g = mean_gradient(state, batch, losses=losses)
                loss_sum += float(losses.sum())
                if cfg.momentum > 0.0:
                    velocity = cfg.momentum * velocity + g
                    g = velocity
                state = ModelState(state.arch, state.theta - eta * g)
            memory = update_losses(memory, order, epoch_losses, epoch)

            n_selected = order.shape[0]
            ledger.record_epoch(n_selected)
            if epoch % cfg.eval_every == 0 or epoch == cfg.epochs - 1:
                test_loss, test_acc = evaluate(state, test)
            else:
                test_loss, test_acc = None, None
            metrics.append(
                EpochMetrics(
                    epoch=epoch,
                    p_t=p_t,
                    n_selected=n_selected,
                    cumulative_ratio=ledger.realized_ratio(),
                    train_loss=loss_sum / n_selected,
                    test_loss=test_loss,
                    test_accuracy=test_acc,
                    R_estimate=r_estimate,
                )
            )
    return TrainResult(
        metrics=metrics,
        final_state=state,
        ledger=ledger,
        loss_memory=memory,
        snapshots=snapshots,
    )
