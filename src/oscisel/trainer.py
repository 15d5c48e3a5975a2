"""Epoch-level training loop with budgeted data selection.

Before the first step, build_model checks the training split against the
model it builds, and run_training checks the test split.
Each epoch: get the scheduled ratio, pick a subset (random cold start at
epoch 0 for hard mining), shuffle it, run mini-batch SGD, and record the
pre-update forward losses into the loss memory, once per epoch; no pass
scores unselected data. Each minibatch runs one forward pass, which gives
both its losses and its gradient. Everything is driven by labeled
sub-streams of the single run seed, so a fixed config is bit-reproducible.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field

from .data import (
    Batch,
    Dataset,
    gen_blobs,
    gen_gauss_linear,
    gen_two_moons,
    inject_label_noise,
    load_idx,
    load_osds,
)
from .errors import ConfigError, ParameterDomainError
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
from .schedule import RatioTrajectory, constant_params, derive_params
from .selection import POLICIES, LossMemory, update_losses
from .rng import PortableRNG, subseed

import numpy as np


def _is_int(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, (int, np.integer))


def _is_number(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, (int, float))


@dataclass(frozen=True)
class RunConfig:
    dataset: dict
    model: dict
    epochs: int
    batch_size: int
    learning_rate: float
    target_ratio: float
    margin: float = 0.05
    momentum: float = 0.0
    policy: str = "hard_mining"
    schedule_mode: str = "oscillatory"  # "oscillatory" | "fixed"
    lr_schedule: str = "constant"  # "constant" | "cosine"
    seed: int = 0
    eval_every: int = 1
    probe_every: int = 0  # 0 disables R probing / snapshots

    def __post_init__(self):
        for name in ("epochs", "batch_size", "eval_every", "probe_every", "seed"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("learning_rate", "target_ratio", "margin", "momentum"):
            value = getattr(self, name)
            if not _is_number(value):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        if self.epochs < 1:
            raise ParameterDomainError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ParameterDomainError("batch_size must be >= 1")
        if not 0.0 < self.learning_rate < math.inf:  # NaN fails too
            raise ParameterDomainError("learning_rate must be finite and > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ParameterDomainError("momentum must be in [0, 1)")
        if self.eval_every < 1:
            raise ParameterDomainError("eval_every must be >= 1")
        if self.probe_every < 0:
            raise ParameterDomainError("probe_every must be >= 0 (0 disables)")
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}")
        if self.schedule_mode not in ("oscillatory", "fixed"):
            raise ConfigError(f"unknown schedule_mode {self.schedule_mode!r}")
        if self.lr_schedule not in ("constant", "cosine"):
            raise ConfigError(f"unknown lr_schedule {self.lr_schedule!r}")


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


# kind -> (required keys, optional keys) of the config's "dataset" and
# "model" objects, besides "kind" itself
SPEC_KEYS = {
    "dataset": {
        "two_moons": ({"n_train", "n_test", "noise"}, {"label_noise"}),
        "blobs": (
            {"classes", "per_class", "spread"},
            {"d_in", "test_per_class", "label_noise"},
        ),
        "gauss_linear": ({"n_train", "d_in"}, {"noise", "n_test", "label_noise"}),
        "idx": (
            {"images", "labels", "test_images", "test_labels"},
            {"limit", "test_limit", "label_noise"},
        ),
        "osds": ({"train", "test"}, {"label_noise"}),
    },
    "model": {
        "logistic": (set(), set()),
        "mlp": ({"hidden"}, set()),
        "quadratic": (set(), set()),
    },
}

# what each key of SPEC_KEYS holds; a path must be a string, or an integer
# would be opened as a file descriptor
_SPEC_TYPES = {
    **dict.fromkeys(
        ("n_train", "n_test", "classes", "per_class", "d_in", "test_per_class",
         "hidden", "limit", "test_limit"),
        ("an integer", _is_int),
    ),
    **dict.fromkeys(("noise", "spread", "label_noise"), ("a number", _is_number)),
    **dict.fromkeys(
        ("images", "labels", "test_images", "test_labels", "train", "test"),
        ("a path string", lambda value: isinstance(value, (str, os.PathLike))),
    ),
}


def check_keys(where: str, doc: dict, required: set, optional: set) -> None:
    """Reject missing required keys, and keys neither required nor optional,
    so that typos fail loudly."""
    missing, unknown = required - set(doc), set(doc) - required - optional
    if missing:
        raise ConfigError(f"{where}: missing required keys: {sorted(missing)}")
    if unknown:
        raise ConfigError(f"{where}: unknown keys: {sorted(unknown)}")


def _check_spec(section: str, spec) -> str:
    """The spec's kind, after checking its keys against SPEC_KEYS and their
    values against _SPEC_TYPES."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{section} must be an object, got {spec!r}")
    kind = spec.get("kind")
    if kind not in SPEC_KEYS[section]:
        raise ConfigError(f"unknown {section} kind {kind!r}")
    required, optional = SPEC_KEYS[section][kind]
    check_keys(f"{section} {kind!r}", spec, required | {"kind"}, optional)
    for key, value in spec.items():
        if key == "kind":
            continue
        what, ok = _SPEC_TYPES[key]
        if not ok(value):
            raise ConfigError(f"{section} {kind!r}: {key} must be {what}, got {value!r}")
    return kind


def datasets_from_spec(spec: dict, seed: int) -> tuple[Dataset, Dataset]:
    """Train and test splits of a config's "dataset" object."""
    kind = _check_spec("dataset", spec)
    seed_train = subseed(seed, "data.train")
    seed_test = subseed(seed, "data.test")
    if kind == "two_moons":
        train = gen_two_moons(spec["n_train"], spec["noise"], seed_train, "train")
        test = gen_two_moons(spec["n_test"], spec["noise"], seed_test, "test")
    elif kind == "blobs":
        train = gen_blobs(
            spec["classes"], spec["per_class"], spec.get("d_in", 2),
            spec["spread"], seed_train, "train",
        )
        test = gen_blobs(
            spec["classes"], spec.get("test_per_class", spec["per_class"]),
            spec.get("d_in", 2), spec["spread"], seed_test, "test",
        )
    elif kind == "gauss_linear":
        train = gen_gauss_linear(
            spec["n_train"], spec["d_in"], spec.get("noise", 0.0), seed_train, "train"
        )
        test = gen_gauss_linear(
            spec.get("n_test", spec["n_train"]), spec["d_in"],
            spec.get("noise", 0.0), seed_test, "test",
        )
    elif kind == "idx":
        train = load_idx(spec["images"], spec["labels"], spec.get("limit"), "train")
        test = load_idx(
            spec["test_images"], spec["test_labels"], spec.get("test_limit"), "test"
        )
    else:
        train = load_osds(spec["train"], "train")
        test = load_osds(spec["test"], "test")
    label_noise = spec.get("label_noise", 0.0)
    if label_noise:
        train = inject_label_noise(train, label_noise, subseed(seed, "data.noise"))
    return train, test


def build_datasets(cfg: RunConfig) -> tuple[Dataset, Dataset]:
    return datasets_from_spec(cfg.dataset, cfg.seed)


def build_model(cfg: RunConfig, train: Dataset) -> ModelState:
    """The config's model, initialized, after checking train against it."""
    kind = _check_spec("model", cfg.model)
    arch = Arch(kind, train.d_in, cfg.model.get("hidden", 0), train.n_classes)
    state = init_state(arch, PortableRNG(subseed(cfg.seed, "model_init")))
    check_batch(state, train)
    return state


def make_trajectory(cfg: RunConfig) -> RatioTrajectory:
    if cfg.schedule_mode == "fixed":
        params = constant_params(cfg.target_ratio)
    else:
        params = derive_params(cfg.target_ratio, cfg.margin)
    return RatioTrajectory(params=params, total_epochs=cfg.epochs)


def evaluate(state: ModelState, test: Dataset) -> tuple[float, float | None]:
    """Mean loss and top-1 accuracy (None for regression)."""
    loss = float(loss_per_sample(state, test).mean())
    if not test.is_classification:
        return loss, None
    return loss, float((predict(state, test) == test.labels).mean())


def epoch_lr(cfg: RunConfig, epoch: int) -> float:
    """The learning rate of one epoch under cfg.lr_schedule."""
    if cfg.lr_schedule == "cosine":
        return cfg.learning_rate * 0.5 * (1.0 + math.cos(math.pi * epoch / cfg.epochs))
    return cfg.learning_rate


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
    random_policy = POLICIES["random"]
    velocity = np.zeros_like(state.theta)

    metrics: list[EpochMetrics] = []
    snapshots = []
    for epoch in range(cfg.epochs):
        p_t = traj.ratio_at(epoch)
        probing = cfg.probe_every > 0 and epoch % cfg.probe_every == 0
        r_estimate = None
        if probing:
            # looked up on the module at each call, so that oscibench's span
            # tracer, which patches regprobe's globals, counts these traces
            trace_hc = regprobe.gradient_covariance_trace_hc(state, train)
            snapshots.append((epoch, state.theta.copy(), trace_hc))
            _, r_estimate = estimate_r(trace_hc, train.n, p_t, epoch_lr(cfg, epoch))

        # epoch 0 has no recorded losses yet: random cold start
        active = random_policy if epoch == 0 else policy
        # a fresh sorted array, shuffled in place into the visiting order
        order = active(memory, p_t, rng_select)
        rng_shuffle.shuffle(order)
        eta = epoch_lr(cfg, epoch)
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
        ledger.record_epoch(epoch, n_selected)
        cumulative = ledger.total_passes() / ((epoch + 1) * train.n)
        if epoch % cfg.eval_every == 0 or epoch == cfg.epochs - 1:
            test_loss, test_acc = evaluate(state, test)
        else:
            test_loss, test_acc = None, None
        metrics.append(
            EpochMetrics(
                epoch=epoch,
                p_t=p_t,
                n_selected=n_selected,
                cumulative_ratio=cumulative,
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
