"""RunConfig is valid by construction: its keys, their values and its
dataset and model objects are checked when it is made, from one table."""

import math
from dataclasses import fields

import numpy as np
import pytest

from oscisel.config import KEY_TYPES, SPEC_KEYS, RunConfig
from oscisel.errors import ConfigError, ParameterDomainError
from oscisel.trainer import build_datasets

BASE = dict(
    dataset={"kind": "two_moons", "n_train": 40, "n_test": 20, "noise": 0.1},
    model={"kind": "mlp", "hidden": 4},
    epochs=2,
    batch_size=8,
    learning_rate=0.1,
    target_ratio=0.5,
)

# keys whose values are checked by name, not by KEY_TYPES
CHECKED_BY_NAME = {"dataset", "model", "kind", "policy", "schedule_mode",
                   "lr_schedule"}


@pytest.mark.parametrize(
    "overrides, message",
    [({"dataset": {"kind": "blobz"}}, "unknown dataset kind 'blobz'"),
     ({"dataset": {"kind": "two_moons", "n_trian": 5, "n_test": 5, "noise": 0.1}},
      "dataset 'two_moons': missing required keys: ['n_train']"),
     ({"model": {"kind": "mlp", "hidden": 2.5}},
      "model 'mlp': hidden must be an integer, got 2.5"),
     # a list cannot be a dict key: looking it up would raise a TypeError
     ({"dataset": {"kind": ["two_moons"]}}, "unknown dataset kind ['two_moons']"),
     ({"policy": ["random"]}, "unknown policy ['random']")],
    ids=["unknown-kind", "misspelled-key", "hidden=float", "kind=list",
         "policy=list"],
)
def test_a_bad_value_fails_when_the_config_is_made(overrides, message):
    with pytest.raises(ConfigError) as info:
        RunConfig(**{**BASE, **overrides})
    assert str(info.value) == message


def test_every_key_has_a_type_or_is_checked_by_name():
    keys = {f.name for f in fields(RunConfig)} | {"out_dir", "name"}
    for kinds in SPEC_KEYS.values():
        for required, optional in kinds.values():
            keys |= required | optional
    assert sorted(keys - CHECKED_BY_NAME - set(KEY_TYPES)) == []
    assert sorted(set(KEY_TYPES) - keys) == []
    assert sorted(set(KEY_TYPES) & CHECKED_BY_NAME) == []


@pytest.mark.parametrize(
    "overrides, message",
    [({"target_ratio": 1.5},
      "target ratio must satisfy eps < p < 1 - eps, got p=1.5, eps=0.05"),
     ({"margin": 0.7}, "margin must satisfy 0 < eps < 0.5, got 0.7"),
     ({"target_ratio": 0, "schedule_mode": "fixed"},
      "fixed ratio must be in (0, 1], got 0")],
    ids=["target=1.5", "margin=0.7", "fixed-target=0"],
)
def test_a_schedule_out_of_its_domain_fails_when_the_config_is_made(overrides,
                                                                    message):
    with pytest.raises(ParameterDomainError) as info:
        RunConfig(**{**BASE, **overrides})
    assert str(info.value) == message


@pytest.mark.parametrize(
    "overrides",
    [{"learning_rate": np.float32(0.1)}, {"learning_rate": np.int64(1)},
     {"epochs": np.int64(2)},
     {"dataset": {**BASE["dataset"], "noise": np.float32(0.2)}},
     {"dataset": {"kind": "blobs", "classes": 2, "per_class": 20, "d_in": 2,
                  "spread": np.float32(0.2)}}],
    ids=["learning_rate=float32", "learning_rate=int64", "epochs=int64",
         "noise=float32", "spread=float32"],
)
def test_numpy_scalars_are_numbers(overrides):
    # the data is built too, which checks noise and spread
    train, _ = build_datasets(RunConfig(**{**BASE, **overrides}))
    assert np.isfinite(train.inputs).all()


@pytest.mark.parametrize(
    "key, what", [("learning_rate", "a number"), ("epochs", "an integer")]
)
def test_a_numpy_bool_is_no_number(key, what):
    with pytest.raises(ConfigError, match=f"^{key} must be {what}, got "):
        RunConfig(**{**BASE, key: np.bool_(True)})


@pytest.mark.parametrize(
    "value", [np.float32("inf"), np.float32("nan"), np.longdouble(1e300) ** 2],
    ids=["float32-inf", "float32-nan", "longdouble-beyond-float64"],
)
def test_a_numpy_learning_rate_must_be_a_finite_float64(value):
    with pytest.raises(ParameterDomainError, match="learning_rate must be finite"):
        RunConfig(**{**BASE, "learning_rate": value})


@pytest.mark.parametrize("rate, epochs", [(0.5, 3), (0.1, 7), (1e-3, 50), (2.0, 1)])
def test_the_learning_rate_schedules_give_the_same_floats(rate, epochs):
    constant = RunConfig(**{**BASE, "learning_rate": rate, "epochs": epochs})
    cosine = RunConfig(**{**BASE, "learning_rate": rate, "epochs": epochs,
                          "lr_schedule": "cosine"})
    for epoch in range(epochs):
        assert constant.learning_rate_at(epoch) == rate
        # the expression the trainer wrote inline before the schedule moved
        # into RunConfig, so the runs it pins keep their bytes
        old = rate * 0.5 * (1.0 + math.cos(math.pi * epoch / epochs))
        assert cosine.learning_rate_at(epoch).hex() == old.hex()
