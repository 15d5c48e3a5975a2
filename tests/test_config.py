"""RunConfig is valid by construction: its keys, their values and its
dataset and model objects are checked when it is made, from one table."""

from dataclasses import fields

import pytest

from oscisel.config import KEY_TYPES, SPEC_KEYS, RunConfig
from oscisel.errors import ConfigError

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
