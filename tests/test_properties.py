"""Properties of the paper's invariants over whole input domains.

Each test states an invariant for every input Hypothesis can build, not only
for grid points: prefix budget safety of the schedule under the subset floor,
soundness of the budget ledger, the bounds of the subset size, the
hard-mining order, the OSDS file round trip, a portable stream that does
not depend on how its words are drawn, a lane jump that equals its single
steps, the one-step identity that the implicit regularizer rests on,
stacked model kernels that compute what one call per theta does, and whole
training runs that are bit-reproducible, budget-safe and write the loss
memory only where they selected.
"""

import itertools
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

import oscisel.trainer  # noqa: E402
from oscisel.data import Batch, Dataset, load_osds, save_osds  # noqa: E402
from oscisel.errors import (  # noqa: E402
    BudgetViolationError,
    ParameterDomainError,
    StructuralError,
)
from oscisel.ledger import BudgetLedger  # noqa: E402
from oscisel.models import (  # noqa: E402
    Arch,
    ModelState,
    _losses,
    _mean_gradient,
    mean_loss,
    per_sample_gradients,
)
from oscisel.regprobe import verify_one_step_expansion  # noqa: E402
from oscisel.rng import _LANE, _LANE_MIN, PortableRNG, _jump  # noqa: E402
from oscisel.schedule import RatioTrajectory, derive_params  # noqa: E402
from oscisel.selection import (  # noqa: E402
    LossMemory,
    select_hard_mining,
    select_random,
    subset_size,
    update_losses,
)
from oscisel.trainer import RunConfig, run_training  # noqa: E402
from rounding import rounding_scales  # noqa: E402

ratios = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


@given(
    eps=st.floats(min_value=1e-6, max_value=0.5, exclude_max=True),
    frac=st.floats(min_value=0.0, max_value=1.0),
    n=st.integers(min_value=1, max_value=100_000),
    epochs=st.integers(min_value=1, max_value=60),
)
def test_prefix_budget_safety(eps, frac, n, epochs):
    # p anywhere strictly inside (eps, 1 - eps)
    p = eps + frac * (1.0 - 2.0 * eps)
    assume(eps < p < 1.0 - eps)
    traj = RatioTrajectory(derive_params(p, eps), epochs)
    ledger = BudgetLedger(n=n, target_ratio=p)
    for t in range(epochs):
        assert traj.prefix_average(t + 1) <= p + 1e-12
        # raises BudgetViolationError if a prefix overspends
        ledger.record_epoch(subset_size(traj.ratio_at(t), n))
    assert ledger.total_passes() <= p * epochs * n + epochs


@given(data=st.data(), n=st.integers(min_value=1, max_value=1000), p=ratios)
def test_ledger_soundness(data, n, p):
    ledger = BudgetLedger(n=n, target_ratio=p)
    for _ in range(data.draw(st.integers(min_value=0, max_value=25))):
        # counts both in and out of [1, n]
        count = data.draw(st.integers(min_value=0, max_value=n + 1))
        before = (ledger.entries, ledger.total_passes())
        try:
            ledger.record_epoch(count)
        except (StructuralError, BudgetViolationError):
            assert (ledger.entries, ledger.total_passes()) == before
        else:
            assert ledger.entries == before[0] + (count,)
        t = len(ledger.entries)
        assert ledger.total_passes() == sum(ledger.entries)
        assert ledger.total_passes() <= p * t * n + t + 1e-9
        if t:
            assert ledger.realized_ratio() == sum(ledger.entries) / (t * n)


@given(p=ratios, q=ratios, n=st.integers(min_value=1, max_value=10**7))
def test_subset_size_bounds(p, q, n):
    m = subset_size(p, n)
    assert 1 <= m <= n
    # the floor of p*N, up to the 1e-9 roundoff tolerance, and at least 1
    assert m == max(1, math.floor(p * n + 1e-9))
    assert m <= max(1.0, p * n + 1e-9)
    assert subset_size(min(p, q), n) <= subset_size(max(p, q), n)


@given(p=st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0, exclude_min=True),
                   st.just(math.nan)))
def test_subset_size_rejects_ratios_outside_the_domain(p):
    with pytest.raises(ParameterDomainError):
        subset_size(p, 10)


@given(
    rows=st.lists(
        # few distinct losses, so that ties are common; None is never scored
        st.one_of(st.none(), st.sampled_from([0.0, 0.5, 1.0, 2.0])),
        min_size=1,
        max_size=40,
    ),
    p=ratios,
)
def test_hard_mining_order_matches_a_sort_oracle(rows, p):
    n = len(rows)
    mem = LossMemory(
        values=np.array([0.0 if v is None else v for v in rows]),
        last_updated=np.array([-1 if v is None else 0 for v in rows], dtype=np.int64),
    )
    m = subset_size(p, n)
    scored = sorted((i for i in range(n) if rows[i] is not None),
                    key=lambda i: (-rows[i], i))
    unscored = [i for i in range(n) if rows[i] is None]
    oracle = sorted((scored + unscored)[:m])
    chosen = select_hard_mining(mem, p)
    assert chosen.dtype == np.int64
    assert chosen.tolist() == oracle


@given(n=st.integers(min_value=1, max_value=300), p=ratios,
       seed=st.integers(min_value=0, max_value=2**64 - 1))
def test_random_selection_is_a_sorted_distinct_subset(n, p, seed):
    chosen = select_random(n, p, PortableRNG(seed))
    assert chosen.dtype == np.int64
    assert len(chosen) == subset_size(p, n)
    assert chosen.tolist() == sorted(set(chosen.tolist()))
    assert 0 <= chosen.min() and chosen.max() < n


@given(
    shape=st.tuples(st.integers(min_value=1, max_value=20),
                    st.integers(min_value=1, max_value=4)),
    classification=st.booleans(),
    data=st.data(),
)
def test_osds_round_trip(shape, classification, data):
    n = shape[0]
    # any float64, NaN, infinities and -0.0 included: the file keeps the bytes
    inputs = data.draw(arrays(np.float64, shape))
    if classification:
        labels = data.draw(arrays(np.int64, n,
                                  elements=st.integers(min_value=0, max_value=2**31)))
        # the header's uint32 count, whatever the labels hold
        n_classes = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    else:
        labels = data.draw(arrays(np.float64, n))
        n_classes = 0
    ds = Dataset(inputs, labels, "train", n_classes)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.osds", Path(tmp) / "second.osds"
        save_osds(ds, first)
        back = load_osds(first)
        save_osds(back, second)
        assert second.read_bytes() == first.read_bytes()
    assert (back.inputs.dtype, back.labels.dtype) == (np.float64, labels.dtype)
    assert back.inputs.tobytes() == inputs.tobytes()
    assert back.labels.tobytes() == labels.tobytes()
    assert back.n_classes == n_classes


# draw sizes at the edges of the lane path: around the shortest draw cut into
# lanes and around whole numbers of lanes, 0 and 1 included
_edge_sizes = st.builds(
    lambda base, offset: max(0, base + offset),
    st.sampled_from(
        [0, _LANE, 3 * _LANE, _LANE_MIN, _LANE_MIN + 5 * _LANE, 3 * _LANE_MIN]
    ),
    st.sampled_from([-1, 0, 1]),
)


@given(a=_edge_sizes, b=_edge_sizes, seed=st.integers(min_value=0, max_value=2**64 - 1))
def test_stream_does_not_depend_on_how_words_are_drawn(a, b, seed):
    split, whole = PortableRNG(seed), PortableRNG(seed)
    parts = np.concatenate([split.uniforms(a), split.uniforms(b)])
    assert parts.tobytes() == whole.uniforms(a + b).tobytes()
    assert split.next_u64() == whole.next_u64()


@given(state=st.binary(min_size=32, max_size=32))
def test_jump_is_lane_single_steps(state):
    rng = PortableRNG(0)
    rng._s = [int.from_bytes(state[i : i + 8], "little") for i in range(0, 32, 8)]
    rng._states(_LANE)
    jumped = _jump(state)
    assert [int.from_bytes(jumped[i : i + 8], "little") for i in range(0, 32, 8)] == rng._s


@given(
    shape=st.tuples(st.integers(min_value=2, max_value=8),
                    st.integers(min_value=1, max_value=4)),
    eta=st.floats(min_value=1e-3, max_value=0.5),
    data=st.data(),
)
def test_verify_prediction_is_the_mean_over_every_subset(shape, eta, data):
    # a quadratic model with N <= 8 rows, so every subset can be enumerated
    n, d = shape
    values = st.floats(min_value=-2.0, max_value=2.0)
    inputs = data.draw(arrays(np.float64, shape, elements=values))
    targets = data.draw(arrays(np.float64, n, elements=values))
    state = ModelState(Arch("quadratic", d), data.draw(arrays(np.float64, d, elements=values)))
    batch = Dataset(inputs, targets, "train", 0)
    # every p in (0, 1] that selects at least one row
    p = data.draw(st.floats(min_value=1.0 / n, max_value=1.0))
    report = verify_one_step_expansion(state, batch, [p], eta, 1)[0]
    grads = per_sample_gradients(state, batch)
    steps = [
        mean_loss(ModelState(state.arch, state.theta - eta * grads[list(s)].mean(axis=0)),
                  batch)
        for s in itertools.combinations(range(n), report["m"])
    ]
    exact = math.fsum(steps) / len(steps)
    # the second-order expansion is exact for a quadratic loss; what is left
    # is the rounding of the finite-difference Hessian-vector products,
    # measured at up to about 3e-11 of the loss scale
    scale = max(abs(exact), mean_loss(state, batch))
    assert abs(report["prediction"] - exact) <= 1e-9 * scale


@given(
    kind=st.sampled_from(["logistic", "mlp", "quadratic"]),
    d_in=st.integers(min_value=1, max_value=4),
    hidden=st.integers(min_value=1, max_value=8),
    classes=st.integers(min_value=2, max_value=5),
    m=st.integers(min_value=1, max_value=40),
    k=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(kind="mlp", d_in=1, hidden=1, classes=2, m=1, k=1, seed=0)
def test_stacked_kernels_equal_one_call_per_theta(kind, d_in, hidden, classes, m, k,
                                                  seed):
    # the stacked (K, d) kernels fold each layer's bias into its matrix
    # product through a ones row and write each gradient into theta's slot,
    # so a wrong row or slot shows at the smallest sizes
    arch = Arch(kind, d_in, hidden if kind == "mlp" else 0,
                0 if kind == "quadratic" else classes)
    rng = np.random.default_rng(seed)
    labels = rng.normal(size=m) if kind == "quadratic" else rng.integers(0, classes, m)
    batch = Batch(rng.normal(size=(m, d_in)), labels)
    thetas = 0.5 * rng.normal(size=(k, arch.param_count))
    grads, losses = _mean_gradient(arch, thetas, batch), _losses(arch, thetas, batch)
    assert grads.shape == thetas.shape and losses.shape == (k, m)
    for theta, grad, loss in zip(thetas, grads, losses):
        grad_scale, loss_scale = rounding_scales(arch, theta, batch)
        single = _mean_gradient(arch, theta, batch)
        assert np.abs(grad - single).max() <= 32 * np.spacing(grad_scale)
        single = _losses(arch, theta, batch)
        assert np.abs(loss - single).max() <= 8 * np.spacing(loss_scale)


# each example trains twice, and probes Tr(HC) every epoch when probe_every
# is 1; a few dozen keep the suite fast
@settings(max_examples=30)
@given(
    n=st.integers(min_value=2, max_value=40),
    eps=st.floats(min_value=1e-6, max_value=0.5, exclude_max=True),
    frac=st.floats(min_value=0.0, max_value=1.0),
    schedule_mode=st.sampled_from(["oscillatory", "fixed"]),
    policy=st.sampled_from(["hard_mining", "random"]),
    epochs=st.integers(min_value=1, max_value=10),
    batch_size=st.integers(min_value=1, max_value=8),
    probe_every=st.sampled_from([0, 1]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_training_runs_are_reproducible_and_budget_safe(
        n, eps, frac, schedule_mode, policy, epochs, batch_size, probe_every, seed):
    # target anywhere strictly inside derive_params' (eps, 1 - eps)
    target = eps + frac * (1.0 - 2.0 * eps)
    assume(eps < target < 1.0 - eps)
    cfg = RunConfig(
        dataset={"kind": "two_moons", "n_train": n, "n_test": 4, "noise": 0.2},
        model={"kind": "mlp", "hidden": 3}, epochs=epochs, batch_size=batch_size,
        learning_rate=0.3, target_ratio=target, margin=eps, policy=policy,
        schedule_mode=schedule_mode, seed=seed, probe_every=probe_every,
    )
    updates = []

    def recorded(mem, indices, losses, epoch):
        after = update_losses(mem, indices, losses, epoch)
        updates.append((mem, indices, after))
        return after

    with mock.patch.object(oscisel.trainer, "update_losses", recorded):
        first = run_training(cfg)
    second = run_training(cfg)

    def outputs(result):
        memory = result.loss_memory
        return (json.dumps([m.to_record() for m in result.metrics]),
                result.final_state.theta.tobytes(), memory.values.tobytes(),
                memory.last_updated.tobytes())

    assert outputs(first) == outputs(second)
    assert first.ledger.entries == tuple(record.n_selected for record in first.metrics)
    spent = 0
    for t, (record, (before, chosen, after)) in enumerate(
            zip(first.metrics, updates, strict=True), start=1):
        assert record.n_selected == max(1, math.floor(record.p_t * n + 1e-9))
        assert len(chosen) == record.n_selected
        spent += record.n_selected
        assert spent <= target * t * n + t
        # the ledger's realized ratio after epoch t - 1
        assert record.cumulative_ratio == spent / (t * n)
        changed = ((before.values != after.values)
                   | (before.last_updated != after.last_updated))
        assert set(np.flatnonzero(changed)) <= set(chosen.tolist())
        assert (after.last_updated[chosen] == t - 1).all()
