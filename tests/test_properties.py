"""Properties of the paper's invariants over whole input domains.

Each test states an invariant for every input Hypothesis can build, not only
for grid points: prefix budget safety of the schedule under the subset floor,
soundness of the budget ledger, the bounds of the subset size, the
hard-mining order, the OSDS file round trip, a portable stream that does
not depend on how its words are drawn, and the one-step identity that the
implicit regularizer rests on.
"""

import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from oscisel.data import Dataset, load_osds, save_osds  # noqa: E402
from oscisel.errors import (  # noqa: E402
    BudgetViolationError,
    ParameterDomainError,
    SequencingError,
    StructuralError,
)
from oscisel.ledger import BudgetLedger  # noqa: E402
from oscisel.models import (  # noqa: E402
    Arch,
    ModelState,
    mean_loss,
    per_sample_gradients,
)
from oscisel.regprobe import verify_one_step_expansion  # noqa: E402
from oscisel.rng import _LANE, _LANE_MIN, PortableRNG  # noqa: E402
from oscisel.schedule import RatioTrajectory, derive_params  # noqa: E402
from oscisel.selection import (  # noqa: E402
    LossMemory,
    select_hard_mining,
    select_random,
    subset_size,
)

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
        ledger.record_epoch(t, subset_size(traj.ratio_at(t), n))
    assert ledger.total_passes() <= p * epochs * n + epochs


@given(data=st.data(), n=st.integers(min_value=1, max_value=1000), p=ratios)
def test_ledger_soundness(data, n, p):
    ledger = BudgetLedger(n=n, target_ratio=p)
    for _ in range(data.draw(st.integers(min_value=0, max_value=25))):
        # mostly the next epoch, sometimes out of order; counts both in and
        # out of [1, n]
        epoch = len(ledger.entries) + data.draw(st.sampled_from([0, 0, 0, 1, -1]))
        count = data.draw(st.integers(min_value=0, max_value=n + 1))
        before = (list(ledger.entries), ledger.total_passes())
        try:
            ledger.record_epoch(epoch, count)
        except (SequencingError, StructuralError, BudgetViolationError):
            assert (ledger.entries, ledger.total_passes()) == before
        else:
            assert ledger.entries == before[0] + [count]
        t = len(ledger.entries)
        assert ledger.total_passes() == sum(ledger.entries)
        assert ledger.total_passes() <= p * t * n + t + 1e-9


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
    report = verify_one_step_expansion(state, batch, p, eta, 1)
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
