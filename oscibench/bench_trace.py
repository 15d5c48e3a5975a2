"""Span tracing for the oscisel benchmark, applied from outside the package.

A `Tracer` replaces public oscisel functions with timing wrappers for the
length of one operation, at the names their callers resolve them through:
module globals of `oscisel.trainer`, `oscisel.cli` and `oscisel.regprobe`,
the entries of `selection.POLICIES`, and a few class methods. Each call
records a span (name, start, end, parent, two counts) in memory. Self time,
a span's duration minus what its direct children cover, is what the
per-layer metrics add up, so they partition the traced wall time of an
operation. A hook whose target no longer exists is reported as missing, and
every metric reading its span is withheld rather than reported as 0.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from dataclasses import dataclass, field


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _batch_rows(args, kwargs, out):
    return _arg(args, kwargs, 1, "batch").size, 0


def _update_rows(args, kwargs, out):
    # rows written, rows copied (the whole memory is copied on every call)
    return len(_arg(args, kwargs, 1, "indices")), _arg(args, kwargs, 0, "mem").n


def _rows_built(args, kwargs, out):
    train, test = out
    return train.n + test.n, 0


def _trace_rows(args, kwargs, out):
    n = _arg(args, kwargs, 1, "batch").size
    # N/chunk blocks, each two mean gradients over N rows per perturbed theta
    return n, 2 * n * n


def _shuffled(args, kwargs, out):
    return len(_arg(args, kwargs, 1, "items")), 0


def _sampled(args, kwargs, out):
    return _arg(args, kwargs, 2, "m"), 0


def _trials(args, kwargs, out):
    return _arg(args, kwargs, 4, "trials"), 0


# (owner, attribute, span name, counter). An owner "module:Name" is a class
# or dict inside the module. One span name may be hooked at several owners,
# because the same function is resolved through each caller's globals.
HOOKS = [
    ("oscisel.cli", "main", "cli.main", None),
    ("oscisel.cli", "load_config", "config.load", None),
    ("oscisel.cli", "run_training", "trainer.run_training", None),
    ("oscisel.cli", "build_datasets", "data.build", _rows_built),
    ("oscisel.cli", "build_model", "trainer.build_model", None),
    ("oscisel.cli", "estimate_r", "regprobe.estimate_r", None),
    ("oscisel.cli", "verify_one_step_expansion", "regprobe.verify", _trials),
    ("oscisel.trainer", "run_training", "trainer.run_training", None),
    ("oscisel.trainer", "build_datasets", "data.build", _rows_built),
    ("oscisel.trainer", "build_model", "trainer.build_model", None),
    ("oscisel.trainer", "make_trajectory", "schedule.make_trajectory", None),
    ("oscisel.trainer", "evaluate", "trainer.evaluate", None),
    ("oscisel.trainer", "loss_per_sample", "models.loss_per_sample", _batch_rows),
    ("oscisel.trainer", "mean_gradient", "models.mean_gradient", _batch_rows),
    ("oscisel.trainer", "update_losses", "selection.update_losses", _update_rows),
    ("oscisel.trainer", "estimate_r", "regprobe.estimate_r", None),
    ("oscisel.regprobe", "mean_loss", "models.mean_loss", _batch_rows),
    ("oscisel.regprobe", "mean_gradient", "models.mean_gradient", _batch_rows),
    ("oscisel.regprobe", "per_sample_gradients", "models.per_sample_gradients", _batch_rows),
    ("oscisel.regprobe", "hessian_vector_product", "models.hvp", _batch_rows),
    ("oscisel.regprobe", "gradient_covariance_trace_hc", "regprobe.trace_hc", _trace_rows),
    ("oscisel.regprobe", "estimate_r", "regprobe.estimate_r", None),
    ("oscisel.selection:POLICIES", "hard_mining", "selection.select", None),
    ("oscisel.selection:POLICIES", "random", "selection.select", None),
    ("oscisel.rng:PortableRNG", "shuffle", "rng.shuffle", _shuffled),
    ("oscisel.rng:PortableRNG", "sample_without_replacement", "rng.sample", _sampled),
    ("oscisel.ledger:BudgetLedger", "record_epoch", "ledger.record_epoch", None),
    ("oscisel.schedule:RatioTrajectory", "ratio_at", "schedule.ratio_at", None),
]

# Span record fields.
NAME, START, END, PARENT, COUNT, COUNT2 = range(6)


def _resolve_owner(owner: str):
    module_name, _, inner = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, inner, None) if inner else obj


def _get(owner, attr):
    if isinstance(owner, dict):
        return owner.get(attr)
    if isinstance(owner, type):
        return vars(owner).get(attr)
    return getattr(owner, attr, None)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """In-memory span recorder with hooks installed only while tracing."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []
        self.missing: list[str] = []

    def _wrap(self, fn, name, counter, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if counter is not None:
                try:
                    rec[COUNT], rec[COUNT2] = counter(args, kwargs, out)
                except (LookupError, AttributeError, TypeError, ValueError):
                    # the signature changed: the counts no longer mean anything
                    self._report_missing(hook)
            return out

        traced.__wrapped__ = fn
        return traced

    def _report_missing(self, hook: str) -> None:
        if hook not in self.missing:
            self.missing.append(hook)

    def install(self) -> None:
        for owner_name, attr, span, counter in self.hooks:
            hook = f"{owner_name}.{attr}"
            owner = _resolve_owner(owner_name)
            original = None if owner is None else _get(owner, attr)
            if original is None:
                self._report_missing(hook)
                continue
            _set(owner, attr, self._wrap(original, span, counter, hook))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            _set(owner, attr, original)
        self._installed.clear()

    def missing_spans(self) -> set[str]:
        by_hook = {f"{o}.{a}": span for o, a, span, _ in self.hooks}
        return {by_hook[h] for h in self.missing}

    def write(self, path) -> None:
        """Dump every span as [name, start, end, parent index, count, count2]."""
        with open(path, "w") as f:
            json.dump(self.spans, f)

    def roots(self) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[PARENT] == -1]


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


# the minibatch kernels, when the trainer loop calls them
_MINIBATCH = ("models.loss_per_sample", "models.mean_gradient")


@dataclass
class OpAggregate:
    """Per-span-name totals over the spans of one traced operation."""

    calls: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)
    count: dict = field(default_factory=dict)
    count2: dict = field(default_factory=dict)
    minibatch_calls: int = 0
    minibatch_rows: int = 0

    def get(self, table: str, name: str) -> float:
        return getattr(self, table).get(name, 0)


def aggregate(spans: list[list], own: list[float], first: int, last: int) -> OpAggregate:
    """Totals over spans[first:last], the spans of one operation.

    `own` holds the self time of every span in `spans`.
    """
    agg = OpAggregate()
    for i in range(first, last):
        s = spans[i]
        name = s[NAME]
        agg.calls[name] = agg.calls.get(name, 0) + 1
        agg.self_s[name] = agg.self_s.get(name, 0.0) + own[i]
        agg.count[name] = agg.count.get(name, 0) + s[COUNT]
        agg.count2[name] = agg.count2.get(name, 0) + s[COUNT2]
        parent = s[PARENT]
        if (
            name in _MINIBATCH
            and parent >= 0
            and spans[parent][NAME] == "trainer.run_training"
        ):
            agg.minibatch_calls += 1
            agg.minibatch_rows += s[COUNT]
    return agg


def _self(*names):
    return names, lambda a: sum(a.get("self_s", n) for n in names)


def _calls(name):
    return (name,), lambda a: a.get("calls", name)


def _count(name):
    return (name,), lambda a: a.get("count", name)


def _count2(name, scale=1):
    return (name,), lambda a: scale * a.get("count2", name)


def _ratio(name):
    def value(a):
        copied = a.get("count2", name)
        return a.get("count", name) / copied if copied else 0.0

    return (name,), value

# name -> (unit, (span names read, value from an OpAggregate)). Every
# span name above appears in exactly one "_s" metric, so the "_s" metrics of
# an operation sum to its traced wall time.
LAYER_METRICS = {
    "selection.update_losses_s": ("s", _self("selection.update_losses")),
    "selection.update_losses_calls": ("count", _calls("selection.update_losses")),
    # 16 bytes per row: the float64 loss and the int64 epoch stamp
    "selection.update_bytes_copied": ("bytes", _count2("selection.update_losses", 16)),
    "selection.update_useful_ratio": ("ratio", _ratio("selection.update_losses")),
    "selection.select_s": ("s", _self("selection.select")),
    "selection.select_calls": ("count", _calls("selection.select")),
    "rng.shuffle_s": ("s", _self("rng.shuffle")),
    "rng.shuffle_items": ("count", _count("rng.shuffle")),
    "rng.sample_s": ("s", _self("rng.sample")),
    "rng.sample_items": ("count", _count("rng.sample")),
    "models.loss_per_sample_s": ("s", _self("models.loss_per_sample")),
    "models.mean_gradient_s": ("s", _self("models.mean_gradient")),
    "models.minibatch_calls": ("count", (_MINIBATCH, lambda a: a.minibatch_calls)),
    "models.rows": ("count", (_MINIBATCH, lambda a: a.minibatch_rows)),
    "models.mean_loss_s": ("s", _self("models.mean_loss")),
    "models.mean_loss_calls": ("count", _calls("models.mean_loss")),
    "models.per_sample_gradients_s": ("s", _self("models.per_sample_gradients")),
    "models.hvp_s": ("s", _self("models.hvp")),
    "regprobe.trace_hc_s": ("s", _self("regprobe.trace_hc")),
    "regprobe.trace_hc_calls": ("count", _calls("regprobe.trace_hc")),
    "regprobe.trace_grad_rows": ("count", _count2("regprobe.trace_hc")),
    "regprobe.estimate_r_s": ("s", _self("regprobe.estimate_r")),
    "regprobe.verify_self_s": ("s", _self("regprobe.verify")),
    "regprobe.verify_trials": ("count", _count("regprobe.verify")),
    "trainer.self_s": ("s", _self("trainer.run_training", "trainer.build_model")),
    "trainer.evaluate_s": ("s", _self("trainer.evaluate")),
    "data.build_s": ("s", _self("data.build")),
    "data.rows": ("count", _count("data.build")),
    "ledger.record_epoch_s": ("s", _self("ledger.record_epoch")),
    "ledger.calls": ("count", _calls("ledger.record_epoch")),
    "schedule.s": ("s", _self("schedule.ratio_at", "schedule.make_trajectory")),
    "cli.self_s": ("s", _self("cli.main")),
    "config.load_s": ("s", _self("config.load")),
}


def layer_metrics(tracer: Tracer) -> tuple[dict, list[str]]:
    """Median over traced operations of each per-layer metric.

    Returns (values, withheld), where withheld names the metrics that read a
    span whose hook is missing.
    """
    roots = tracer.roots() + [len(tracer.spans)]
    own = self_times(tracer.spans)
    aggs = [aggregate(tracer.spans, own, a, b) for a, b in zip(roots, roots[1:])]
    missing = tracer.missing_spans()
    values, withheld = {}, []
    for name, (unit, (reads, fn)) in LAYER_METRICS.items():
        if missing.intersection(reads):
            withheld.append(name)
        elif aggs:
            values[name] = {
                "value": statistics.median(fn(a) for a in aggs), "unit": unit,
            }
    return values, withheld
