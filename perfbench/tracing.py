"""Span recording around groupshap's public calls, and the per-layer metrics.

The tracer never edits the package: for the length of one CLI command it
replaces the public names that other modules look up (``cli.train_gbm``,
``experiments.generate``, ``shapley.value_function`` ...) with wrappers that
record a span, then puts the originals back. Spans are kept in memory; the
benchmark writes them out when it ends.

Recording is thread-safe because ``simulate`` runs grid cells on a thread
pool. A span opened on a pool thread with no open span of its own takes the
innermost open span of the thread that created the tracer as its parent, so
the grid's per-replication spans hang under ``experiments.run_size_grid``.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import threading
import time
from collections import defaultdict
from typing import NamedTuple

from groupshap import cli, experiments, inference, shapley, tree


class Span(NamedTuple):
    id: int
    name: str
    parent: int | None
    start: float
    end: float
    thread: int
    info: object


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._owner = threading.get_ident()
        self._next_id = 0
        self._spans: list[Span] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args=(), kwargs=None, info=None):
        """Run fn(*args, **kwargs) inside a span; info(result) is stored on it."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._owner_stack[-1] if self._owner_stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack.append(span_id)
        done = False
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
            done = True
        finally:
            end = time.perf_counter()
            stack.pop()
            extra = info(result) if done and info is not None else None
            with self._lock:
                self._spans.append(
                    Span(span_id, name, parent, start, end, threading.get_ident(), extra)
                )
        return result

    def wrap(self, name, fn, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, info)

        return traced

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        with self._lock:
            spans, self._spans = self._spans, []
        return spans

    @contextlib.contextmanager
    def installed(self):
        """Swap the traced names in for the duration of the block."""
        saved = []
        try:
            for owner, attr, replacement in self._patches():
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _patches(self):
        w = self.wrap
        tests = experiments.run_tests_from_moments

        def tests_one_by_one(m, alpha, names):
            # one span per test, so wald, cq and gs get their own self time
            out = []
            for t in names:
                out.extend(self.call(f"inference.{t}", tests, (m, alpha, [t]), info=_test_info))
            return out

        return [
            (cli, "run_size_grid", w("experiments.run_size_grid", cli.run_size_grid)),
            (cli, "emit_tables", w("experiments.emit_tables", cli.emit_tables)),
            (experiments, "generate", w("simgen.generate", experiments.generate)),
            (experiments, "moments", w("inference.moments", experiments.moments, _moments_flops)),
            (experiments, "run_tests_from_moments", tests_one_by_one),
            (cli, "group_joint_test", w("inference.group_joint_test", cli.group_joint_test)),
            (cli, "train_gbm", w("tree.train_gbm", cli.train_gbm, _node_count)),
            (tree.TreeEnsemble, "predict_many",
             w("tree.predict_many", tree.TreeEnsemble.predict_many)),
            (cli, "save_model", w("tree.save_model", cli.save_model)),
            (cli, "load_model", w("tree.load_model", cli.load_model)),
            (cli, "read_csv_dataset", w("tree.read_csv_dataset", cli.read_csv_dataset)),
            (cli, "tree_group_shap", w("shapley.tree_group_shap", cli.tree_group_shap)),
            (shapley.ShapMatrix, "to_csv", w("shapley.ShapMatrix.to_csv", shapley.ShapMatrix.to_csv)),
            (cli, "read_shap_csv", w("shapley.read_shap_csv", cli.read_shap_csv)),
            (cli, "exact_group_shapley",
             w("shapley.exact_group_shapley", cli.exact_group_shapley)),
            (shapley, "value_function", w("shapley.value_function", shapley.value_function)),
        ]


def _moments_flops(m: inference.SampleMoments) -> int:
    """Floating-point operations of one moments pass, computed from its shape.

    Centering and the diagonal cost 4SK; the Gram or covariance product
    (smaller side m, larger side n) costs 2 m^2 n and its square 2 m^3.
    """
    small, large = sorted((m.S, m.K))
    return 4 * m.S * m.K + 2 * small * small * large + 2 * small**3


def _node_count(model: tree.TreeEnsemble) -> int:
    return sum(t.n_nodes for t in model.trees)


def _test_info(reports):
    (rep,) = reports
    if rep.degenerate is not None:
        return "degenerate"
    if rep.test == "gs":
        return (rep.details.get("n_screened", 0) > 0, rep.approx.normal_fallback)
    return None


# --------------------------------------------------------------------------
# per-layer metrics

CLI_COMMANDS = ("simulate", "train", "explain", "test")
SELF_TIMED = (
    "experiments.run_size_grid",
    "experiments.emit_tables",
    "simgen.generate",
    "inference.moments",
    "inference.wald",
    "inference.cq",
    "inference.gs",
    "inference.group_joint_test",
    "tree.train_gbm",
    "tree.predict_many",
    "tree.save_model",
    "tree.load_model",
    "tree.read_csv_dataset",
    "shapley.tree_group_shap",
    "shapley.ShapMatrix.to_csv",
    "shapley.read_shap_csv",
    "shapley.exact_group_shapley",
    "shapley.value_function",
)
COUNTED = ("simgen.generate", "inference.moments", "shapley.value_function")

# name -> unit, in report order; the names are the per_layer list of BENCHMARK.json
LAYER_UNITS = {f"cli.{c}.wall_s": "s" for c in CLI_COMMANDS}
LAYER_UNITS.update({f"{n}.self_s": "s" for n in SELF_TIMED})
LAYER_UNITS.update({f"{n}.calls": "count" for n in COUNTED})
LAYER_UNITS.update(
    {
        "inference.moments.flops_computed": "flop",
        "inference.wald.degenerate_frac": "ratio",
        "inference.gs.screen_fire_frac": "ratio",
        "inference.gs.normal_fallback_frac": "ratio",
        "tree.train_gbm.nodes": "count",
        "shapley.exact_group_shapley.row_ms_p50": "ms",
        "shapley.exact_group_shapley.row_ms_p90": "ms",
    }
)

# exact counts: equal on every run with the same seed
EXACT_COUNTS = (
    "simgen.generate.calls",
    "inference.moments.calls",
    "inference.moments.flops_computed",
    "shapley.value_function.calls",
    "tree.train_gbm.nodes",
    "inference.wald.degenerate_frac",
    "inference.gs.screen_fire_frac",
    "inference.gs.normal_fallback_frac",
)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[str, float]:
    """Summed self time per span name: duration minus what its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        kids = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.id, ())]
        out[s.name] += (s.end - s.start) - _covered([k for k in kids if k[0] < k[1]])
    return out


def _frac(hits: int, calls: int) -> float:
    return hits / calls if calls else 0.0


def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one iteration's spans; absent layers read 0."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    out = {name: 0.0 for name in LAYER_UNITS}
    for c in CLI_COMMANDS:
        out[f"cli.{c}.wall_s"] = sum(s.end - s.start for s in by_name[f"cli.{c}"])
    for n in SELF_TIMED:
        out[f"{n}.self_s"] = selfs.get(n, 0.0)
    for n in COUNTED:
        out[f"{n}.calls"] = len(by_name[n])
    out["inference.moments.flops_computed"] = sum(s.info for s in by_name["inference.moments"])
    wald = by_name["inference.wald"]
    out["inference.wald.degenerate_frac"] = _frac(
        sum(s.info == "degenerate" for s in wald), len(wald)
    )
    gs = by_name["inference.gs"]
    fitted = [s.info for s in gs if isinstance(s.info, tuple)]
    out["inference.gs.screen_fire_frac"] = _frac(sum(f[0] for f in fitted), len(gs))
    out["inference.gs.normal_fallback_frac"] = _frac(sum(f[1] for f in fitted), len(gs))
    out["tree.train_gbm.nodes"] = sum(s.info for s in by_name["tree.train_gbm"])
    rows_ms = [1e3 * (s.end - s.start) for s in by_name["shapley.exact_group_shapley"]]
    out["shapley.exact_group_shapley.row_ms_p50"] = _quantile(rows_ms, 0.5)
    out["shapley.exact_group_shapley.row_ms_p90"] = _quantile(rows_ms, 0.9)
    return out
