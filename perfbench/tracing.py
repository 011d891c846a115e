"""Span tracing for the benchmark's traced runs, applied from outside the package.

Each entry of ``SPANS`` names one public function of a graph2ts module. While
a ``Tracer`` is installed, every place that binds that function is swapped
for a wrapper that records a span (name, start, end, parent span, request id)
and, where the entry has one, a work count. Module functions are replaced in
every loaded ``graph2ts`` module that holds the same object, because
``from .optim import adam_step`` and friends make several binding sites for
one function; methods are replaced on their class. ``uninstall`` puts every
original back, so untraced runs execute the program's own objects.

A function that no longer exists is reported as missing by span name and is
otherwise skipped, so renaming or deleting a public function cannot crash a
run.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

# --- work counters: (args, kwargs, result) -> int ---------------------------


def _rows(args, kwargs, result) -> int:
    return len(result)


def _pairs_two_sets(args, kwargs, result) -> int:
    return len(args[0]) * len(args[1])


def _pairs_one_set(args, kwargs, result) -> int:
    return len(args[0]) * len(args[0])


def _transitions(args, kwargs, result) -> int:
    states = args[0]
    return len(states) * (len(states[0]) - 1)


def _values(args, kwargs, result) -> int:
    return int(getattr(args[0], "size", 0))


def _file_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[0])


@dataclass(frozen=True)
class Span:
    """One traced public function and the end-to-end metric it should move."""

    name: str  # metric prefix; starts with a letter, so ``_accel`` is ``accel``
    module: str
    attr: str  # ``func`` or ``Class.method``
    moves: str
    count_name: str | None = None
    count: Callable | None = None


_TRAIN = ("train_windows_per_s on score_n4000 (checkpoint re-trains) and cli_artifacts, "
          "a share of pipeline_s on cli_artifacts; nothing else on score_n4000")
_EVAL = ("eval_windows_per_s on score_n4000, a small share of pipeline_s on "
         "cli_artifacts")
_ARTIFACT = "pipeline_s on cli_artifacts only"

SPANS: tuple[Span, ...] = (
    Span("model.train", "graph2ts.model", "train", _TRAIN),
    Span("model.batch_objective", "graph2ts.model", "batch_objective", _TRAIN),
    Span("model.encode_ts", "graph2ts.model", "encode_ts", _TRAIN),
    Span("model.encode_graph", "graph2ts.model", "encode_graph",
         _TRAIN + "; generate_windows_per_s on score_n4000"),
    Span("model.posterior", "graph2ts.model", "posterior", _TRAIN),
    Span("model.reparameterize", "graph2ts.model", "reparameterize", _TRAIN),
    Span("model.decode", "graph2ts.model", "decode",
         _TRAIN + "; generate_windows_per_s on score_n4000"),
    Span("model.loss_align", "graph2ts.model", "loss_align", _TRAIN),
    Span("model.loss_recon", "graph2ts.model", "loss_recon", _TRAIN),
    Span("model.loss_dist", "graph2ts.model", "loss_dist", _TRAIN),
    Span("model.loss_kl", "graph2ts.model", "loss_kl", _TRAIN),
    Span("autodiff.backward", "graph2ts.autodiff", "Tape.backward", _TRAIN),
    Span("optim.adam_step", "graph2ts.optim", "adam_step", _TRAIN),
    Span("model.generate", "graph2ts.model", "Graph2TS.generate",
         "generate_windows_per_s on score_n4000 and cli_artifacts",
         "windows", _rows),
    Span("accel.min_dist_to_set", "graph2ts._accel", "min_dist_to_set", _EVAL,
         "pairs", _pairs_two_sets),
    Span("accel.nn_dist_excl_self", "graph2ts._accel", "nn_dist_excl_self", _EVAL,
         "pairs", _pairs_one_set),
    Span("accel.medoid_index", "graph2ts._accel", "medoid_index", _EVAL,
         "pairs", _pairs_one_set),
    Span("accel.transition_counts", "graph2ts._accel", "transition_counts",
         "pipeline_s on cli_artifacts (via windows_to_graphs)",
         "pairs", _transitions),
    Span("metrics.evaluate", "graph2ts.metrics", "evaluate", _EVAL),
    Span("metrics.proto_err", "graph2ts.metrics", "proto_err", _EVAL),
    Span("metrics.mdr", "graph2ts.metrics", "mdr", _EVAL),
    Span("metrics.coverage", "graph2ts.metrics", "coverage", _EVAL),
    Span("metrics.tail_stats", "graph2ts.metrics", "tail_stats", _EVAL),
    Span("quantile_graph.fit_boundaries", "graph2ts.quantile_graph",
         "fit_boundaries", _ARTIFACT, "values", _values),
    Span("quantile_graph.windows_to_graphs", "graph2ts.quantile_graph",
         "windows_to_graphs", _ARTIFACT, "windows", _rows),
    Span("fileio.write_windows", "graph2ts.fileio", "write_windows", _ARTIFACT,
         "bytes_written", _file_bytes),
    Span("fileio.read_windows", "graph2ts.fileio", "read_windows", _ARTIFACT,
         "bytes_read", _file_bytes),
    Span("fileio.write_graphs", "graph2ts.fileio", "write_graphs", _ARTIFACT,
         "bytes_written", _file_bytes),
    Span("fileio.read_graphs", "graph2ts.fileio", "read_graphs", _ARTIFACT,
         "bytes_read", _file_bytes),
    Span("fileio.save_model", "graph2ts.fileio", "save_model", _ARTIFACT,
         "bytes_written", _file_bytes),
    Span("fileio.load_model", "graph2ts.fileio", "load_model", _ARTIFACT,
         "bytes_read", _file_bytes),
    Span("dataset.load_series", "graph2ts.dataset", "load_series", _ARTIFACT),
    Span("dataset.make_windows", "graph2ts.dataset", "make_windows", _ARTIFACT),
    Span("dataset.split", "graph2ts.dataset", "split", _ARTIFACT),
    Span("cli.main", "graph2ts.cli", "main", _ARTIFACT),
    Span("cli.ingest", "graph2ts.cli", "cmd_ingest", _ARTIFACT),
    Span("cli.graph", "graph2ts.cli", "cmd_graph", _ARTIFACT),
    Span("cli.train", "graph2ts.cli", "cmd_train", _ARTIFACT),
    Span("cli.generate", "graph2ts.cli", "cmd_generate", _ARTIFACT),
    Span("cli.stats", "graph2ts.cli", "cmd_stats", _ARTIFACT),
    Span("cli.eval", "graph2ts.cli", "cmd_eval", _ARTIFACT),
)


class Tracer:
    """In-memory span recorder; spans of one workload iteration share ``request``."""

    def __init__(self):
        self.records: list[list] = []  # [name, start, end, parent index, request]
        self.counts: dict[str, int] = {}
        self.request = 0
        self.active = True
        self._stack: list[int] = []

    def wrap(self, span: Span, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.records)
            parent = self._stack[-1] if self._stack else -1
            self.records.append([span.name, time.perf_counter(), 0.0, parent, self.request])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.records[idx][2] = time.perf_counter()
                self._stack.pop()
            if span.count is not None:
                key = f"{span.name}.{span.count_name}"
                self.counts[key] = self.counts.get(key, 0) + span.count(args, kwargs, result)
            return result

        traced.__wrapped_span__ = span.name
        return traced


@dataclass
class Installation:
    patched: list  # (owner, attribute, original)
    missing: list[str]


def _graph2ts_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "graph2ts" or name.startswith("graph2ts."))]


def install(tracer: Tracer, spans: tuple[Span, ...] = SPANS) -> Installation:
    """Wrap every binding site of each span's function; never raises for a missing one."""
    patched: list = []
    missing: list[str] = []
    for span in spans:
        try:
            mod = importlib.import_module(span.module)
            if "." in span.attr:
                cls_name, attr = span.attr.split(".", 1)
                owner = getattr(mod, cls_name)
                original = owner.__dict__[attr]
            else:
                owner, attr = None, span.attr
                original = getattr(mod, attr)
        except (ImportError, AttributeError, KeyError):
            missing.append(span.name)
            continue
        if not callable(original):
            missing.append(span.name)
            continue
        wrapper = tracer.wrap(span, original)
        if owner is not None:
            patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for m in _graph2ts_modules():
            for key, value in list(vars(m).items()):
                if value is original:
                    patched.append((m, key, original))
                    setattr(m, key, wrapper)
    return Installation(patched=patched, missing=missing)


def uninstall(inst: Installation) -> None:
    for owner, attr, original in reversed(inst.patched):
        setattr(owner, attr, original)
    inst.patched.clear()


def leftover_wrappers() -> list[str]:
    """Binding sites still holding a trace wrapper (empty after ``uninstall``)."""
    found = []
    for m in _graph2ts_modules():
        for key, value in vars(m).items():
            owners = [(f"{m.__name__}.{key}", value)]
            if isinstance(value, type):
                owners += [(f"{m.__name__}.{key}.{k}", v) for k, v in vars(value).items()]
            found += [label for label, v in owners if hasattr(v, "__wrapped_span__")]
    return sorted(set(found))


# --- aggregation -------------------------------------------------------------

TAIL_PCTS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(sorted_vals: list[float], pct: float) -> float:
    """Linear-interpolated percentile of an ascending list (numpy's default rule)."""
    pos = (len(sorted_vals) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def summarize_samples(values: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    s = sorted(values)
    out = {"n": len(s), "median": percentile(s, 50.0) if s else None,
           "tail_pct": None, "tail": None}
    for pct in TAIL_PCTS:
        if len(s) * (1.0 - pct / 100.0) >= 10.0:
            out["tail_pct"] = pct
            out["tail"] = percentile(s, pct)
            break
    return out


def tail_or_max(summary: dict, values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the tail; the maximum (100) when under 20 samples."""
    if summary["tail_pct"] is not None:
        return summary["tail_pct"], summary["tail"]
    return 100.0, max(values)


def span_table(tracer: Tracer) -> dict[str, dict]:
    """Per span name: calls, total/self ms, median and tail ms of one call.

    ``tail_pct`` is 100 (the maximum) for spans with fewer than 20 calls."""
    recs = tracer.records
    child_ms = [0.0] * len(recs)
    for name, start, end, parent, _ in recs:
        if parent >= 0:
            child_ms[parent] += (end - start) * 1e3
    table: dict[str, dict] = {}
    for i, (name, start, end, _, _) in enumerate(recs):
        dur = (end - start) * 1e3
        row = table.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "_d": []})
        row["calls"] += 1
        row["total_ms"] += dur
        row["self_ms"] += dur - child_ms[i]
        row["_d"].append(dur)
    for row in table.values():
        durations = row.pop("_d")
        stats = summarize_samples(durations)
        row["median_ms"] = stats["median"]
        row["tail_pct"], row["tail_ms"] = tail_or_max(stats, durations)
    return table


def steps_under(tracer: Tracer, ancestor: str, name: str) -> int:
    """Number of ``name`` spans that have an ``ancestor`` span above them."""
    recs = tracer.records
    n = 0
    for rec in recs:
        if rec[0] != name:
            continue
        p = rec[3]
        while p >= 0 and recs[p][0] != ancestor:
            p = recs[p][3]
        n += p >= 0
    return n


# --- per-layer metrics ---------------------------------------------------------

# spans whose per-call distribution is worth a median and a tail
TAILED = (
    "autodiff.backward", "optim.adam_step", "model.batch_objective", "model.generate",
    "metrics.evaluate", "accel.min_dist_to_set", "accel.nn_dist_excl_self",
    "accel.medoid_index", "accel.transition_counts",
)
# Totals and counts are per traced pass (the number of passes that fit in the
# budget is not a property of the program); medians and tails are per call.
WORK_COUNTS = (
    ("model.generate.windows", "count/pass", "higher"),
    ("accel.min_dist_to_set.pairs", "count/pass", "lower"),
    ("accel.nn_dist_excl_self.pairs", "count/pass", "lower"),
    ("accel.medoid_index.pairs", "count/pass", "lower"),
    ("accel.transition_counts.pairs", "count/pass", "lower"),
    ("quantile_graph.fit_boundaries.values", "count/pass", "lower"),
    ("quantile_graph.windows_to_graphs.windows", "count/pass", "higher"),
    ("fileio.bytes_written", "bytes/pass", "lower"),
    ("fileio.bytes_read", "bytes/pass", "lower"),
)
DERIVED = (
    ("model.train_self.per_step_ms", "ms", "lower"),
    ("model.train_self.ms", "ms/pass", "lower"),
    ("model.train.child_share", "ratio", "higher"),
    ("model.batch_objective.self_ms", "ms/pass", "lower"),
    ("model.generate.self_ms", "ms/pass", "lower"),
    ("metrics.evaluate_self.ms", "ms/pass", "lower"),
    ("cli.self.ms", "ms/pass", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.missing_spans", "count", "lower"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = []
    for span in SPANS:
        spec.append((f"{span.name}.calls", "count/pass", "lower"))
        spec.append((f"{span.name}.ms", "ms/pass", "lower"))
    for name in TAILED:
        spec.append((f"{name}.p50_ms", "ms", "lower"))
        spec.append((f"{name}.tail_ms", "ms", "lower"))
    return spec + list(WORK_COUNTS) + list(DERIVED)


def _owner_span(metric: str) -> str | None:
    for span in SPANS:
        if metric.startswith(span.name + ".") or metric == span.name:
            return span.name
    return None


def per_layer_metrics(tracer: Tracer, missing: list[str], overhead_ratio: float) -> dict:
    """Per-layer values from the recorded spans, totals divided by the number of
    traced passes (distinct ``request`` ids). Metrics of a missing span are left
    out (and named in ``missing``); spans the workload never reached read 0."""
    table = span_table(tracer)
    passes = max(1, len({rec[4] for rec in tracer.records}))
    empty = {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "median_ms": 0.0, "tail_ms": 0.0}

    def row(name: str) -> dict:
        return table.get(name, empty)

    train = row("model.train")
    steps = steps_under(tracer, "model.train", "autodiff.backward")
    values = {
        "model.train_self.per_step_ms": train["self_ms"] / steps if steps else 0.0,
        "model.train_self.ms": train["self_ms"],
        "model.train.child_share":
            1.0 - train["self_ms"] / train["total_ms"] if train["total_ms"] else 0.0,
        "model.batch_objective.self_ms": row("model.batch_objective")["self_ms"],
        "model.generate.self_ms": row("model.generate")["self_ms"],
        "metrics.evaluate_self.ms": row("metrics.evaluate")["self_ms"],
        "cli.self.ms": sum(r["self_ms"] for n, r in table.items() if n.startswith("cli.")),
        "trace.overhead_ratio": overhead_ratio,
        "trace.missing_spans": len(missing),
        "fileio.bytes_written": sum(v for k, v in tracer.counts.items()
                                    if k.endswith(".bytes_written")),
        "fileio.bytes_read": sum(v for k, v in tracer.counts.items()
                                 if k.endswith(".bytes_read")),
    }
    for span in SPANS:
        values[f"{span.name}.calls"] = row(span.name)["calls"]
        values[f"{span.name}.ms"] = row(span.name)["total_ms"]
    for name in TAILED:
        values[f"{name}.p50_ms"] = row(name)["median_ms"]
        values[f"{name}.tail_ms"] = row(name)["tail_ms"]
    for name, _, _ in WORK_COUNTS:
        values.setdefault(name, tracer.counts.get(name, 0))

    out = {}
    for name, unit, _ in per_layer_spec():
        if _owner_span(name) in missing:
            continue
        value = values[name] / passes if unit.endswith("/pass") else values[name]
        out[name] = {"value": value, "unit": unit}
    return out
