"""Span recorder and per-layer metrics for the traced run.

Tracing wraps the public functions of each program module at the module
attributes through which callers reach them (for example
spanwalk.series.iter_closed_walk_counts, which series imported from exact).
Nothing in the program changes.  Each call records a span (name, start, end,
parent, op id); a generator such as iter_closed_walk_counts records one span
per value it produces.  Spans stay in memory and are written when the run
ends.  A layer's self time is the duration of its spans minus the part their
direct children cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("graph", "exact", "series", "bounds", "families", "synchrony", "cli")
SETUP_OP = -1  # op id of spans recorded while generating inputs

START, END = 1, 2  # a span is [name, start, end, parent index, op id]


class Recorder:
    """In-memory spans plus the counters recorded at layer boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = SETUP_OP
        self.counts: Counter = Counter()
        self.durations: Counter = Counter()
        self.walk_graphs: set = set()
        self.precision_max = 0

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        if self.stack and self.stack[-1] == idx:
            self.stack.pop()

    def close_from(self, first: int, depth: int) -> None:
        """Close every span opened since index `first` and drop the stack to `depth`.

        A deadline can interrupt a wrapper between its bookkeeping steps; this
        restores a consistent tree after each op.
        """
        now = time.perf_counter()
        for span in self.spans[first:]:
            if span[END] is None:
                span[END] = now
        del self.stack[depth:]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")


# ---------------------------------------------------------------- boundary counters


def _on_identify(rec, args, kwargs, result, dur):
    rec.counts["series.terms_used"] += result.terms_used
    rec.precision_max = max(rec.precision_max, result.precision_bits)
    requested = args[1] if len(args) > 1 else kwargs.get("precision_bits")
    if result.precision_bits > max(requested or 64, 64):
        rec.counts["series.escalated_ops"] += 1


def _on_bound(rec, args, kwargs, result, dur):
    rec.counts["bounds.calls"] += 1
    for report in result if isinstance(result, tuple) else (result,):
        rec.counts["bounds.reports"] += 1
        if not report.preconditions_ok:
            rec.counts["bounds.precondition_failed"] += 1


def _on_cli_run(rec, args, kwargs, result, dur):
    rec.counts["cli.calls"] += 1
    if result != 0:
        rec.counts["cli.nonzero_exits"] += 1
    out = args[1] if len(args) > 1 else kwargs.get("out")
    if hasattr(out, "getvalue"):
        rec.counts["cli.bytes_out"] += len(out.getvalue().encode("utf-8"))


def _on_synchrony(rec, args, kwargs, result, dur):
    mode = "exhaustive" if result.mode == "exhaustive" else "monte_carlo"
    rec.durations[f"synchrony.{mode}_s"] += dur
    rec.counts["synchrony.seeds_evaluated"] += result.samples


def _on_bareiss(rec, args, kwargs, result, dur):
    rec.counts["exact.bareiss_calls"] += 1


def _on_family(rec, args, kwargs, result, dur):
    rec.counts["families.graphs"] += 1


HOOKS = {
    "series.identify_complexity_report": _on_identify,
    "bounds.prop1_lower": _on_bound,
    "bounds.prop2_lower": _on_bound,
    "bounds.thm2_lower": _on_bound,
    "bounds.thm3_bounds": _on_bound,
    "cli.run": _on_cli_run,
    "synchrony.measure_synchrony": _on_synchrony,
    "exact.spanning_tree_count": _on_bareiss,
    "families.named_graph": _on_family,
    "families.g_family": _on_family,
    "families.random_regular": _on_family,
    "families.random_regular_bipartite": _on_family,
}

WALK_ENGINE = "exact.iter_closed_walk_counts"

# Unit of every per-layer metric; anything not listed is a count.
UNITS = {
    "exact.walks_s": "s",
    "exact.laplacian_traces_s": "s",
    "exact.bareiss_s": "s",
    "series.self_s": "s",
    "series.precision_bits_max": "bits",
    "bounds.self_s": "s",
    "bounds.precondition_failed_ratio": "ratio",
    "graph.parse_s": "s",
    "graph.checks_s": "s",
    "graph.complement_s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "families.generate_s": "s",
    "synchrony.exhaustive_s": "s",
    "synchrony.monte_carlo_s": "s",
    "synchrony.seeds_per_s": "1/s",
    "run.cpu_s": "s",
    "trace.overhead_s": "s",
}


def _wrap(rec: Recorder, name: str, fn):
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(idx)
        if hook is not None:
            span = rec.spans[idx]
            hook(rec, args, kwargs, result, span[END] - span[START])
        return result

    return wrapper


def _wrap_walks(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        g = args[0] if args else kwargs["g"]
        rec.counts["exact.walk_tables"] += 1
        rec.walk_graphs.add((g.n, g.edges))
        gen = fn(*args, **kwargs)
        while True:
            idx = rec.begin(name)
            try:
                value = next(gen)
            except StopIteration:
                return
            finally:
                rec.end(idx)
            rec.counts["exact.walk_terms"] += 1
            yield value

    return wrapper


def install(mods, rec: Recorder):
    """Wrap every public function of the program's layers; returns a function that undoes it."""
    wrappers = {}
    for layer in LAYERS:
        module = getattr(mods, layer)
        for attr, fn in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            wrap = _wrap_walks if inspect.isgeneratorfunction(fn) else _wrap
            wrappers[fn] = wrap(rec, name, fn)
    patched = []
    for layer in LAYERS:
        module = getattr(mods, layer)
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                patched.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    def undo():
        for module, attr, value in patched:
            setattr(module, attr, value)

    return undo


# ---------------------------------------------------------------- metrics


def span_times(rec: Recorder):
    """Per span: (name, op, duration, self time)."""
    child = defaultdict(float)
    for name, start, end, parent, op in rec.spans:
        if parent >= 0:
            child[parent] += end - start
    return [
        (name, op, end - start, end - start - child[idx])
        for idx, (name, start, end, parent, op) in enumerate(rec.spans)
    ]


def self_by_layer(times) -> dict[str, float]:
    """Self time per layer in the traced passes ("bench" is the benchmark's own spans)."""
    totals = defaultdict(float)
    for name, op, dur, self_s in times:
        if op != SETUP_OP:
            totals[name.split(".", 1)[0]] += self_s
    return dict(totals)


def op_breakdown(rec: Recorder, labels: list[str], passes: int, top: int = 10) -> list[dict]:
    """Self time per layer of the slowest ops, averaged over the traced passes."""
    by_op = defaultdict(lambda: defaultdict(float))
    for name, op, dur, self_s in span_times(rec):
        if 0 <= op < len(labels):
            by_op[op][name.split(".", 1)[0]] += self_s / passes
    wall = {op: sum(layers.values()) for op, layers in by_op.items()}
    slowest = sorted(wall, key=wall.get, reverse=True)[:top]
    return [{"op": labels[op], "wall_s": wall[op], "self_s": dict(by_op[op])} for op in slowest]


def layer_metrics(rec: Recorder, passes: int) -> dict[str, float]:
    """Per-layer metrics per traced pass, plus the input-generation metrics of one traced set-up."""
    incl = defaultdict(float)
    selfs = defaultdict(float)
    setup_incl = defaultdict(float)
    times = span_times(rec)
    for name, op, dur, self_s in times:
        if op == SETUP_OP:
            setup_incl[name] += dur
            continue
        incl[name] += dur
        selfs[name] += self_s
    layer_self = defaultdict(float, self_by_layer(times))

    def per_pass(value):
        return value / passes

    counts = rec.counts
    walk_s = incl[WALK_ENGINE] + selfs["exact.closed_walk_counts"]
    reports = counts["bounds.reports"]
    sync_s = rec.durations["synchrony.exhaustive_s"] + rec.durations["synchrony.monte_carlo_s"]
    graphs = len(rec.walk_graphs)
    return {
        "exact.walks_s": per_pass(walk_s),
        "exact.walk_terms": per_pass(counts["exact.walk_terms"]),
        "exact.walk_tables": per_pass(counts["exact.walk_tables"]),
        "exact.walk_tables_per_graph": per_pass(counts["exact.walk_tables"]) / graphs if graphs else 0.0,
        "exact.laplacian_traces_s": per_pass(incl["exact.laplacian_traces"]),
        "exact.bareiss_s": per_pass(selfs["exact.spanning_tree_count"]),
        "exact.bareiss_calls": per_pass(counts["exact.bareiss_calls"]),
        "series.self_s": per_pass(layer_self["series"]),
        "series.terms_used": per_pass(counts["series.terms_used"]),
        "series.escalated_ops": per_pass(counts["series.escalated_ops"]),
        "series.precision_bits_max": rec.precision_max,
        "bounds.self_s": per_pass(layer_self["bounds"]),
        "bounds.calls": per_pass(counts["bounds.calls"]),
        "bounds.precondition_failed_ratio": counts["bounds.precondition_failed"] / reports if reports else 0.0,
        "graph.parse_s": per_pass(incl["graph.parse_edge_list"] + incl["graph.parse_graph6"]),
        "graph.checks_s": per_pass(incl["graph.regular_degree"] + incl["graph.bipartition"]),
        "graph.complement_s": per_pass(incl["graph.complement"]),
        "cli.self_s": per_pass(layer_self["cli"]),
        "cli.calls": per_pass(counts["cli.calls"]),
        "cli.bytes_out": per_pass(counts["cli.bytes_out"]),
        "cli.nonzero_exits": per_pass(counts["cli.nonzero_exits"]),
        "families.generate_s": sum(v for k, v in setup_incl.items() if k.startswith("families.")),
        "families.graphs": counts["families.graphs"],
        "synchrony.exhaustive_s": per_pass(rec.durations["synchrony.exhaustive_s"]),
        "synchrony.monte_carlo_s": per_pass(rec.durations["synchrony.monte_carlo_s"]),
        "synchrony.seeds_evaluated": per_pass(counts["synchrony.seeds_evaluated"]),
        "synchrony.seeds_per_s": counts["synchrony.seeds_evaluated"] / sync_s if sync_s else 0.0,
    }
