"""Span tracer that wraps a fixed list of kgkit's public attributes.

The tracer replaces each listed attribute with a wrapper at the place its
callers look it up (a module global such as `kgkit.query.saturate_owl`, a
module attribute reached through `kgkit.cli`'s module imports, or a method
on `Graph`), and restores the original objects on `uninstall`.  Generators
and private `_names` are never wrapped, so the engine's inner loops run
untouched.  Each wrapper records a span (name, start, end, parent span,
operation id) plus a call count and a few result sizes; spans stay in
memory until the run writes them out.

Only the traced run installs the tracer.  The untraced runs that give the
end-to-end metrics never do.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter


def _len(args, result):
    return len(result)


def _triples_of_closure(args, result):
    return len(result.graph)


def _triples_of_owl(args, result):
    return len(result[0].graph)


def _active_hinge(args, result):
    return 1 if result[0] > 0.0 else 0


def _owl_regime(args, result):
    """1 for a query answered over the OWL closure (regime is the third argument)."""
    return 1 if len(args) > 2 and args[2] == "owl" else 0


_ROWS = (("rows", _len), ("owl_regime", _owl_regime))


# (span name, object that callers look the attribute up on, attribute,
#  sizes recorded as "<span name>.<key>" from (args, result))
WRAPS: tuple[tuple[str, str, str, tuple], ...] = (
    ("cli", "kgkit.cli", "main", ()),
    ("io.parse_turtle", "kgkit.cli", "parse_turtle", (("triples", lambda a, r: len(r.graph)),)),
    ("io.parse_turtle", "kgkit.io", "parse_turtle", (("triples", lambda a, r: len(r.graph)),)),
    ("io.parse_ntriples", "kgkit.cli", "parse_ntriples", (("triples", _len),)),
    ("io.parse_ntriples", "kgkit.io", "parse_ntriples", (("triples", _len),)),
    ("io.serialize", "kgkit.cli", "serialize_ntriples", (("triples", lambda a, r: r.count("\n")),)),
    ("io.serialize", "kgkit.io", "serialize_ntriples", (("triples", lambda a, r: r.count("\n")),)),
    ("reify", "kgkit.reify", "reify_table", (("rows", lambda a, r: len(a[0])),)),
    ("graph.insert", "kgkit.graph:Graph", "insert", ()),
    ("graph.copy", "kgkit.graph:Graph", "copy", ()),
    ("graph.match", "kgkit.graph:Graph", "match", ()),
    ("graph.cardinality", "kgkit.graph:Graph", "cardinality", ()),
    ("graph.triples", "kgkit.graph:Graph", "triples", ()),
    ("graph.entities", "kgkit.graph:Graph", "entities", ()),
    ("rdfs.saturate", "kgkit.rdfs", "saturate_rdfs", (("closure_triples", _triples_of_closure),)),
    ("rdfs.saturate", "kgkit.query", "saturate_rdfs", (("closure_triples", _triples_of_closure),)),
    ("owl.saturate", "kgkit.owl", "saturate_owl", (("closure_triples", _triples_of_owl),)),
    ("owl.saturate", "kgkit.query", "saturate_owl", (("closure_triples", _triples_of_owl),)),
    ("owl.task", "kgkit.owl", "is_consistent", ()),
    ("owl.task", "kgkit.owl", "check_instance", ()),
    ("owl.task", "kgkit.owl", "retrieve_instances", ()),
    ("owl.task", "kgkit.owl", "realize", ()),
    ("owl.task", "kgkit.owl", "subsumes", ()),
    ("owl.task", "kgkit.owl", "is_satisfiable", ()),
    ("query", "kgkit.cli", "run_query", _ROWS),
    ("query", "kgkit.query", "query", _ROWS),
    ("embeddings.train_epoch", "kgkit.embeddings", "train_epoch", ()),
    ("embeddings.negative_sample", "kgkit.embeddings", "negative_sample", ()),
    ("embeddings.loss_and_gradients", "kgkit.embeddings", "loss_and_gradients", (("active", _active_hinge),)),
    ("embeddings.evaluate", "kgkit.embeddings", "evaluate", (("rankings", lambda a, r: 2 * len(a[2])),)),
    ("embeddings.model_io", "kgkit.embeddings", "save_model", ()),
    ("embeddings.model_io", "kgkit.embeddings", "load_model", ()),
)


def _resolve(target: str):
    module, _, cls = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans around the wrapped calls while installed."""

    def __init__(self, wraps=WRAPS):
        self.wraps = wraps
        # span: [name, start, end, parent index or -1, operation id, outermost of its name]
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.sizes: Counter = Counter()
        self.op: int = -1
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, target, attr, size in self.wraps:
            owner = _resolve(target)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, getattr(owner, attr), size))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn, size):
        spans, stack, active, calls, sizes = self.spans, self._stack, self._active, self.calls, self.sizes
        clock = time.perf_counter
        measures = tuple((f"{name}.{key}", fn) for key, fn in size)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, active[name] == 0]
            spans.append(span)
            stack.append(idx)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                active[name] -= 1
                stack.pop()
                calls[name] += 1
            for key, measure in measures:
                sizes[key] += measure(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- arithmetic -----------------------------------------------------

    def busy(self) -> Counter:
        """Seconds inside each span name, counting nested same-name spans once."""
        out: Counter = Counter()
        for name, start, end, _, _, outer in self.spans:
            if outer:
                out[name] += end - start
        return out

    def self_time(self) -> Counter:
        """Per name: span durations minus the time their direct children cover."""
        out: Counter = Counter()
        for name, start, end, _, _, _ in self.spans:
            out[name] += end - start
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return out

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "outermost")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metric name -> unit.  The traced run reports all of them on
# every workload; a layer a workload never reaches reads 0.
LAYER_UNITS = {
    "io.parse_turtle.s": "s",
    "io.parse_turtle.triples": "count",
    "io.parse_ntriples.s": "s",
    "io.parse_ntriples.triples": "count",
    "io.serialize.s": "s",
    "io.serialize.triples": "count",
    "reify.s": "s",
    "reify.rows": "count",
    "graph.insert.calls": "count",
    "graph.insert.s": "s",
    "graph.copy.calls": "count",
    "graph.copy.s": "s",
    "graph.match.calls": "count",
    "graph.match.s": "s",
    "graph.cardinality.calls": "count",
    "graph.cardinality.s": "s",
    "graph.triples.calls": "count",
    "graph.triples.s": "s",
    "graph.entities.calls": "count",
    "graph.entities.s": "s",
    "rdfs.saturate.calls": "count",
    "rdfs.saturate.s": "s",
    "rdfs.closure_triples": "count",
    "owl.saturate.calls": "count",
    "owl.saturate.s": "s",
    "owl.closure_triples": "count",
    "owl.saturations_per_task": "ratio",
    "owl.task.self_s": "s",
    "query.calls": "count",
    "query.s": "s",
    "query.self_s": "s",
    "query.rows": "count",
    "query.probes_per_row": "ratio",
    "embeddings.train_epoch.s": "s",
    "embeddings.negative_sample.calls": "count",
    "embeddings.negative_sample.s": "s",
    "embeddings.sampling_share": "ratio",
    "embeddings.loss_and_gradients.calls": "count",
    "embeddings.loss_and_gradients.s": "s",
    "embeddings.active_hinge_share": "ratio",
    "embeddings.evaluate.s": "s",
    "embeddings.evaluate.rankings": "count",
    "embeddings.model_io.s": "s",
    "cli.self_s": "s",
    "trace.overhead_share": "ratio",
}


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass, keyed as in LAYER_UNITS."""
    calls, sizes, busy, own = tracer.calls, tracer.sizes, tracer.busy(), tracer.self_time()
    m: dict[str, float] = {}
    for name in ("io.parse_turtle", "io.parse_ntriples", "io.serialize"):
        m[f"{name}.s"] = busy[name]
        m[f"{name}.triples"] = sizes[f"{name}.triples"]
    m["reify.s"] = busy["reify"]
    m["reify.rows"] = sizes["reify.rows"]
    for name in ("insert", "copy", "match", "cardinality", "triples", "entities"):
        m[f"graph.{name}.calls"] = calls[f"graph.{name}"]
        m[f"graph.{name}.s"] = busy[f"graph.{name}"]
    for name in ("rdfs", "owl"):
        m[f"{name}.saturate.calls"] = calls[f"{name}.saturate"]
        m[f"{name}.saturate.s"] = busy[f"{name}.saturate"]
        m[f"{name}.closure_triples"] = sizes[f"{name}.saturate.closure_triples"]
    # only tasks and owl-regime queries need the OWL closure
    m["owl.saturations_per_task"] = _ratio(calls["owl.saturate"], calls["owl.task"] + sizes["query.owl_regime"])
    m["owl.task.self_s"] = own["owl.task"]
    m["query.calls"] = calls["query"]
    m["query.s"] = busy["query"]
    m["query.self_s"] = own["query"]
    m["query.rows"] = sizes["query.rows"]
    m["query.probes_per_row"] = _ratio(calls["graph.match"], sizes["query.rows"])
    m["embeddings.train_epoch.s"] = busy["embeddings.train_epoch"]
    m["embeddings.negative_sample.calls"] = calls["embeddings.negative_sample"]
    m["embeddings.negative_sample.s"] = busy["embeddings.negative_sample"]
    m["embeddings.sampling_share"] = _ratio(busy["embeddings.negative_sample"], busy["embeddings.train_epoch"])
    m["embeddings.loss_and_gradients.calls"] = calls["embeddings.loss_and_gradients"]
    m["embeddings.loss_and_gradients.s"] = busy["embeddings.loss_and_gradients"]
    m["embeddings.active_hinge_share"] = _ratio(
        sizes["embeddings.loss_and_gradients.active"], calls["embeddings.loss_and_gradients"]
    )
    m["embeddings.evaluate.s"] = busy["embeddings.evaluate"]
    m["embeddings.evaluate.rankings"] = sizes["embeddings.evaluate.rankings"]
    m["embeddings.model_io.s"] = busy["embeddings.model_io"]
    m["cli.self_s"] = own["cli"]
    m["trace.overhead_share"] = _ratio(traced_wall, untraced_wall) - 1.0
    return m
