"""Span tracing of the package's layers, from outside the package.

``Tracer.install`` replaces each traced function at the module attribute
where its callers look it up (``multiflow.cli.build_conflict_graph`` for
the CLI, ``multiflow.mmf.build_conflict_graph`` for the library path, and
so on) with a wrapper that records a span: name, start, end, parent span
and the benchmark call it belongs to. Spans stay in memory until the run
writes them out. Wrappers also read work counters off arguments and
results, and ``_Simplex._pivot`` is wrapped with a bare counter because it
runs thousands of times per solve.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    call: int


def _graph_name(args, kwargs) -> str:
    level = kwargs.get("level", args[1] if len(args) > 1 else "link")
    return f"conflict.graph_{level}"


def _count_graph(tracer, args, kwargs, result) -> None:
    tracer.counters[f"conflict.edges_{result.level}"] += result.edge_count


def _count_catalog(tracer, args, kwargs, result) -> None:
    tracer.counters["conflict.catalog_sets"] += len(result)


def _count_lp(tracer, args, kwargs, result) -> None:
    program = args[0]
    tracer.counters["lp.calls"] += 1
    tracer.counters["mmf.lp_rows"] += len(program.rows)
    tracer.counters["mmf.lp_cols"] += program.num_vars


def _count_network(tracer, args, kwargs, result) -> None:
    tracer.counters["model.links"] += result.link_count
    tracer.counters["model.hyperarcs"] += result.hyperarc_count


def _count_rounds(tracer, args, kwargs, result) -> None:
    tracer.counters["cfs.rounds"] += len(result.entries)


# (module, attribute, span name or a function of the call's arguments, counter hook)
TARGETS = [
    ("multiflow.cli", "main", "cli.main", None),
    ("multiflow.cli", "cmd_solve", "cli.cmd", None),
    ("multiflow.cli", "cmd_compare", "cli.cmd", None),
    ("multiflow.cli", "cmd_inspect", "cli.cmd", None),
    ("multiflow.cli", "cmd_schedule", "cli.cmd", None),
    ("multiflow.cli", "render_json", "cli.render", None),
    ("multiflow.cli", "load_instance", "instance.load", None),
    ("multiflow.cli", "load_demand", "instance.load", None),
    ("multiflow.instance", "load_instance", "instance.load", None),
    ("multiflow.instance", "build_network", "model.build_network", _count_network),
    ("multiflow.cli", "build_conflict_graph", _graph_name, _count_graph),
    ("multiflow.mmf", "build_conflict_graph", _graph_name, _count_graph),
    ("multiflow.cli", "closed_neighborhoods", "conflict.neighborhoods", None),
    ("multiflow.cli", "enumerate_schedulable_sets", "conflict.enumerate", _count_catalog),
    ("multiflow.mmf", "enumerate_schedulable_sets", "conflict.enumerate", _count_catalog),
    ("multiflow.cli", "inductive_schedulable_number", "conflict.isn", None),
    ("multiflow.cli", "solve_mmf", "mmf.solve", None),
    ("multiflow.mmf", "solve_mmf", "mmf.solve", None),
    ("multiflow.cli", "optimal_fractional_schedule", "mmf.solve", None),
    ("multiflow.mmf", "solve_lp", "lp.solve", _count_lp),
    ("multiflow.lp", "_exact_certificate", "lp.certificate", None),
    ("multiflow.cli", "cfs_schedule", "cfs.schedule", _count_rounds),
    ("multiflow.cli", "cfs_length_bound", "cfs.bound", None),
]


class Tracer:
    """Records spans and counters while installed; ``uninstall`` restores the package."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.call = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, hook):
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = Span(label, time.perf_counter(), 0.0, parent, self.call)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._saved.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        for module_name, attribute, name, hook in TARGETS:
            module = importlib.import_module(module_name)
            self._patch(module, attribute, self._wrap(getattr(module, attribute), name, hook))
        simplex = importlib.import_module("multiflow.lp")._Simplex
        pivot = simplex._pivot
        counters = self.counters

        def counted_pivot(sx, row, col):
            counters["lp.pivots"] += 1
            return pivot(sx, row, col)

        self._patch(simplex, "_pivot", counted_pivot)

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def times(self) -> tuple[Counter, Counter]:
        """Total and self seconds per span name."""
        total: Counter = Counter()
        child: Counter = Counter()
        for span in self.spans:
            duration = span.end - span.start
            total[span.name] += duration
            if span.parent is not None:
                child[self.spans[span.parent].name] += duration
        own = Counter({name: total[name] - child[name] for name in total})
        return total, own

    def dump(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.call] for s in self.spans]
