"""Spans and call counters around chemin's public functions, from outside.

``from .banker import f`` copies the binding of ``f`` into the importing
module, so a wrapper is bound under every name in every ``chemin.*``
module (and in the ``chemin`` package itself) that is bound to the
original function, and the original is bound again afterwards.

Spans are kept in memory as ``(name, start_ns, end_ns, parent, op)``
tuples, ``parent`` being the index of the enclosing span (-1 for none).
Their clock is the process's CPU time, as for the ops in ``run.py``.
A span's self time is its duration minus the durations of its direct
children; spans nest, since every op runs on one thread.

Functions called in inner loops (card pmfs, the simulator's draws, the
per-statistic walks of ``five``) get counters only: a span per call would
cost more than the call.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

#: Span name -> (module, function) pairs timed under that name.
SPANS = {
    "banker.cell_ev": [("chemin.banker", "banker_stand_ev"), ("chemin.banker", "banker_draw_ev")],
    "banker.mixed_best_response": [("chemin.banker", "mixed_best_response")],
    "banker.best_response_table": [("chemin.banker", "best_response_table")],
    "banker.dormoy_unweighted_response": [("chemin.banker", "dormoy_unweighted_response")],
    "banker.historical_table": [("chemin.banker", "historical_table")],
    "five.five_stats": [("chemin.five", "five_stats")],
    "five.bertrand_report": [("chemin.five", "bertrand_report")],
    "coup.coup_stats": [("chemin.coup", "coup_stats")],
    "coup.solve_2x2": [("chemin.coup", "solve_2x2")],
    "coup.bar_matrix": [("chemin.coup", "bar_matrix")],
    "coup.five_matrix": [("chemin.coup", "five_matrix")],
    "simulate.simulate": [("chemin.simulate", "simulate")],
    "report.render": [("chemin.rational", "render_decimal"), ("chemin.rational", "render_exact")],
}

#: Counter name -> (module, function) pairs counted, never timed.
COUNTERS = {
    "cards.pdf": [("chemin.cards", "two_card_pdf"), ("chemin.cards", "third_card_pdf")],
    "five.five_functional": [("chemin.five", "five_functional")],
    "simulate.draw_card_value": [("chemin.simulate", "draw_card_value")],
    "simulate.bernoulli": [("chemin.simulate", "bernoulli")],
}


def report_functions() -> list[tuple[str, str]]:
    """Every public function defined in ``chemin.report``, if it is loaded."""
    module = sys.modules.get("chemin.report")
    if module is None:
        return []
    return [
        ("chemin.report", name)
        for name, value in vars(module).items()
        if inspect.isfunction(value) and value.__module__ == module.__name__ and not name.startswith("_")
    ]


def resolve(pairs) -> list:
    """The functions named by (module, name) pairs that exist."""
    found = []
    for module_name, name in pairs:
        fn = getattr(sys.modules.get(module_name), name, None)
        if fn is not None:
            found.append(fn)
    return found


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1

    def span(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.process_time_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.process_time_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)

        return timed

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def self_ns(self) -> dict[str, int]:
        """Total self time per span name."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, int] = defaultdict(int)
        for (name, start, end, _, _), children in zip(self.spans, child_ns):
            totals[name] += end - start - children
        return totals


class Patch:
    """Binds ``wrappers[id(original)]`` wherever chemin binds the original,
    while the context is entered.  The binding sites are found once, so
    entering and leaving costs one ``setattr`` per site."""

    def __init__(self, wrappers: dict):
        self.sites = []
        for module_name, module in list(sys.modules.items()):
            if module_name != "chemin" and not module_name.startswith("chemin."):
                continue
            for attr, value in vars(module).items():
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self.sites.append((module, attr, value, wrapper))

    def __enter__(self) -> None:
        for module, attr, _, wrapper in self.sites:
            setattr(module, attr, wrapper)

    def __exit__(self, *exc) -> None:
        for module, attr, original, _ in self.sites:
            setattr(module, attr, original)


def span_wrappers(tracer: Tracer) -> dict:
    groups = {**SPANS, "report.render": SPANS["report.render"] + report_functions()}
    return {id(fn): tracer.span(name, fn) for name, pairs in groups.items() for fn in resolve(pairs)}


def counter_wrappers(tracer: Tracer) -> dict:
    groups = {**SPANS, **COUNTERS}
    return {id(fn): tracer.counter(name, fn) for name, pairs in groups.items() for fn in resolve(pairs)}
