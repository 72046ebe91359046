"""In-memory span recorder that wraps vropt's public calls from outside.

Nothing under src/ is edited: functions are replaced on the module namespace
the caller looks them up in, methods are wrapped on each LogisticProblem
instance, and the patches are undone on uninstall.

Two kinds of record are kept:

* spans (name, start, end, parent, time covered by children, attributes)
  for every call that may contain other traced calls;
* leaf tallies (call count and seconds, keyed by the session operation,
  the enclosing span's name and the leaf name) for the hot calls of the
  inner loop, so that a million grad_component calls cost a dict update
  each rather than a span object.

A leaf's duration is added to the enclosing span's child time, so a span's
self time (duration minus child time) is the work it does itself.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import vropt
import vropt.cli
import vropt.dataset
import vropt.harness
import vropt.rates
import vropt.solvers

_clock = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s", "op", "attrs")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.child_s = 0.0
        self.op = op
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


# (module, attribute, span name); a module may bind a name the caller looks up
_SPANNED = [
    (vropt, "parse_libsvm", "dataset.parse"),
    (vropt.cli, "parse_libsvm", "dataset.parse"),
    (vropt, "normalize_rows", "dataset.normalize"),
    (vropt.cli, "normalize_rows", "dataset.normalize"),
    (vropt.dataset, "serialize_libsvm", "dataset.serialize"),
    (vropt.harness, "serialize_libsvm", "dataset.serialize"),
    (vropt, "run", "solvers.run"),
    (vropt.harness, "run", "solvers.run"),
    (vropt, "run_experiment", "harness.run_experiment"),
    (vropt.cli, "run_experiment", "harness.run_experiment"),
    (vropt.harness, "problem_key", "harness.problem_key"),
    (vropt.harness, "compute_reference", "harness.compute_reference"),
    (vropt, "cached_reference", "harness.cached_reference"),
    (vropt.cli, "cached_reference", "harness.cached_reference"),
    (vropt.harness, "format_trace_csv", "harness.format_trace_csv"),
    (vropt.harness, "format_rate_csv", "harness.format_rate_csv"),
    (vropt.cli, "write_line_plot", "svgplot.write"),
]

_LEAVES = [
    (vropt.solvers, "weights", "averaging.weights"),
    (vropt.solvers, "sample_snapshot_index", "averaging.sample"),
]

_PROBLEM_METHODS = ("grad_component", "full_grad", "value")

# the weighted-recursive normalizer sums a series below this mu*eta*(m-1)
SERIES_THRESHOLD = 1e-3


class Tracer:
    """Records spans and leaf tallies while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.leaves = defaultdict(lambda: [0, 0.0])
        self.op = "none"
        self._stack: list[Span] = []
        self._saved = []
        self._problems = []

    # -- recording -----------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, _clock(), parent, self.op)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = _clock()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.spans.append(span)

    def leaf(self, name: str, seconds: float) -> None:
        parent = self._stack[-1] if self._stack else None
        tally = self.leaves[(self.op, parent.name if parent else None, name)]
        tally[0] += 1
        tally[1] += seconds
        if parent is not None:
            parent.child_s += seconds

    def spanned(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(span, args, kwargs, result)
                return result
            finally:
                self.close(span)
        return wrapper

    def leafed(self, name: str, fn):
        leaf = self.leaf

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                leaf(name, _clock() - t0)
        return wrapper

    # -- patching ------------------------------------------------------

    def _patch(self, owner, attr, value, mapping=False):
        if mapping:
            self._saved.append((owner, attr, owner[attr], True))
            owner[attr] = value
        else:
            self._saved.append((owner, attr, getattr(owner, attr), False))
            setattr(owner, attr, value)

    def install(self) -> None:
        for module, attr, name in _SPANNED:
            self._patch(module, attr,
                        self.spanned(name, getattr(module, attr),
                                     _ON_RESULT.get(name)))
        for module, attr, name in _LEAVES:
            self._patch(module, attr, self.leafed(name, getattr(module, attr)))
        factory = self._problem_factory(vropt.LogisticProblem)
        self._patch(vropt, "LogisticProblem", factory)
        self._patch(vropt.cli, "LogisticProblem", factory)
        rates = vropt.rates.SCHEME_RATES
        for key in list(rates):
            self._patch(rates, key, self._rate_wrapper(key, rates[key]),
                        mapping=True)
        for problem in self._problems:
            self._wrap_methods(problem)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value, mapping = self._saved.pop()
            if mapping:
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        for problem in self._problems:
            for method in _PROBLEM_METHODS:
                problem.__dict__.pop(method, None)

    def _problem_factory(self, cls):
        def factory(*args, **kwargs):
            span = self.open("problems.build")
            try:
                problem = cls(*args, **kwargs)
            finally:
                self.close(span)
            self._problems.append(problem)
            self._wrap_methods(problem)
            return problem
        return factory

    def _wrap_methods(self, problem) -> None:
        """Shadow the hot methods on this instance with tallying wrappers;
        uninstall removes the shadows again. A full gradient with a counter
        is charged work, one without is evaluation."""
        leaf = self.leaf
        full_grad = problem.full_grad

        def traced_full_grad(x, counter=None):
            t0 = _clock()
            try:
                return full_grad(x, counter)
            finally:
                leaf("problems.full_grad.charged" if counter is not None
                     else "problems.full_grad.eval", _clock() - t0)

        problem.grad_component = self.leafed("problems.grad_component",
                                             problem.grad_component)
        problem.full_grad = traced_full_grad
        problem.value = self.leafed("problems.value", problem.value)

    def _rate_wrapper(self, scheme, fn):
        leaf = self.leaf

        @functools.wraps(fn)
        def wrapper(q):
            series = (scheme == "sarah_w"
                      and q.mu * q.eta * (q.m - 1) < SERIES_THRESHOLD)
            t0 = _clock()
            try:
                return fn(q)
            finally:
                leaf("rates.series" if series else "rates.closed",
                     _clock() - t0)
        return wrapper

    # -- queries -------------------------------------------------------

    def named(self, name: str, op: str | None = None) -> list[Span]:
        return [s for s in self.spans
                if s.name == name and (op is None or s.op == op)]

    def leaf_total(self, name: str, op: str | None = None,
                   within: str | None = None) -> tuple[int, float]:
        """(calls, seconds) of a leaf, optionally restricted to one session
        operation and to calls made directly inside spans of one name."""
        calls, seconds = 0, 0.0
        for (leaf_op, parent, leaf_name), (c, t) in self.leaves.items():
            if leaf_name == name and (op is None or leaf_op == op) \
                    and (within is None or parent == within):
                calls += c
                seconds += t
        return calls, seconds


def _on_run(span, args, kwargs, trace):
    config = args[1] if len(args) > 1 else kwargs["config"]
    span.attrs["config_id"] = trace.config_id
    span.attrs["ifo_total"] = trace.final.ifo_total
    span.attrs["budget"] = config.ifo_budget
    span.attrs["trace"] = trace


def _on_parse(span, args, kwargs, dataset):
    source = args[0] if args else kwargs["source"]
    span.attrs["bytes"] = len(source) if isinstance(source, str) else 0


_ON_RESULT = {
    "solvers.run": _on_run,
    "dataset.parse": _on_parse,
}
