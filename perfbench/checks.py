"""Correctness checks the benchmark applies to every output it times.

Each check returns a list of problems found (empty when the output is
correct), so a caller can count a failed operation and say why.
"""

from __future__ import annotations

import math

import vropt


def ifo_identity(trace, algorithm: str) -> list[str]:
    """Each outer loop charges exactly its work: n for the snapshot (or the
    SGD epoch) plus 2 per recursive or corrected inner step."""
    errors = []
    n = trace.n
    for prev, point in zip(trace.points, trace.points[1:]):
        spent = point.ifo_total - prev.ifo_total
        steps = point.snapshot_index
        if algorithm == "svrg":
            expected = n + 2 * steps
        elif algorithm == "sarah":
            expected = n + 2 * max(steps - 1, 0)
        else:
            expected = n
        if spent != expected:
            errors.append(f"{trace.config_id} loop {point.s}: charged {spent} "
                          f"IFO, expected {expected}")
    return errors


def budget_respected(trace, budget: int) -> list[str]:
    """The last outer loop started below the budget (runs stop between
    loops, so only the final loop may cross it)."""
    if len(trace.points) < 2:
        return [f"{trace.config_id}: no outer loop ran"]
    started_at = trace.points[-2].ifo_total
    if started_at >= budget:
        return [f"{trace.config_id}: last loop started at {started_at} IFO, "
                f"budget {budget}"]
    return []


def gaps_nonnegative(trace) -> list[str]:
    return [f"{trace.config_id} loop {p.s}: gap {p.gap!r} below -1e-12"
            for p in trace.points if p.gap is not None and p.gap < -1e-12]


def progressed(trace) -> list[str]:
    """The run ends with a smaller gradient than it started with."""
    first, last = trace.points[0].grad_sq, trace.points[-1].grad_sq
    if not last < first:
        return [f"{trace.config_id}: grad_sq went from {first!r} to {last!r}"]
    return []


def reference_converged(ref, tol: float = 1e-10) -> list[str]:
    if not ref.grad_norm <= tol:
        return [f"reference grad_norm {ref.grad_norm!r} above {tol!r}"]
    return []


def csv_round_trip(text: str) -> list[str]:
    """The trace CSV parses back to traces that render to the same text."""
    try:
        again = vropt.format_trace_csv(vropt.load_trace_csv(text))
    except ValueError as exc:
        return [f"trace CSV does not load: {exc}"]
    if again != text:
        return ["trace CSV changes after load_trace_csv and format_trace_csv"]
    return []


def lineup(traces, algorithms: dict[str, str], budget: int) -> list[str]:
    """Every check that applies to one equal-budget lineup."""
    errors = []
    for trace in traces:
        errors += ifo_identity(trace, algorithms[trace.config_id])
        errors += budget_respected(trace, budget)
        errors += gaps_nonnegative(trace)
        errors += progressed(trace)
    errors += csv_round_trip(vropt.format_trace_csv(traces))
    return errors


def same_bytes(label: str, first, again) -> list[str]:
    if first != again:
        return [f"{label} differs from its first run"]
    return []


def rate_rows(rows) -> list[str]:
    """Every rate value is a finite float or None, never NaN or inf."""
    return [f"rate {row.scheme} at x={row.x!r} is {row.value!r}"
            for row in rows
            if row.value is not None and not math.isfinite(row.value)]
