"""Per-layer metrics of a traced session, named after vropt's modules.

Times are means per call, so they do not depend on how many cycles fit in
the measuring time. Counts and solver times are per lineup of the five
bench configs: for each config the mean over its runs (every run of a
config and lineup seed does the same work, so counts repeat exactly),
summed over the configs. The reference's gradient-descent iterations are
counted per reference solve.
solvers.passes_to_tol is the median over the tta replicas.
"""

from __future__ import annotations

import statistics

CONFIG_IDS = ("sgd", "svrg_u", "sarah_u", "bb_svrg_w", "bb_sarah_w")

PER_LAYER = [
    ("dataset.parse_s", "s"),
    ("dataset.parse_mb_per_s", "MB/s"),
    ("dataset.serialize_s", "s"),
    ("dataset.normalize_s", "s"),
    ("problems.build_s", "s"),
    ("problems.grad_component_calls", "count"),
    ("problems.grad_component_us", "us"),
    ("problems.full_grad_calls.charged", "count"),
    ("problems.full_grad_calls.eval", "count"),
    ("problems.full_grad_ms", "ms"),
    ("problems.value_calls", "count"),
    ("averaging.weights_calls", "count"),
    ("averaging.weights_us", "us"),
    ("averaging.sample_us", "us"),
    ("solvers.run_s", "s"),
    ("solvers.child_s", "s"),
    ("solvers.self_s", "s"),
    ("solvers.inner_steps", "count"),
    ("solvers.self_us_per_step", "us/step"),
    ("solvers.eval_share", "ratio"),
    ("solvers.passes_to_tol", "passes"),
    *[(f"solvers.us_per_ifo.{c}", "us/IFO") for c in CONFIG_IDS],
    *[(f"solvers.budget_overshoot.{c}", "ratio") for c in CONFIG_IDS],
    ("harness.problem_key_s", "s"),
    ("harness.reference_s", "s"),
    ("harness.reference_full_grads", "count"),
    ("harness.cache_read_s", "s"),
    ("harness.trace_csv_s", "s"),
    ("harness.rate_csv_s", "s"),
    ("rates.closed_us_per_row", "us"),
    ("rates.series_us_per_row", "us"),
    ("svgplot.write_s", "s"),
    ("cli.self_s.reference", "s"),
    ("cli.self_s.bench", "s"),
    ("trace.overhead_ratio", "ratio"),
]


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else None


def inner_steps(trace, algorithm: str) -> int:
    """Stochastic inner steps of a run, from the trace's sampled M_s."""
    loops = trace.points[1:]
    if algorithm == "svrg":
        return sum(p.snapshot_index for p in loops)
    if algorithm == "sarah":
        return sum(max(p.snapshot_index - 1, 0) for p in loops)
    return trace.n * len(loops)


def layer_metrics(tracer, session, overhead_ratio: float) -> dict:
    t = tracer
    values = {}

    def span_mean(name, attr="duration"):
        return _mean(getattr(s, attr) for s in t.named(name))

    def leaf_mean_us(name):
        calls, seconds = t.leaf_total(name)
        return 1e6 * seconds / calls if calls else None

    # "<config_id>.<lineup seed index>" of every run the session made
    keys_of = {cid: [k for k in session.lineup_ifo
                     if k.rsplit(".", 1)[0] == cid] for cid in CONFIG_IDS}

    def per_lineup(per_key):
        """Sum over the configs of the mean over their runs."""
        return sum(_mean(per_key(k, len(session.samples[f"lineup_s.{k}"]))
                         for k in keys_of[cid]) for cid in CONFIG_IDS)

    def leaf_calls(name):
        return per_lineup(lambda key, reps: t.leaf_total(
            name, op=f"lineup.{key}")[0] / reps)

    parses = t.named("dataset.parse")
    values["dataset.parse_s"] = span_mean("dataset.parse")
    values["dataset.parse_mb_per_s"] = (
        sum(s.attrs["bytes"] for s in parses) / 1e6
        / sum(s.duration for s in parses))
    values["dataset.serialize_s"] = span_mean("dataset.serialize")
    values["dataset.normalize_s"] = span_mean("dataset.normalize")

    values["problems.build_s"] = span_mean("problems.build")
    values["problems.grad_component_calls"] = \
        leaf_calls("problems.grad_component")
    values["problems.grad_component_us"] = \
        leaf_mean_us("problems.grad_component")
    values["problems.full_grad_calls.charged"] = \
        leaf_calls("problems.full_grad.charged")
    values["problems.full_grad_calls.eval"] = \
        leaf_calls("problems.full_grad.eval")
    charged = t.leaf_total("problems.full_grad.charged")
    evals = t.leaf_total("problems.full_grad.eval")
    values["problems.full_grad_ms"] = \
        1e3 * (charged[1] + evals[1]) / (charged[0] + evals[0])
    values["problems.value_calls"] = leaf_calls("problems.value")

    values["averaging.weights_calls"] = leaf_calls("averaging.weights")
    values["averaging.weights_us"] = leaf_mean_us("averaging.weights")
    values["averaging.sample_us"] = leaf_mean_us("averaging.sample")

    def run_sum(of_span):
        return per_lineup(lambda key, reps: sum(
            of_span(s) for s in t.named("solvers.run", op=f"lineup.{key}"))
            / reps)

    def eval_seconds(key, reps):
        op = f"lineup.{key}"
        return (t.leaf_total("problems.full_grad.eval", op=op,
                             within="solvers.run")[1]
                + t.leaf_total("problems.value", op=op,
                               within="solvers.run")[1]) / reps

    run_s = run_sum(lambda s: s.duration)
    child_s = run_sum(lambda s: s.child_s)
    steps = run_sum(lambda s: inner_steps(
        s.attrs["trace"], session.algorithms[s.attrs["config_id"]]))
    eval_s = per_lineup(eval_seconds)
    for cid in CONFIG_IDS:
        runs = [s for s in t.spans if s.name == "solvers.run"
                and s.op.startswith("lineup.")
                and s.attrs["config_id"] == cid]
        values[f"solvers.us_per_ifo.{cid}"] = _mean(
            1e6 * s.duration / s.attrs["ifo_total"] for s in runs)
        values[f"solvers.budget_overshoot.{cid}"] = _mean(
            s.attrs["ifo_total"] / s.attrs["budget"] for s in runs)
    values["solvers.run_s"] = run_s
    values["solvers.child_s"] = child_s
    values["solvers.self_s"] = run_s - child_s
    values["solvers.inner_steps"] = steps
    values["solvers.self_us_per_step"] = 1e6 * (run_s - child_s) / steps
    values["solvers.eval_share"] = eval_s / run_s
    values["solvers.passes_to_tol"] = statistics.median(
        session.samples["passes_to_tol"])

    solves = t.named("harness.compute_reference")
    values["harness.problem_key_s"] = span_mean("harness.problem_key")
    values["harness.reference_s"] = span_mean("harness.compute_reference")
    values["harness.reference_full_grads"] = t.leaf_total(
        "problems.full_grad.eval", within="harness.compute_reference")[0] \
        / len(solves)
    solved_in = {id(s.parent) for s in solves}
    values["harness.cache_read_s"] = _mean(
        s.self_s for s in t.named("harness.cached_reference")
        if id(s) not in solved_in)
    values["harness.trace_csv_s"] = span_mean("harness.format_trace_csv")
    values["harness.rate_csv_s"] = span_mean("harness.format_rate_csv")

    values["rates.closed_us_per_row"] = leaf_mean_us("rates.closed")
    values["rates.series_us_per_row"] = leaf_mean_us("rates.series")
    values["svgplot.write_s"] = span_mean("svgplot.write")
    values["cli.self_s.reference"] = span_mean("cli.reference",
                                               attr="self_s")
    values["cli.self_s.bench"] = span_mean("cli.bench", attr="self_s")
    values["trace.overhead_ratio"] = overhead_ratio
    return {name: (values[name], unit) for name, unit in PER_LAYER}
