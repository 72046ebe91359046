"""Self-test of the benchmark at tiny sizes (under a minute).

    python3 perfbench/selftest.py

Checks that a timed and a traced run of every workload print every metric
by name with its unit and end with a correct result, and that a lineup
trace whose IFO total is off by 2 is counted as a failed operation. Exits
nonzero on the first check that does not hold.
"""

import contextlib
import dataclasses
import io
import json
import sys

import run  # pins the BLAS threads and finds vropt's sources

sys.path.insert(0, str(run.SRC))

import vropt  # noqa: E402

import layers  # noqa: E402
import session  # noqa: E402

TINY = {
    "dense-lineup": dict(n=80, d=5),
    "sparse-wide": dict(n=80, d=400, nnz=5),
}


def tiny_workloads():
    return {name: dataclasses.replace(
        w, **TINY[name], passes=3.0, tol=1e-2)
        for name, w in session.WORKLOADS.items()}


def run_tiny(name: str, trace: int) -> tuple[str, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                       "--trace", str(trace)])
    text = out.getvalue()
    if rc != 0:
        raise AssertionError(f"{name} trace={trace} exited {rc}:\n{text}")
    return text, json.loads(text.splitlines()[-1])


def check_metrics(name: str, trace: int, expected) -> None:
    text, result = run_tiny(name, trace)
    lines = text.splitlines()
    for metric, unit in expected:
        printed = [line for line in lines
                   if line.startswith(f"metric {metric} = ")]
        if len(printed) != 1 or printed[0].split()[4] != unit:
            raise AssertionError(f"{name}: {metric} not printed once with "
                                 f"unit {unit}: {printed}")
        got = result["metrics"].get(metric)
        if got is None or got["unit"] != unit \
                or not isinstance(got["value"], float):
            raise AssertionError(f"{name}: {metric} missing from the "
                                 f"result or malformed: {got}")
    if set(result["metrics"]) != {m for m, _ in expected}:
        raise AssertionError(f"{name}: unexpected metrics "
                             f"{sorted(result['metrics'])}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{name} trace={trace} not correct:\n{text}")
    print(f"ok  {name} trace={trace}: {len(expected)} metrics, "
          f"{result['attempted']} operations")


def check_corrupted_trace_fails() -> None:
    """Shift one sgd loop's IFO total by 2 on its way out of run_experiment;
    the session must count the operation as failed."""
    real = vropt.run_experiment

    def corrupting(problem, configs, passes, f_star=None, evaluate=True):
        traces = real(problem, configs, passes, f_star, evaluate)
        if configs[0].config_id != "sgd":
            return traces
        trace = traces[0]
        last = dataclasses.replace(trace.points[-1],
                                   ifo_total=trace.points[-1].ifo_total + 2)
        return [dataclasses.replace(trace,
                                    points=trace.points[:-1] + (last,))]

    vropt.run_experiment = corrupting
    try:
        text, result = run_tiny("dense-lineup", 0)
    finally:
        vropt.run_experiment = real
    if result["correct"] or result["failed"] < 1:
        raise AssertionError(f"corrupted trace was not counted:\n{text}")
    if "charged" not in text:
        raise AssertionError(f"no IFO identity failure reported:\n{text}")
    print(f"ok  corrupted trace counted: {result['failed']} of "
          f"{result['attempted']} operations failed")


def main() -> int:
    tiny = tiny_workloads()
    session.WORKLOADS.clear()
    session.WORKLOADS.update(tiny)
    for name in session.WORKLOADS:
        check_metrics(name, 0, session.END_TO_END)
        check_metrics(name, 1, layers.PER_LAYER)
    check_corrupted_trace_fails()
    return 0


if __name__ == "__main__":
    sys.exit(main())
