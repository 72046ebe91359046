"""Benchmark of vropt, end to end (timed run) and layer by layer (traced run).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see session.WORKLOADS) in this single process on inputs
made from the seed, checks every output, prints each metric by name and
unit, and ends with one JSON line
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones from a traced
session. vropt is imported from src/ of the checkout; scratch files live in
.perfbench_work/ there and are removed before exit.
"""

import os

# pin BLAS and OpenMP to one thread before numpy loads, so that on a small
# machine the numbers measure the program rather than the scheduler
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def blas_threads():
    """Thread count the OpenBLAS bundled with numpy reports, or None."""
    import ctypes
    import numpy
    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs")
                  .glob("*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(str(path))  # the copy numpy has already loaded
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def run_session(session, trace: bool) -> dict:
    """Run the session; return the metrics to report, by name."""
    from session import end_to_end_metrics
    if not trace:
        session.write_inputs()
        session.setup()
        session.calibrate_tta()
        session.time_tta()
        session.measure()
        return end_to_end_metrics(session)

    from layers import layer_metrics
    from tracing import Tracer
    tracer = Tracer()
    session.tracer = tracer
    tracer.install()
    try:
        session.write_inputs()
        session.setup()
        session.calibrate_tta()
    finally:
        tracer.uninstall()
    # the first lineup untraced, best of two, the base of the overhead
    # ratio; the schedule of the measuring cycles runs it twice as well
    first_lineup = session.lineup_runs[:len(session.configs)]
    first = [key for key, _ in first_lineup]
    for _ in range(2):
        for key, config in first_lineup:
            session.op_lineup(key, config)
    untraced = 0.0
    for key in first:
        untraced += min(session.samples[f"lineup_s.{key}"])
        session.samples[f"lineup_s.{key}"].clear()
        session.sampled_in[f"lineup_s.{key}"].clear()
    tracer.install()
    try:
        session.measure()
    finally:
        tracer.uninstall()
    traced = sum(min(session.samples[f"lineup_s.{key}"]) for key in first)
    return layer_metrics(tracer, session, traced / untraced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vropt" / "__init__.py").is_file():
        print(f"error: no vropt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from session import WORKLOADS, Session, unbounded_metrics
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench_work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    session = Session(WORKLOADS[args.workload], args.seed, args.seconds,
                      workdir)
    try:
        metrics = run_session(session, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it

    print(f"workload {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"cycles={session.cycles}")
    print("env " + " ".join(f"{k}={v}" for k, v in environment().items()))
    yard = session.samples["yardstick_s"]
    print(f"host yardstick_s = {statistics.median(yard)!r} s (median of "
          f"{len(yard)}; the host ran at {session.speed():.4g} times the "
          f"reference host's speed)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    if not args.trace:
        for name, (value, unit) in unbounded_metrics(session).items():
            print(f"metric {name} = {value!r} {unit} (printed, not gated)")
    print(f"metric failed_frac = {session.failed / session.attempted!r} "
          f"ratio ({session.failed} of {session.attempted} operations)")
    for error in session.errors:
        print(f"failed {error}")
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
