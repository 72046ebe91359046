"""Command-line front end.

Subcommands: gen (synthetic LIBSVM data), run (one solver config), rates
(analytic rate grids), bench (the five-config comparison), reference
(cached optimum). Exit codes: 0 success, 1 I/O failure, 2 invalid flags or
data, 3 solver divergence.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .averaging import AveragingScheme
from .dataset import (LibsvmParseError, generate_synthetic, normalize_rows,
                      parse_libsvm, write_libsvm)
from .harness import (bench_configs, cached_dataset, cached_reference,
                      run_experiment, write_rate_csv, write_trace_csv)
from .problems import LogisticProblem
from .rates import FIGURE_IDS, figure_grid, rate_grid
from .solvers import (AdaptiveLength, BarzilaiBorweinStep, DivergenceError,
                      FixedLength, FixedStep, SolverConfig,
                      default_theta_kappa)
from .svgplot import write_line_plot

_AVG = {
    ("svrg", "u"): AveragingScheme.UNIFORM,
    ("svrg", "w"): AveragingScheme.WEIGHTED_SVRG,
    ("svrg", "l"): AveragingScheme.LAST_SVRG,
    ("sarah", "u"): AveragingScheme.UNIFORM,
    ("sarah", "w"): AveragingScheme.WEIGHTED_SARAH,
    ("sarah", "l"): AveragingScheme.LAST_SARAH,
}


def _add_gen_args(gen: argparse.ArgumentParser) -> None:
    gen.add_argument("--n", type=int, required=True, help="number of rows")
    gen.add_argument("--d", type=int, required=True, help="feature dimension")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--sep", type=float, default=2.0,
                     help="class separation (default 2.0)")
    gen.add_argument("--out", required=True, help="output path")


def _add_problem_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="LIBSVM dataset path")
    p.add_argument("--mu", type=float, required=True,
                   help="l2 regularization weight")
    p.add_argument("--normalize", action="store_true",
                   help="scale every row to unit norm")
    p.add_argument("--bias", action="store_true",
                   help="append a constant-1 feature")


def _add_run_args(run_p: argparse.ArgumentParser) -> None:
    _add_problem_args(run_p)
    run_p.add_argument("--algo", required=True,
                       choices=["gd", "sgd", "svrg", "sarah"])
    run_p.add_argument("--avg", choices=["u", "w", "l"],
                       help="averaging: uniform, tail-weighted, or last "
                            "iterate (default: w with --step bb, else u)")
    run_p.add_argument("--step", choices=["fixed", "bb"],
                       help="step rule (required for svrg/sarah)")
    run_p.add_argument("--eta-over-L", type=float, dest="eta_over_l",
                       help="fixed step as a multiple of 1/L")
    run_p.add_argument("--eta0-over-L", type=float, dest="eta0_over_l",
                       help="bootstrap step for bb as a multiple of 1/L")
    run_p.add_argument("--theta-kappa", type=float, dest="theta_kappa",
                       help="bb safeguard as a multiple of kappa "
                            "(default 4 for svrg, 1 for sarah, 1.5 for "
                            "sarah last-iterate)")
    run_p.add_argument("--c", type=float, default=None,
                       help="adaptive inner-length constant (default 1.0)")
    run_p.add_argument("--m", type=int, help="fixed inner-loop length")
    run_p.add_argument("--m-kappa", type=float, dest="m_kappa",
                       help="fixed inner-loop length as a multiple of kappa")
    run_p.add_argument("--passes", type=float, default=20.0,
                       help="IFO budget in sample passes (default 20)")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--name", help="config id in the CSV (default: algo)")
    run_p.add_argument("--no-reference", action="store_true",
                       help="skip the reference solve; gap column stays empty")
    run_p.add_argument("--out", default="trace.csv")


def _add_rates_args(rates_p: argparse.ArgumentParser) -> None:
    rates_p.add_argument("--figure", choices=list(FIGURE_IDS),
                         help="canonical figure grid")
    rates_p.add_argument("--custom", action="store_true",
                         help="build the grid from the sweep flags below")
    rates_p.add_argument("--schemes",
                         help="comma list: svrg_w,svrg_u,sarah_w,sarah_u,sarah_l")
    rates_p.add_argument("--L", type=float, default=1.0, dest="big_l")
    rates_p.add_argument("--mu", type=float, default=1e-5)
    rates_p.add_argument("--sweep", choices=["m", "eta"])
    rates_p.add_argument("--points", help="comma list of sweep values")
    rates_p.add_argument("--eta", type=float, help="fixed eta for --sweep m")
    rates_p.add_argument("--m", type=int, help="fixed m for --sweep eta")
    rates_p.add_argument("--out", default="rates.csv")


def _add_bench_args(bench: argparse.ArgumentParser) -> None:
    _add_problem_args(bench)
    bench.add_argument("--passes", type=float, default=40.0)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out-dir", required=True, dest="out_dir")
    bench.add_argument("--plot", action="store_true",
                       help="also write an SVG of grad_sq vs sample passes")


def _add_reference_args(ref: argparse.ArgumentParser) -> None:
    _add_problem_args(ref)
    ref.add_argument("--tol", type=float, default=1e-10,
                     help="target gradient norm (default 1e-10)")
    ref.add_argument("--cache-dir", dest="cache_dir",
                     help="override the cache directory (else "
                          "$VROPT_CACHE_DIR, else ~/.cache/vropt)")


def _load_problem(args) -> LogisticProblem:
    # only reference has --cache-dir; run and bench use the default place
    ds = cached_dataset(Path(args.data).read_bytes(), parse_libsvm,
                        getattr(args, "cache_dir", None))
    if args.normalize:
        ds = normalize_rows(ds)
    return LogisticProblem(ds, args.mu, add_bias=args.bias)


def _cmd_gen(args) -> int:
    ds = generate_synthetic(args.n, args.d, args.seed, args.sep)
    write_libsvm(ds, args.out)
    print(f"wrote {ds.n} rows, dim {ds.dim} -> {args.out}")
    return 0


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _build_run_config(args, problem: LogisticProblem) -> SolverConfig | int:
    """Translate run flags into a SolverConfig; an int is an exit code."""
    big_l, _, kappa = problem.constants()
    name = args.name or args.algo
    if args.algo in ("gd", "sgd"):
        off = [flag for flag, v in [
            ("--avg", args.avg), ("--step", args.step),
            ("--eta-over-L", args.eta_over_l), ("--eta0-over-L", args.eta0_over_l),
            ("--theta-kappa", args.theta_kappa), ("--c", args.c),
            ("--m", args.m), ("--m-kappa", args.m_kappa)] if v is not None]
        if off:
            return _fail(f"--algo {args.algo} takes none of: {', '.join(off)}")
        return SolverConfig(args.algo, seed=args.seed, name=name)

    if args.step is None:
        return _fail(f"--algo {args.algo} needs --step fixed or --step bb")
    averaging = _AVG[(args.algo, args.avg or ("w" if args.step == "bb" else "u"))]

    if args.m is not None and args.m_kappa is not None:
        return _fail("give --m or --m-kappa, not both")
    m = args.m
    if args.m_kappa is not None:
        m = max(2, math.ceil(args.m_kappa * kappa))

    if args.step == "fixed":
        bad = [flag for flag, v in [
            ("--eta0-over-L", args.eta0_over_l),
            ("--theta-kappa", args.theta_kappa), ("--c", args.c)]
            if v is not None]
        if bad:
            return _fail(f"--step fixed takes none of: {', '.join(bad)}")
        if args.eta_over_l is None:
            return _fail("--step fixed needs --eta-over-L")
        if m is None:
            return _fail("--step fixed needs --m or --m-kappa")
        step = FixedStep(args.eta_over_l / big_l)
        inner = FixedLength(m)
    else:
        if args.eta_over_l is not None:
            return _fail("--step bb takes --eta0-over-L, not --eta-over-L")
        theta = (args.theta_kappa * kappa if args.theta_kappa is not None
                 else default_theta_kappa(args.algo, averaging, kappa))
        eta0 = None if args.eta0_over_l is None else args.eta0_over_l / big_l
        step = BarzilaiBorweinStep(theta, eta0=eta0)
        if m is not None:
            if args.c is not None:
                return _fail("--c sets the adaptive length; drop --m/--m-kappa")
            inner = FixedLength(m)
        else:
            inner = AdaptiveLength(1.0 if args.c is None else args.c)
    return SolverConfig(args.algo, step=step, inner=inner,
                        averaging=averaging, seed=args.seed, name=name)


def _cmd_run(args) -> int:
    problem = _load_problem(args)
    config = _build_run_config(args, problem)
    if isinstance(config, int):
        return config
    f_star = None
    if not args.no_reference:
        f_star = cached_reference(problem).f_star
    trace = run_experiment(problem, [config], args.passes, f_star)[0]
    write_trace_csv([trace], args.out)
    final = trace.final
    print(f"{trace.config_id}: {final.s} outer loops, "
          f"{trace.sample_passes(final)!r} passes, grad_sq={final.grad_sq!r}")
    return 0


def _cmd_rates(args) -> int:
    if args.figure and args.custom:
        return _fail("give --figure or --custom, not both")
    if args.figure:
        rows = figure_grid(args.figure)
    elif args.custom:
        missing = [flag for flag, v in [("--schemes", args.schemes),
                                        ("--sweep", args.sweep),
                                        ("--points", args.points)] if not v]
        if missing:
            return _fail(f"--custom needs {', '.join(missing)}")
        schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
        points = [float(v) for v in args.points.split(",") if v.strip()]
        rows = rate_grid(schemes, L=args.big_l, mu=args.mu, sweep=args.sweep,
                         points=points, eta=args.eta, m=args.m)
    else:
        return _fail("need --figure or --custom")
    write_rate_csv(rows, args.out)
    print(f"wrote {len(rows)} rate rows -> {args.out}")
    return 0


def _cmd_bench(args) -> int:
    problem = _load_problem(args)
    ref = cached_reference(problem)
    configs = bench_configs(problem, seed=args.seed)
    traces = run_experiment(problem, configs, args.passes, ref.f_star)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for trace in traces:
        write_trace_csv([trace], out_dir / f"{trace.config_id}.csv")
    write_trace_csv(traces, out_dir / "comparison.csv")
    if args.plot:
        series = []
        for trace in traces:
            pts = [(trace.sample_passes(p), p.grad_sq)
                   for p in trace.points if p.grad_sq is not None]
            series.append((trace.config_id, [q[0] for q in pts],
                           [q[1] for q in pts]))
        write_line_plot(out_dir / "bench.svg", series,
                        title="equal-budget comparison",
                        xlabel="sample passes",
                        ylabel="squared gradient norm", logy=True)
    for trace in traces:
        final = trace.final
        print(f"{trace.config_id}: grad_sq={final.grad_sq!r} after "
              f"{trace.sample_passes(final)!r} passes")
    return 0


def _cmd_reference(args) -> int:
    problem = _load_problem(args)
    ref = cached_reference(problem, tol=args.tol, cache_dir=args.cache_dir)
    print(f"f_star={ref.f_star!r} grad_norm={ref.grad_norm!r}")
    return 0


# name, help, the function that adds the command's arguments, and the
# handler, in the order the top-level help lists them
_COMMANDS = (
    ("gen", "write a synthetic LIBSVM dataset", _add_gen_args, _cmd_gen),
    ("run", "run one solver configuration", _add_run_args, _cmd_run),
    ("rates", "write an analytic rate-grid CSV", _add_rates_args, _cmd_rates),
    ("bench", "run the five-config comparison", _add_bench_args, _cmd_bench),
    ("reference", "compute and cache the optimum", _add_reference_args,
     _cmd_reference),
)


def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser for one invocation. Every subcommand is registered with
    its help, so the top-level usage, help and errors are the same for any
    argv, but only `command`'s arguments are added: adding every command's
    arguments made the parser cost about 2.7 times as much to build."""
    parser = argparse.ArgumentParser(
        prog="vropt",
        description="Variance-reduced solvers, averaging schemes, and "
                    "analytic rate grids.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_args, handler in _COMMANDS:
        # a command that is not run never prints its own help
        p = sub.add_parser(name, help=help_text, add_help=name == command)
        if name == command:
            add_args(p)
            p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser has no option that takes a value, so the first
    # token that is not an option is the one it reads as the subcommand
    command = next((a for a in argv if not a.startswith("-")), None)
    args = _build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (LibsvmParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
