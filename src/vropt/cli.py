"""Command-line front end.

Subcommands: gen (synthetic LIBSVM data), run (one solver config), rates
(analytic rate grids), bench (the five-config comparison), reference
(cached optimum). Exit codes: 0 success, 1 I/O failure, a failed
reference solve or an allocation that fails (MemoryError), 2 invalid flags
or data, 3 solver divergence.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from .averaging import SCHEMES
from .dataset import (add_bias_column, generate_synthetic, normalize_rows,
                      parse_libsvm, write_libsvm)
from .harness import (bench_configs, cached_dataset, cached_reference,
                      check_experiment, run_experiment, write_rate_csv,
                      write_trace_csv)
from .problems import LogisticProblem
from .rates import FIGURE_IDS, figure_grid, rate_grid
from .solvers import (AdaptiveLength, BarzilaiBorweinStep, ConfigError,
                      DivergenceError, FixedLength, FixedStep, SolverConfig,
                      at_least_two, inner_length, positive)
from .svgplot import write_line_plot
from .trace import Trace


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
    run_p.add_argument("--avg", choices=list(SCHEMES["svrg"]),
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
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--name", help="config id in the CSV (default: algo)")
    run_p.add_argument("--no-reference", action="store_true",
                       help="skip the reference solve; gap column stays empty")
    run_p.add_argument("--out", default="trace.csv")


def _add_rates_args(rates_p: argparse.ArgumentParser) -> None:
    rates_p.add_argument("--figure", choices=list(FIGURE_IDS),
                         help="canonical figure grid (else the grid is built "
                              "from the sweep flags below)")
    rates_p.add_argument("--schemes",
                         help="comma list: svrg_w,svrg_u,sarah_w,sarah_u,sarah_l")
    rates_p.add_argument("--L", type=float, dest="big_l",
                         help="smoothness for a sweep (default 1)")
    rates_p.add_argument("--mu", type=float,
                         help="strong convexity for a sweep (default 1e-5)")
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


def _load_problem(args) -> LogisticProblem:
    ds = cached_dataset(Path(args.data).read_bytes(), parse_libsvm)
    if args.normalize:
        ds = normalize_rows(ds)
    if args.bias:
        ds = add_bias_column(ds)
    problem = LogisticProblem(ds, args.mu)
    # the first d-vector of every command that loads a problem, so that a
    # dimension no machine can hold is refused naming the file
    try:
        np.empty(problem.d)
    except MemoryError:
        raise MemoryError(f"--data {args.data}: no memory for a vector of "
                          f"dimension {problem.d}") from None
    return problem


def _cmd_gen(args) -> int:
    ds = generate_synthetic(args.n, args.d, args.seed, args.sep)
    write_libsvm(ds, args.out)
    print(f"wrote {ds.n} rows, dim {ds.dim} -> {args.out}")
    return 0


def _refuse_unread(mode: str, flags: list[tuple[str, object]]) -> None:
    """ValueError naming each of the (flag, value) pairs that is set."""
    given = [flag for flag, value in flags if value is not None]
    if given:
        raise ValueError(f"{mode} takes none of: {', '.join(given)}")


def _kappa(problem: LogisticProblem) -> float:
    """kappa = L/mu, or ValueError naming --mu when it overflows."""
    if not math.isfinite(problem.kappa):
        raise ValueError(f"--mu {problem.mu!r} makes kappa = L/mu = "
                         f"{problem.kappa}, which is not finite")
    return problem.kappa


def _build_run_config(args, problem: LogisticProblem) -> SolverConfig:
    """Translate run flags into a SolverConfig, or raise ValueError."""
    big_l = problem.smoothness
    name = args.name or args.algo
    if args.algo in ("gd", "sgd"):
        _refuse_unread(f"--algo {args.algo}", [
            ("--avg", args.avg), ("--step", args.step),
            ("--eta-over-L", args.eta_over_l), ("--eta0-over-L", args.eta0_over_l),
            ("--theta-kappa", args.theta_kappa), ("--c", args.c),
            ("--m", args.m), ("--m-kappa", args.m_kappa),
            # gd draws no random numbers
            ("--seed", args.seed if args.algo == "gd" else None)])
        return SolverConfig(args.algo, seed=args.seed or 0, name=name)

    if args.step is None:
        raise ValueError(f"--algo {args.algo} needs --step fixed or --step bb")
    letter = args.avg or ("w" if args.step == "bb" else "u")
    averaging, theta_over_kappa, _ = SCHEMES[args.algo][letter]

    if args.m is not None and args.m_kappa is not None:
        raise ValueError("give --m or --m-kappa, not both")
    m = None if args.m is None else at_least_two("--m", args.m)
    if args.m_kappa is not None:
        m = inner_length(positive("--m-kappa", args.m_kappa) * _kappa(problem),
                         "--m-kappa * kappa =")

    if args.step == "fixed":
        _refuse_unread("--step fixed", [
            ("--eta0-over-L", args.eta0_over_l),
            ("--theta-kappa", args.theta_kappa), ("--c", args.c)])
        if args.eta_over_l is None:
            raise ValueError("--step fixed needs --eta-over-L")
        if m is None:
            raise ValueError("--step fixed needs --m or --m-kappa")
        step = FixedStep(positive("--eta-over-L", args.eta_over_l) / big_l)
        inner = FixedLength(m)
    else:
        if args.eta_over_l is not None:
            raise ValueError("--step bb takes --eta0-over-L, not --eta-over-L")
        if args.theta_kappa is not None:
            theta_over_kappa = positive("--theta-kappa", args.theta_kappa)
        eta0 = None if args.eta0_over_l is None \
            else positive("--eta0-over-L", args.eta0_over_l) / big_l
        step = BarzilaiBorweinStep(theta_over_kappa * _kappa(problem),
                                   eta0=eta0)
        if m is not None:
            if args.c is not None:
                raise ValueError(
                    "--c sets the adaptive length; drop --m/--m-kappa")
            inner = FixedLength(m)
        else:
            inner = AdaptiveLength(
                1.0 if args.c is None else positive("--c", args.c))
    return SolverConfig(args.algo, step=step, inner=inner,
                        averaging=averaging, seed=args.seed or 0, name=name)


def _run_configs(problem: LogisticProblem, configs: list[SolverConfig],
                 passes: float, claim_output: Callable[[], None],
                 reference: bool = True,
                 length_flag: str | None = None) -> list[Trace]:
    """The work of run and bench, ordered so that what can fail cheaply
    fails before anything is solved or cached: check --passes as typed
    (a budget of none would write traces with no charged point) and the
    budget passes * n it makes, every config, claim the output place,
    solve or read the reference (unless reference is False), then run the
    configs. A run's MemoryError (a snapshot pmf's: every d-vector fits)
    names length_flag, the flag that set the inner length, when given."""
    if not math.isfinite(positive("--passes", passes) * problem.n):
        raise ValueError(f"--passes {passes!r} makes an IFO budget of "
                         f"{passes!r} * {problem.n} rows, which is not "
                         "finite")
    check_experiment(problem, configs, passes)
    claim_output()
    f_star = cached_reference(problem).f_star if reference else None
    try:
        return run_experiment(problem, configs, passes, f_star)
    except MemoryError as exc:
        if length_flag is None:
            raise
        raise MemoryError(f"{exc}, an inner length set by {length_flag}") \
            from None


def _cmd_run(args) -> int:
    problem = _load_problem(args)
    config = _build_run_config(args, problem)

    def claim_output() -> None:
        # the CSV is written last; the file itself is neither made nor cut
        out = Path(args.out)  # "" is the current directory
        # Path drops a trailing separator, which names a directory
        if out.is_dir() or args.out.endswith(os.sep):
            raise IsADirectoryError(f"--out {args.out}: is a directory")
        if not out.parent.is_dir():
            raise FileNotFoundError(
                f"--out {args.out}: no directory {str(out.parent)!r}")

    if isinstance(config.inner, FixedLength):
        length_flag = "--m" if args.m is not None else "--m-kappa"
    else:  # gd and sgd build no snapshot pmf
        length_flag = "--c" if config.inner is not None else None
    trace, = _run_configs(problem, [config], args.passes, claim_output,
                          not args.no_reference, length_flag)
    write_trace_csv([trace], args.out)
    final = trace.final
    print(f"{trace.config_id}: {final.s} outer loops, "
          f"{trace.sample_passes(final)!r} passes, grad_sq={final.grad_sq!r}")
    return 0


def _cmd_rates(args) -> int:
    sweep = [("--schemes", args.schemes), ("--sweep", args.sweep),
             ("--points", args.points), ("--L", args.big_l), ("--mu", args.mu),
             ("--eta", args.eta), ("--m", args.m)]
    if args.figure:
        _refuse_unread("--figure", sweep)
        rows = figure_grid(args.figure)
    else:
        missing = [flag for flag, v in sweep[:3] if not v]
        if missing:
            raise ValueError(f"need --figure or {', '.join(missing)}")
        schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
        try:
            points = [float(v) for v in args.points.split(",") if v.strip()]
        except ValueError as exc:
            raise ValueError(f"--points: {exc}") from None
        big_l = 1.0 if args.big_l is None else positive("--L", args.big_l)
        mu = 1e-5 if args.mu is None else positive("--mu", args.mu)
        eta = None if args.eta is None else positive("--eta", args.eta)
        m = None if args.m is None else at_least_two("--m", args.m)
        rows = rate_grid(schemes, L=big_l, mu=mu, sweep=args.sweep,
                         points=points, eta=eta, m=m)
    write_rate_csv(rows, args.out)
    print(f"wrote {len(rows)} rate rows -> {args.out}")
    return 0


def _cmd_bench(args) -> int:
    problem = _load_problem(args)
    _kappa(problem)
    try:
        configs = bench_configs(problem, seed=args.seed)
    except ConfigError as exc:  # the baselines' inner length 5 * kappa
        raise ConfigError(f"--mu {problem.mu!r}: {exc}") from None
    out_dir = Path(args.out_dir)
    traces = _run_configs(
        problem, configs, args.passes,
        lambda: out_dir.mkdir(parents=True, exist_ok=True))
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
                        ylabel="squared gradient norm")
    for trace in traces:
        final = trace.final
        print(f"{trace.config_id}: grad_sq={final.grad_sq!r} after "
              f"{trace.sample_passes(final)!r} passes")
    return 0


def _cmd_reference(args) -> int:
    problem = _load_problem(args)
    ref = cached_reference(problem, tol=args.tol)
    print(f"f_star={ref.f_star!r} grad_norm={ref.grad_norm!r}")
    return 0


# name: (help, the function that adds the command's arguments, handler), in
# the order the top-level help lists them
_COMMANDS = {
    "gen": ("write a synthetic LIBSVM dataset", _add_gen_args, _cmd_gen),
    "run": ("run one solver configuration", _add_run_args, _cmd_run),
    "rates": ("write an analytic rate-grid CSV", _add_rates_args, _cmd_rates),
    "bench": ("run the five-config comparison", _add_bench_args, _cmd_bench),
    "reference": ("compute and cache the optimum", _add_reference_args,
                  _cmd_reference),
}


def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser for one invocation. For a command it is `vropt <command>`,
    a parser with that command's arguments alone, so a start builds no
    other command's arguments and no sub-parser layer. For None it is the
    top-level parser: it registers every command's name and help and no
    command's arguments, so it prints the top-level help and usage errors
    (no command, an unknown command or option) but never parses an argv
    successfully: its only option is -h, and a "--" reads as a command
    name, which is no valid choice."""
    if command is not None:
        _, add_args, handler = _COMMANDS[command]
        parser = argparse.ArgumentParser(prog=f"vropt {command}")
        add_args(parser)
        parser.set_defaults(func=handler)
        return parser
    parser = argparse.ArgumentParser(
        prog="vropt",
        description="Variance-reduced solvers, averaging schemes, and "
                    "analytic rate grids.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        sub.add_parser(name, help=help_text, add_help=False)
    return parser


def main(argv=None) -> int:
    """Run the command that argv[0] names with the rest of argv as its
    arguments, and return the exit code. When argv[0] names no command,
    the top-level parser prints its help or a usage error and exits."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(argv[1:] if command else argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # flag refusals, LibsvmParseError, ConfigError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
