"""The benchmark's workloads and the session one run performs on them.

A session is what one user does with one dataset, in one process, as a
closed loop with a single caller: write the data as LIBSVM, set up a
solver-ready problem with its reference optimum (setup), find and time the
outer loop where bb_sarah_w first reaches tol (tta), then repeat a cycle of

    lineup     the next two runs of the lineup schedule: every config of
               ten lineups of the five bench_configs once, then the first
               lineup again, each through run_experiment (evaluation on)
    gen        vropt writing the dataset as LIBSVM
    warm_ref   `vropt reference` with the cache filled
    rates      the analytic rate grids, formatted as CSV
    bench      `vropt bench --plot` with the cache filled (first two cycles)
    setup      a further cold set-up (in SETUP_REPS - 1 cycles spread over
               the schedule)
    yardstick  a fixed piece of work that does not call vropt and measures
               how fast the host runs (see yardstick.py)

until the schedule is done and the measuring time is up. Every timing is
the median of its samples, scaled by the yardstick to a fixed host speed.

Every step is checked (see checks.py); an operation whose output fails a
check, that diverges or that exits nonzero counts as failed. Workloads
differ in the data, which decides which layer dominates.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import shutil
import statistics
import time
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import vropt
import vropt.cli
import vropt.harness

import checks
from yardstick import REFERENCE_S, yardstick

_clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    d: int
    # "synthetic": vropt's generate_synthetic (and `vropt gen`) with this
    # class separation; "sparse": the benchmark's own generator with nnz
    # stored entries per row, handed to vropt as LIBSVM text only
    source: str
    kappa: float
    passes: float  # pass budget of the lineup
    tol: float  # relative grad_sq target of tta
    sep: float = 2.0
    nnz: int = 0


# why each workload was chosen: BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in [
    Workload("dense-lineup", n=1000, d=20, source="synthetic", sep=3.0,
             kappa=1000.0, passes=10.0, tol=1e-6),
    Workload("sparse-wide", n=1000, d=20000, source="sparse", nnz=20,
             kappa=1000.0, passes=5.0, tol=1e-2),
]}


def sparse_libsvm_text(seed: int, n: int, d: int, nnz: int) -> str:
    """LIBSVM text with nnz Gaussian entries per row at distinct random
    columns, labelled by the sign of a seeded linear rule plus noise."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(d)
    cols = np.sort(np.stack([rng.choice(d, nnz, replace=False)
                             for _ in range(n)]), axis=1)
    vals = rng.standard_normal((n, nnz))
    margin = np.einsum("ij,ij->i", vals, w[cols]) \
        + 0.5 * np.sqrt(nnz) * rng.standard_normal(n)
    lines = []
    for i in range(n):
        label = "+1" if margin[i] > 0 else "-1"
        lines.append(label + " " + " ".join(
            f"{c + 1}:{v:.6g}" for c, v in zip(cols[i], vals[i])))
    return "\n".join(lines) + "\n"


RATES_S = 0.05  # least time of one rates op
BENCH_PASSES = 3.0  # pass budget of the bench command
SETUP_REPS = 5  # cold set-ups per run
TTA_REPLICAS = 2  # bb_sarah_w seeds timed to tol
LINEUP_OPS = 2  # lineup runs per cycle
SPEED_CYCLES = 10  # least cycles of yardstick samples that scale a timing
# lineups with the seeds seed, seed + 1, ...: a config's cost per IFO moves
# with how its budget splits into outer loops, which the seed decides
LINEUP_SEEDS = 10


class Session:
    """One run of one workload. `tracer` stays None for the timed run."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 workdir: Path):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.tracer = None
        self.mu = 0.25 / (workload.kappa - 1.0)  # unit rows: L = 1/4 + mu
        self.data_path = workdir / "data.svm"
        self.samples: dict[str, list[float]] = {}
        # the cycle each sample was taken in (0 before the first cycle)
        self.sampled_in: dict[str, list[int]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.cycles = 0
        self._first: dict[str, object] = {}

    # -- bookkeeping -----------------------------------------------------

    def _op(self, label: str) -> None:
        if self.tracer is not None:
            self.tracer.op = label

    def _sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)
        self.sampled_in.setdefault(name, []).append(self.cycles)

    def _count(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)

    def _attempt(self, op, *args) -> None:
        """Run an op that calls the solvers; a divergence fails it. (The
        commands report a divergence by their exit code instead.)"""
        try:
            op(*args)
        except vropt.DivergenceError as exc:
            self._count([f"{op.__name__}: {exc}"])

    def _same_as_first(self, label: str, value) -> list[str]:
        first = self._first.setdefault(label, value)
        return checks.same_bytes(label, first, value)

    def _cli(self, argv: list[str]) -> tuple[int, str, float]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = _clock()
            if self.tracer is not None:
                span = self.tracer.open(f"cli.{argv[0]}")
                try:
                    rc = vropt.cli.main(argv)
                finally:
                    self.tracer.close(span)
            else:
                rc = vropt.cli.main(argv)
            wall = _clock() - t0
        if rc != 0:
            self.errors.append(f"vropt {argv[0]} exited {rc}: "
                               f"{err.getvalue().strip()}")
        return rc, out.getvalue(), wall

    def _problem_flags(self) -> list[str]:
        return ["--data", str(self.data_path), "--mu", repr(self.mu),
                "--normalize"]

    def _fresh_cache(self, tag: str) -> Path:
        cache = self.workdir / f"cache-{tag}"
        cache.mkdir()
        os.environ["VROPT_CACHE_DIR"] = str(cache)
        return cache

    # -- stages ----------------------------------------------------------

    def write_inputs(self) -> None:
        w = self.w
        if w.source == "sparse":
            self.data_path.write_text(
                sparse_libsvm_text(self.seed, w.n, w.d, w.nnz),
                encoding="ascii")
        else:
            rc, _, _ = self._cli(["gen", "--n", str(w.n), "--d", str(w.d),
                                  "--seed", str(self.seed),
                                  "--sep", repr(w.sep),
                                  "--out", str(self.data_path)])
            self._count(["first gen failed"] if rc else [])

    def _setup_api(self):
        w = self.w
        if w.source == "sparse":
            text = self.data_path.read_text(encoding="ascii")
            ds = vropt.parse_libsvm(text)
        else:
            ds = vropt.generate_synthetic(w.n, w.d, self.seed, w.sep)
        ds = vropt.normalize_rows(ds)
        problem = vropt.LogisticProblem(ds, self.mu)
        return ds, problem, vropt.cached_reference(problem)

    def _cold_setup(self):
        """Inputs to a solver-ready problem and its reference optimum, with
        an empty reference cache; returns the dataset, problem and
        reference."""
        self._op("setup")
        self._fresh_cache(f"setup{len(self.samples.get('setup_s', []))}")
        t0 = _clock()
        result = self._setup_api()
        self._sample("setup_s", _clock() - t0)
        ref = result[2]
        errors = checks.reference_converged(ref)
        errors += self._same_as_first("reference f_star", repr(ref.f_star))
        self._count(errors)
        return result

    def setup(self) -> None:
        """The first cold set-up, whose cache the warm ops then use, and
        the lineups; the other set-ups run between the lineups."""
        self.dataset, self.problem, self.ref = self._cold_setup()
        # prime the cache for the CLI's own problem (a hit when the parsed
        # file equals the set-up dataset) so warm_ref measures a warm start
        rc, _, _ = self._cli(["reference"] + self._problem_flags())
        self._count(["priming reference failed"] if rc else [])
        lineups = [vropt.bench_configs(self.problem, seed=self.seed + j)
                   for j in range(LINEUP_SEEDS)]
        self.configs = lineups[0]
        self.algorithms = {c.config_id: c.algorithm for c in self.configs}
        self.budget = math.ceil(self.w.passes * self.problem.n)
        # (key, config) for every config of every lineup, "<config_id>.<j>"
        self.lineup_runs = [(f"{c.config_id}.{j}", c)
                            for j, lineup in enumerate(lineups)
                            for c in lineup]
        # a fixed schedule, so that the solvers' samples do not depend on
        # how fast the other ops are; the first lineup runs twice to show
        # that a config and seed repeat byte for byte
        self.schedule = self.lineup_runs + self.lineup_runs[:len(lineups[0])]
        # the cycles that set up again, spread evenly over the schedule
        # like the samples of every other op, since the host's slow
        # periods last seconds
        cycles = -(-len(self.schedule) // LINEUP_OPS)
        self.setup_cycles = {k * cycles // SETUP_REPS
                             for k in range(1, SETUP_REPS)}
        self.lineup_ifo: dict[str, int] = {}
        self.lineup_traces = {}

    def calibrate_tta(self) -> None:
        """Find, per replica seed, the first outer loop s* whose evaluated
        grad_sq is within tol of grad_sq(x0). Replica 0 is the lineup's own
        bb_sarah_w; the others use further seeds."""
        self._op("calibrate")
        base = self.configs[-1]
        self.tta_runs = []
        for j in range(TTA_REPLICAS):
            config = replace(base, seed=self.seed + 7919 * j)
            # a larger budget extends the same trace, so double until hit
            passes, hit = self.w.passes, None
            while hit is None and passes <= 16 * self.w.passes:
                trace = vropt.run_experiment(self.problem, [config], passes)[0]
                g0 = trace.points[0].grad_sq
                hit = next((p for p in trace.points
                            if p.grad_sq <= self.w.tol * g0), None)
                passes *= 2
            errors = checks.ifo_identity(trace, "sarah")
            if hit is None:
                errors.append(f"bb_sarah_w seed {config.seed} never reached "
                              f"tol {self.w.tol!r}")
            else:
                # run_experiment's derived seed, so the timed run repeats
                # the evaluated one (checked in time_tta)
                derived = config.seed ^ zlib.crc32(
                    config.config_id.encode("utf-8"))
                timed = replace(config, outer_loops=hit.s, ifo_budget=None,
                                seed=derived)
                self.tta_runs.append((timed, hit.ifo_total))
                self._sample("passes_to_tol", hit.ifo_total / self.problem.n)
            self._count(errors)

    def time_tta(self) -> None:
        """Time each replica's run to s* once, without evaluation."""
        self._op("tta")
        for config, ifo_at_tol in self.tta_runs:
            self._attempt(self._time_tta_run, config, ifo_at_tol)

    def _time_tta_run(self, config, ifo_at_tol: int) -> None:
        t0 = _clock()
        trace = vropt.run(self.problem, config, evaluate=False)
        self._sample("tta_s", _clock() - t0)
        errors = []
        if trace.final.ifo_total != ifo_at_tol:
            errors.append(f"tta run of seed {config.seed} charged "
                          f"{trace.final.ifo_total} IFO, the evaluated "
                          f"run {ifo_at_tol}")
        self._count(errors)

    def op_lineup(self, key: str, config) -> None:
        """One config of one lineup through run_experiment, which gives the
        same trace as inside the full lineup (the seed is derived from the
        config id, the budget from the passes). Timing the configs apart
        gives each its own best time."""
        self._op(f"lineup.{key}")
        t0 = _clock()
        trace = vropt.run_experiment(self.problem, [config], self.w.passes,
                                     self.ref.f_star)[0]
        wall = _clock() - t0
        self._sample(f"lineup_s.{key}", wall)
        self.lineup_ifo[key] = trace.final.ifo_total
        errors = checks.lineup([trace], self.algorithms, self.budget)
        errors += self._same_as_first(f"{key} trace CSV",
                                      vropt.format_trace_csv([trace]))
        self.lineup_traces[key] = trace
        lineup = key.rsplit(".", 1)[1]
        if config.config_id == self.configs[-1].config_id:
            errors += checks.csv_round_trip(vropt.format_trace_csv(
                [self.lineup_traces[f"{c.config_id}.{lineup}"]
                 for c in self.configs]))
        self._count(errors)

    def lineup_ifo_per_s(self) -> float:
        """IFO per second of a lineup in which every config charges the
        same IFO: one over the mean of the configs' median time per IFO,
        each over all its runs and seeds.

        How a config's budget splits into outer loops (and how far a
        secant-step config overshoots it: bb_svrg_w ran 10 to 155 passes at
        a 10-pass budget) varies with the seed and moves its cost per IFO,
        since a loop's fixed work is spread over its inner steps. Weighing
        the configs equally keeps one overshooting run from setting the
        result; the median over ten lineup seeds keeps the seed's luck
        out."""
        per_ifo: dict[str, list[float]] = {}
        for key, ifo in self.lineup_ifo.items():
            per_ifo.setdefault(key.rsplit(".", 1)[0], []).extend(
                t / ifo for t in self.samples[f"lineup_s.{key}"])
        return 1.0 / statistics.mean(
            statistics.median(v) for v in per_ifo.values())

    def digits_per_pass(self) -> float:
        """Decimal digits by which grad_sq falls per pass charged, the mean
        over every config of every lineup. A trace repeats exactly for its
        seed, so on the same seeds this moves only when a change alters what
        the solvers compute; the mean over fifty runs keeps the seed's luck
        out, so that a change which only reshuffles the random draws moves
        it little while one that converges worse per IFO lowers it."""
        n = self.problem.n
        return statistics.mean(
            math.log10(t.points[0].grad_sq / t.points[-1].grad_sq)
            / (t.final.ifo_total / n) for t in self.lineup_traces.values())

    def op_setup(self) -> None:
        """A further cold set-up; the warm ops keep their filled cache."""
        warm_cache = os.environ["VROPT_CACHE_DIR"]
        self._cold_setup()
        os.environ["VROPT_CACHE_DIR"] = warm_cache

    def op_gen(self) -> None:
        self._op("gen")
        w = self.w
        path = self.workdir / "gen.svm"
        t0 = _clock()
        if w.source == "sparse":
            vropt.write_libsvm(self.dataset, path)
            rc = 0
        else:
            rc, _, _ = self._cli(["gen", "--n", str(w.n), "--d", str(w.d),
                                  "--seed", str(self.seed),
                                  "--sep", repr(w.sep), "--out", str(path)])
        self._sample("gen_s", _clock() - t0)
        errors = ["gen failed"] if rc else []
        errors += self._same_as_first("written LIBSVM", path.read_bytes())
        self._count(errors)

    def op_warm_ref(self) -> None:
        self._op("warm_ref")
        cache = Path(os.environ["VROPT_CACHE_DIR"])
        before = sorted(p.name for p in cache.iterdir())
        rc, out, wall = self._cli(["reference"] + self._problem_flags())
        self._sample("warm_start_s", wall)
        errors = ["warm reference failed"] if rc else []
        errors += self._same_as_first("warm reference output", out)
        if sorted(p.name for p in cache.iterdir()) != before:
            errors.append("warm reference missed the cache")
        self._count(errors)

    def op_bench(self) -> None:
        self._op("bench")
        out_dir = self.workdir / f"bench-{self.cycles}"
        rc, out, wall = self._cli(
            ["bench"] + self._problem_flags()
            + ["--passes", repr(BENCH_PASSES), "--seed",
               str(self.seed), "--out-dir", str(out_dir), "--plot"])
        self._sample("bench_cmd_s", wall)
        errors = ["bench failed"] if rc else []
        if not rc:
            files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            errors += self._same_as_first("bench output files", files)
            errors += self._same_as_first("bench stdout", out)
            text = files["comparison.csv"].decode("utf-8")
            loads = checks.csv_round_trip(text)
            errors += loads or checks.lineup(
                vropt.load_trace_csv(text), self.algorithms,
                math.ceil(BENCH_PASSES * self.problem.n))
        shutil.rmtree(out_dir, ignore_errors=True)
        self._count(errors)

    def rate_rows(self):
        """Every canonical figure grid; an eta sweep of all five schemes at
        m = 10*kappa (closed form); and a sarah_w m sweep held below
        mu*eta*(m-1) = 1e-3, where the normalizer sums a series."""
        kappa = self.w.kappa
        mu = 1.0 / kappa
        rows = []
        for figure in vropt.FIGURE_IDS:
            rows += vropt.figure_grid(figure)
        etas = [float(v) for v in np.logspace(-3, math.log10(1.99), 40)]
        rows += vropt.rate_grid(list(vropt.rates.SCHEME_RATES), L=1.0, mu=mu,
                                sweep="eta", points=etas, m=int(10 * kappa))
        m_max = 100_000
        ms = [float(round(v)) for v in np.logspace(2, 5, 20)]
        rows += vropt.rate_grid(["sarah_w"], L=1.0, mu=mu, sweep="m",
                                points=ms, eta=5e-4 / (mu * m_max))
        return rows

    def op_rates(self) -> None:
        """Evaluate and format the grids repeatedly for at least RATES_S,
        since one pass takes only milliseconds; one sample per op."""
        self._op("rates")
        count, t0 = 0, _clock()
        while True:
            rows = self.rate_rows()
            text = vropt.harness.format_rate_csv(rows)
            count += len(rows)
            elapsed = _clock() - t0
            if elapsed >= RATES_S:
                break
        self._sample("rate_rows_per_s", count / elapsed)
        errors = checks.rate_rows(rows)
        errors += self._same_as_first("rate CSV", text)
        self._count(errors)

    def op_yardstick(self) -> None:
        self._op("yardstick")
        self._sample("yardstick_s", yardstick())

    def speed(self, *names: str) -> float:
        """How much faster the host ran than the reference host while the
        named samples were taken (the whole run if none are named): the
        yardstick's REFERENCE_S over its median time in the cycles from the
        first to the last of those samples, widened to SPEED_CYCLES cycles
        at least. A time times this, or a rate over it, reads as on the
        reference host.

        The host's slow periods last minutes, and the lineups run in the
        first cycles only, so each timing is scaled by the host's speed
        while it was measured, not over the whole run."""
        yard = self.samples["yardstick_s"]  # yard[c] from cycle c
        cycles = [c for name in names for c in self.sampled_in[name]]
        lo, hi = (min(cycles), max(cycles) + 1) if cycles else (0, len(yard))
        while hi - lo < min(SPEED_CYCLES, len(yard)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(yard))
        return REFERENCE_S / statistics.median(yard[lo:hi])

    def cycle(self) -> None:
        """The next runs of the lineup schedule while any are left, then
        one of each short op and the yardstick, so that every timed op and
        the host's speed are sampled all through the run. The bench command, whose time is printed but not
        gated, runs in the first two cycles only: twice shows that its
        output repeats."""
        start = LINEUP_OPS * self.cycles
        for key, config in self.schedule[start:start + LINEUP_OPS]:
            self._attempt(self.op_lineup, key, config)
        self.op_gen()
        self.op_warm_ref()
        self.op_rates()
        if self.cycles in self.setup_cycles:
            self.op_setup()
        if self.cycles < 2:
            self.op_bench()
        self.op_yardstick()
        self.cycles += 1

    def measure(self) -> None:
        """Whole cycles until the lineup schedule is done and the measuring
        time is used up: the time decides only how many short ops run."""
        t0 = _clock()
        while LINEUP_OPS * self.cycles < len(self.schedule) \
                or _clock() - t0 < self.seconds:
            self.cycle()


END_TO_END = [
    ("setup_s", "s"),
    ("ifo_per_s", "IFO/s"),
    ("digits_per_pass", "digits/pass"),
    ("gen_s", "s"),
    ("warm_start_s", "s"),
    ("rate_rows_per_s", "rows/s"),
    ("peak_rss_mb", "MB"),
]


UNBOUNDED = [
    ("bench_cmd_s", "s"),
    ("tta_s", "s"),
    ("passes_to_tol", "passes"),
]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(session: Session) -> dict[str, tuple[float, str]]:
    """The median of each timing's samples, scaled to the reference host's
    speed while they were taken; the convergence rate and the memory as
    measured."""
    s = session
    values = {name: statistics.median(s.samples[name]) * s.speed(name)
              for name in ("setup_s", "gen_s", "warm_start_s")}
    values["ifo_per_s"] = s.lineup_ifo_per_s() / s.speed(
        *(f"lineup_s.{key}" for key in s.lineup_ifo))
    values["rate_rows_per_s"] = statistics.median(
        s.samples["rate_rows_per_s"]) / s.speed("rate_rows_per_s")
    values["digits_per_pass"] = s.digits_per_pass()
    values["peak_rss_mb"] = peak_rss_mb()
    return {name: (values[name], unit) for name, unit in END_TO_END}


def unbounded_metrics(session: Session) -> dict[str, tuple[float, str]]:
    """Printed, not gated: their spread over seeds is wider than any bound
    the benchmark may set. bb_sarah_w reaches tol at the end of an adaptive
    outer loop, so tta moves by whole loops from seed to seed, and how far
    bb_svrg_w overshoots its budget changes the bench command's work by up
    to tenfold. Timings scaled like the end-to-end ones."""
    return {name: (statistics.median(session.samples[name])
                   * (session.speed(name) if unit == "s" else 1.0), unit)
            for name, unit in UNBOUNDED}
