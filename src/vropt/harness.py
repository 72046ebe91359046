"""Experiment orchestration: reference optima (computed once, cached on
disk), equal-budget multi-config runs, and the CSV emission used by the
command-line tools and plots.

Budgets are expressed in sample passes (IFO / n). Evaluation work never
touches the budget; all configs in a comparison stop within one outer loop
of the same IFO total.
"""

from __future__ import annotations

import hashlib
import math
import os
import tempfile
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .averaging import AveragingScheme
from .problems import ErmProblem, LogisticProblem, RidgeProblem
# not used here; perfbench/tracing.py patches vropt.harness.serialize_libsvm
from .dataset import serialize_libsvm  # noqa: F401
from .rates import GridRow
from .solvers import (AdaptiveLength, BarzilaiBorweinStep, ConfigError,
                      FixedLength, FixedStep, SolverConfig, run)
from .trace import Trace, TracePoint

__all__ = [
    "ReferenceOptimum", "compute_reference", "cached_reference", "problem_key",
    "run_experiment", "bench_configs",
    "TRACE_HEADER", "RATE_HEADER",
    "format_trace_csv", "write_trace_csv", "load_trace_csv",
    "format_rate_csv", "write_rate_csv",
]

# closed-form ridge solves stay cheap up to this dimension
_RIDGE_DIRECT_DIM = 4096
_CACHE_ENV = "VROPT_CACHE_DIR"


@dataclass(frozen=True, eq=False)
class ReferenceOptimum:
    """Minimizer estimate used to plot optimality gaps."""

    x_star: np.ndarray
    f_star: float
    grad_norm: float


def compute_reference(problem: ErmProblem, tol: float = 1e-10) -> ReferenceOptimum:
    """Solve the problem to high accuracy with deterministic full gradients.

    Ridge problems of moderate dimension are solved by normal equations and
    polished by descent only if the direct solve misses tol. Everything else
    runs gradient descent with step 1/L from the origin until the gradient
    norm drops below tol.

    Raises:
        ValueError: mu = 0 (descent path needs strong convexity), bad tol.
        RuntimeError: iteration cap reached before tol.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    x = np.zeros(problem.d)
    if isinstance(problem, RidgeProblem) and problem.d <= _RIDGE_DIRECT_DIM:
        x = problem.solve_normal_equations()
        g = problem.full_grad(x)
        gn = float(np.linalg.norm(g))
        if gn <= tol:
            return ReferenceOptimum(x, problem.value(x), gn)
        # fall through: polish by descent from the direct solution
    if not problem.mu > 0:
        raise ValueError("reference solver needs mu > 0")
    big_l = problem.smoothness
    cap = max(10_000, math.ceil(60.0 * problem.kappa))
    step = 1.0 / big_l
    for _ in range(cap + 1):
        g = problem.full_grad(x)
        gn = float(np.linalg.norm(g))
        if gn <= tol:
            return ReferenceOptimum(x, problem.value(x), gn)
        x = x - step * g
    raise RuntimeError(
        f"reference solver hit the {cap}-iteration cap with "
        f"gradient norm {gn:.3e} > tol {tol:.3e}")


def problem_key(problem: ErmProblem) -> str:
    """Content hash of the data, its dimension and mu; keys the reference
    cache. Arrays are hashed in fixed little-endian dtypes, so the key does
    not depend on the platform's integer width."""
    h = hashlib.sha256()
    if isinstance(problem, LogisticProblem):
        ds = problem.dataset
        h.update(f"logistic n={ds.n} nnz={ds.indices.size} "
                 f"dim={ds.dim}\n".encode("utf-8"))
        for array, dtype in ((ds.indptr, "<i8"), (ds.indices, "<i8"),
                             (ds.data, "<f8"), (ds.labels, "i1")):
            h.update(array.astype(dtype, copy=False).tobytes())
    elif isinstance(problem, RidgeProblem):
        h.update(b"ridge\n")
        h.update(np.ascontiguousarray(problem._A).tobytes())
        h.update(np.ascontiguousarray(problem._y).tobytes())
    else:
        raise TypeError(f"no content hash for {type(problem).__name__}")
    h.update(f"\nmu={problem.mu!r}".encode("utf-8"))
    return h.hexdigest()[:16]


def _cache_path(key: str, cache_dir: str | os.PathLike | None) -> Path:
    if cache_dir is None:
        cache_dir = os.environ.get(_CACHE_ENV) \
            or Path.home() / ".cache" / "vropt"
    return Path(cache_dir) / f"ref-{key}.csv"


def _load_cached(path: Path, key: str, dim: int,
                 tol: float) -> ReferenceOptimum | None:
    """Parse a cache file; None when absent, stale, or not tight enough."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError:
        return None
    if not lines or not lines[0].startswith("# vropt-reference "):
        return None
    meta = {}
    for token in lines[0][len("# vropt-reference "):].split():
        name, _, value = token.partition("=")
        meta[name] = value
    try:
        if meta["key"] != key or int(meta["dim"]) != dim:
            return None
        grad_norm = float(meta["grad_norm"])
        f_star = float(meta["f_star"])
        xs = [float(v) for v in lines[1:]]
    except (KeyError, ValueError):
        return None
    if len(xs) != dim or grad_norm > tol:
        return None
    return ReferenceOptimum(np.array(xs), f_star, grad_norm)


def cached_reference(problem: ErmProblem, tol: float = 1e-10,
                     cache_dir: str | os.PathLike | None = None) -> ReferenceOptimum:
    """compute_reference with a disk cache.

    The cache directory is the cache_dir argument, else $VROPT_CACHE_DIR,
    else ~/.cache/vropt. Files are single-column CSV named ref-<key>.csv:
    a metadata line
        # vropt-reference key=<hash> tol=<tol> f_star=<f*> grad_norm=<gn> dim=<d>
    followed by one x* component per line, all floats as shortest
    round-trip decimals. A cached solution is reused only when its key,
    dimension, and achieved gradient norm satisfy the current request. The
    file is written under a temporary name and renamed into place, so an
    interrupted write leaves no partial file.
    """
    key = problem_key(problem)
    path = _cache_path(key, cache_dir)
    hit = _load_cached(path, key, problem.d, tol)
    if hit is not None:
        return hit
    ref = compute_reference(problem, tol=tol)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# vropt-reference key={key} tol={tol!r} f_star={ref.f_star!r} "
             f"grad_norm={ref.grad_norm!r} dim={problem.d}"]
    lines.extend(repr(float(v)) for v in ref.x_star)
    _write_atomic(path, "\n".join(lines) + "\n")
    return ref


def _write_atomic(path: Path, text: str) -> None:
    """Write text to a temporary file next to path, then rename it over
    path, so readers see the old file or the whole new one, never a part."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _derived_seed(config: SolverConfig) -> int:
    # seed ^ crc32(config_id): identical configs share a stream, same-seed
    # configs with different ids do not
    return config.seed ^ zlib.crc32(config.config_id.encode("utf-8"))


def run_experiment(problem: ErmProblem, configs: Sequence[SolverConfig],
                   passes: float, f_star: float | None = None,
                   evaluate: bool = True) -> list[Trace]:
    """Run every config against the same IFO budget of ceil(passes * n).

    Each run draws from its own generator seeded with seed ^ crc32(config_id),
    so identical configs produce identical traces and renamed copies do not.
    Solver errors propagate annotated with the config id.
    """
    if passes < 0:
        raise ValueError(f"passes must be >= 0, got {passes}")
    budget = math.ceil(passes * problem.n)
    traces = []
    for config in configs:
        runnable = replace(config, ifo_budget=budget, outer_loops=None,
                           seed=_derived_seed(config))
        try:
            traces.append(run(problem, runnable, f_star=f_star,
                              evaluate=evaluate))
        except ConfigError as exc:
            raise ConfigError(f"config {config.config_id!r}: {exc}") from exc
    return traces


def bench_configs(problem: ErmProblem, seed: int = 0) -> list[SolverConfig]:
    """The five-solver comparison lineup run by the bench command: SGD, both
    fixed-step uniform-averaging baselines, and both tune-free secant-step
    tail-weighted solvers."""
    big_l, _, kappa = problem.constants()
    m5 = max(2, math.ceil(5.0 * kappa))
    return [
        SolverConfig("sgd", seed=seed, name="sgd"),
        SolverConfig("svrg", step=FixedStep(0.1 / big_l),
                     inner=FixedLength(m5),
                     averaging=AveragingScheme.UNIFORM,
                     seed=seed, name="svrg_u"),
        SolverConfig("sarah", step=FixedStep(0.5 / big_l),
                     inner=FixedLength(m5),
                     averaging=AveragingScheme.UNIFORM,
                     seed=seed, name="sarah_u"),
        SolverConfig("svrg", step=BarzilaiBorweinStep(4.0 * kappa),
                     inner=AdaptiveLength(1.0),
                     averaging=AveragingScheme.WEIGHTED_SVRG,
                     seed=seed, name="bb_svrg_w"),
        SolverConfig("sarah", step=BarzilaiBorweinStep(kappa),
                     inner=AdaptiveLength(1.0),
                     averaging=AveragingScheme.WEIGHTED_SARAH,
                     seed=seed, name="bb_sarah_w"),
    ]


TRACE_HEADER = "config_id,s,eta_s,m_s,M_s,ifo_total,sample_passes,gap,grad_sq"
RATE_HEADER = "scheme,x,lambda,defined"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_trace_csv(traces: Sequence[Trace]) -> str:
    """Render traces as CSV, one row per evaluation point, rows in
    (config, s) order. Floats use shortest round-trip decimals so parsing
    the file recovers identical numbers."""
    if not traces:
        raise ValueError("no traces to emit")
    lines = [TRACE_HEADER]
    for trace in traces:
        if "," in trace.config_id:
            raise ValueError(f"config id {trace.config_id!r} contains a comma")
        for p in trace.points:
            lines.append(",".join([
                trace.config_id, str(p.s), _cell(p.eta_s), _cell(p.m_s),
                _cell(p.snapshot_index), str(p.ifo_total),
                repr(p.ifo_total / trace.n), _cell(p.gap), _cell(p.grad_sq),
            ]))
    return "\n".join(lines) + "\n"


def write_trace_csv(traces: Sequence[Trace], path: str | os.PathLike) -> None:
    Path(path).write_text(format_trace_csv(traces), encoding="utf-8")


def load_trace_csv(text: str) -> list[Trace]:
    """Inverse of format_trace_csv. n is recovered from ifo_total /
    sample_passes, so every trace must contain at least one charged point."""
    lines = text.splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        raise ValueError("missing or unexpected trace CSV header")
    grouped: dict[str, list[TracePoint]] = {}
    order: list[str] = []
    ns: dict[str, int] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != 9:
            raise ValueError(f"line {lineno}: expected 9 cells, got {len(cells)}")
        cid = cells[0]
        point = TracePoint(
            s=int(cells[1]),
            eta_s=float(cells[2]) if cells[2] else None,
            m_s=int(cells[3]) if cells[3] else None,
            snapshot_index=int(cells[4]) if cells[4] else None,
            ifo_total=int(cells[5]),
            gap=float(cells[7]) if cells[7] else None,
            grad_sq=float(cells[8]) if cells[8] else None,
        )
        if cid not in grouped:
            grouped[cid] = []
            order.append(cid)
        grouped[cid].append(point)
        passes = float(cells[6])
        if point.ifo_total > 0 and passes > 0 and cid not in ns:
            ns[cid] = round(point.ifo_total / passes)
    traces = []
    for cid in order:
        if cid not in ns:
            raise ValueError(f"trace {cid!r} has no charged point; "
                             "cannot recover n")
        traces.append(Trace(cid, ns[cid], tuple(grouped[cid])))
    return traces


def format_rate_csv(rows: Iterable[GridRow]) -> str:
    """Render rate-grid rows; undefined points keep an empty lambda cell and
    defined=false so plots can show gaps instead of fake values."""
    lines = [RATE_HEADER]
    for row in rows:
        lam = "" if row.value is None else repr(row.value)
        flag = "true" if row.defined else "false"
        lines.append(f"{row.scheme},{row.x!r},{lam},{flag}")
    return "\n".join(lines) + "\n"


def write_rate_csv(rows: Iterable[GridRow], path: str | os.PathLike) -> None:
    Path(path).write_text(format_rate_csv(rows), encoding="utf-8")
