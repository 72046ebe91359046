"""Experiment orchestration: reference optima and parsed datasets (computed
once, cached on disk), equal-budget multi-config runs, and the CSV emission
used by the command-line tools and plots.

Budgets are expressed in sample passes (IFO / n). Evaluation work never
touches the budget; all configs in a comparison stop within one outer loop
of the same IFO total.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import tempfile
import zipfile
import zlib
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .averaging import AveragingScheme
from .problems import ErmProblem
# serialize_libsvm is not used here; perfbench/tracing.py patches
# vropt.harness.serialize_libsvm
from .dataset import Dataset, serialize_libsvm  # noqa: F401
from .rates import GridRow
from .solvers import (AdaptiveLength, BarzilaiBorweinStep, ConfigError,
                      FixedLength, FixedStep, SolverConfig, run)
from .trace import Trace, TracePoint

__all__ = [
    "ReferenceOptimum", "compute_reference", "cached_reference",
    "cached_dataset", "problem_key",
    "run_experiment", "bench_configs",
    "TRACE_HEADER", "RATE_HEADER",
    "format_trace_csv", "write_trace_csv", "load_trace_csv",
    "format_rate_csv", "write_rate_csv",
]

_CACHE_ENV = "VROPT_CACHE_DIR"


@dataclass(frozen=True, eq=False)
class ReferenceOptimum:
    """Minimizer estimate used to plot optimality gaps."""

    x_star: np.ndarray
    f_star: float
    grad_norm: float


def compute_reference(problem: ErmProblem, tol: float = 1e-10) -> ReferenceOptimum:
    """Solve the problem to high accuracy with deterministic full gradients.

    Every problem takes one path: a limited-memory BFGS (L-BFGS) from the
    origin, then gradient descent with step 1/L as the polish, until the
    gradient norm is at most tol. The L-BFGS iterations and the polish
    steps share one iteration cap. Each point is evaluated once, through
    value_and_grad, so its value and gradient come from one margins pass
    and f_star is the value the solve already holds. That oracle takes no
    counter, so the solve charges no IFO and draws no random numbers.

    Raises:
        ValueError: mu = 0 (the solve needs strong convexity), bad tol.
        RuntimeError: iteration cap reached before tol.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not problem.mu > 0:
        raise ValueError("reference solver needs mu > 0")
    cap = max(10_000, math.ceil(60.0 * problem.kappa))
    x, f, g, steps = _lbfgs(problem, np.zeros(problem.d), tol, cap)
    step = 1.0 / problem.smoothness
    gn = float(np.linalg.norm(g))
    while gn > tol:
        if steps >= cap:
            raise RuntimeError(
                f"reference solver hit the {cap}-iteration cap with "
                f"gradient norm {gn:.3e} > tol {tol:.3e}")
        x = x - step * g
        f, g = problem.value_and_grad(x)
        gn = float(np.linalg.norm(g))
        steps += 1
    return ReferenceOptimum(x, f, gn)


_LBFGS_PAIRS = 3  # (s, y) pairs kept; each pair costs 2d floats of memory
_ARMIJO_C = 1e-4
_MIN_STEP = 2.0 ** -40  # the line search gives up below this t
_FLAT_RTOL = 1e-14  # trial values this close to f differ by rounding only


def _lbfgs(problem: ErmProblem, x: np.ndarray, tol: float,
           cap: int) -> tuple[np.ndarray, float, np.ndarray, int]:
    """L-BFGS (Liu and Nocedal, Math. Prog. 1989) from x until the gradient
    norm is at most tol, `cap` iterations pass, or the line search finds no
    decrease. Returns the last iterate, its value and gradient, and the
    number of iterations taken.

    The direction is the two-loop recursion over the newest pairs, scaled
    by H0 = s.y / y.y, or by 1/L before the first pair. A pair with
    s.y <= 0 is not stored. The Armijo backtracking halves t from 1; a
    trial value that is not finite fails like one that decreases too
    little. A failed trial whose value equals f up to rounding is taken
    when its gradient norm is smaller than at x, since f can no longer
    rank the two points. The search finds no decrease when t falls below
    2^-40.
    """
    pairs: deque[tuple[np.ndarray, np.ndarray, float]] = \
        deque(maxlen=_LBFGS_PAIRS)
    f, g = problem.value_and_grad(x)
    gn = float(np.linalg.norm(g))
    steps = 0
    while steps < cap and gn > tol:
        d = -g
        alphas = []
        for s, y, sy in reversed(pairs):
            alphas.append(float(s @ d) / sy)
            d -= alphas[-1] * y
        if pairs:
            s, y, sy = pairs[-1]
            d *= sy / float(y @ y)
        else:
            d /= problem.smoothness
        for (s, y, sy), alpha in zip(pairs, reversed(alphas)):
            d += (alpha - float(y @ d) / sy) * s
        slope = float(g @ d)
        if not slope < 0:  # a direction lost to rounding; polish instead
            break
        t = 1.0
        while True:
            x_new = x + t * d
            f_new, g_new = problem.value_and_grad(x_new)
            gn_new = float(np.linalg.norm(g_new))
            if math.isfinite(f_new) and f_new <= f + _ARMIJO_C * t * slope:
                break
            # where f cannot rank the two points any more, the gradient can
            if abs(f_new - f) <= _FLAT_RTOL * abs(f) and gn_new < gn:
                break
            if t < _MIN_STEP:
                return x, f, g, steps
            t *= 0.5
        s, y = x_new - x, g_new - g
        sy = float(s @ y)
        if sy > 0:
            pairs.append((s, y, sy))
        x, f, g, gn = x_new, f_new, g_new, gn_new
        steps += 1
    return x, f, g, steps


def problem_key(problem: ErmProblem) -> str:
    """Content hash of the loss kind, the rows, their dimension, the targets
    and mu; keys the reference cache. Arrays are hashed in fixed
    little-endian dtypes, so the key does not depend on the platform's
    integer width."""
    h = hashlib.sha256()
    h.update(f"{problem.kind} n={problem.n} nnz={problem.indices.size} "
             f"dim={problem.d}\n".encode("utf-8"))
    targets = problem.targets
    for array, dtype in ((problem.indptr, "<i8"), (problem.indices, "<i8"),
                         (problem.data, "<f8"),
                         (targets, targets.dtype.newbyteorder("<"))):
        h.update(np.asarray(array, dtype=dtype).tobytes())
    h.update(f"\nmu={problem.mu!r}".encode("utf-8"))
    return h.hexdigest()[:16]


def _cache_path(name: str, cache_dir: str | os.PathLike | None) -> Path:
    if cache_dir is None:
        cache_dir = os.environ.get(_CACHE_ENV) \
            or Path.home() / ".cache" / "vropt"
    return Path(cache_dir) / f"{name}.npz"


# (dtype, ndim) of every array in a cache entry. An entry's scalars share
# one record, "meta": np.load pays about 0.1 ms per array it reads.
_REFERENCE_FIELDS = {
    "meta": (np.dtype([("key", "<U16"), ("dim", "<i8"), ("tol", "<f8"),
                       ("f_star", "<f8"), ("grad_norm", "<f8")]), 0),
    "x_star": ("<f8", 1)}
_DATASET_FIELDS = {
    "meta": (np.dtype([("sha256", "<U64"), ("dim", "<i8")]), 0),
    "indptr": ("<i8", 1), "indices": ("<i8", 1), "data": ("<f8", 1),
    "labels": ("i1", 1)}


def _read_entry(path: Path, fields: dict) -> dict[str, np.ndarray] | None:
    """The arrays of an .npz cache entry; None when the file is absent or
    unreadable, holds pickled objects, or lacks a field or gives one
    another dtype or rank. A cache file is input from outside the
    program, so every failure to read it is a miss."""
    try:
        npz = np.load(path, allow_pickle=False)
        if not isinstance(npz, np.lib.npyio.NpzFile):  # a bare .npy array
            return None
        with npz:
            entry = {name: npz[name] for name in fields}
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        return None
    for name, (dtype, ndim) in fields.items():
        a = entry[name]  # a member that is not .npy data loads as bytes
        if not isinstance(a, np.ndarray) or a.dtype != dtype or a.ndim != ndim:
            return None
    return entry


def _write_entry(path: Path, fields: dict, arrays: dict) -> None:
    """Write the arrays, cast to the fields' dtypes, as an .npz entry. A
    failed write is ignored: an unwritable cache costs the next start a
    parse or a solve, no more, so every command runs without one."""
    buf = io.BytesIO()
    np.savez(buf, **{name: np.asarray(arrays[name], dtype=fields[name][0])
                     for name in fields})
    try:
        _write_atomic(path, buf.getvalue())
    except OSError:
        pass


def _load_cached(path: Path, key: str, dim: int,
                 tol: float) -> ReferenceOptimum | None:
    """Read a cache entry; None when absent, unreadable, stale, or not
    tight enough."""
    entry = _read_entry(path, _REFERENCE_FIELDS)
    if entry is None:
        return None
    meta, x_star = entry["meta"], entry["x_star"]
    if str(meta["key"]) != key or int(meta["dim"]) != dim \
            or x_star.size != dim:
        return None
    grad_norm = float(meta["grad_norm"])
    if not grad_norm <= tol:
        return None
    return ReferenceOptimum(x_star, float(meta["f_star"]), grad_norm)


def cached_reference(problem: ErmProblem, tol: float = 1e-10,
                     cache_dir: str | os.PathLike | None = None) -> ReferenceOptimum:
    """compute_reference with a disk cache.

    The cache directory is the cache_dir argument, else $VROPT_CACHE_DIR,
    else ~/.cache/vropt. Entries are NumPy .npz archives named
    ref-<key>.npz, key = problem_key(problem). Each holds x_star (float64,
    so it reads back bit for bit) and a record "meta" of the key and dim it
    belongs to, f_star, grad_norm and the tol it was solved for. A cached
    solution is reused only when its key, dimension, and achieved gradient
    norm satisfy the current request; any other entry, or one that cannot
    be read, is recomputed and replaced. The file is written under a
    temporary name and renamed into place, so an interrupted write leaves
    no partial file; a write that fails is ignored.
    """
    key = problem_key(problem)
    path = _cache_path(f"ref-{key}", cache_dir)
    hit = _load_cached(path, key, problem.d, tol)
    if hit is not None:
        return hit
    ref = compute_reference(problem, tol=tol)
    _write_entry(path, _REFERENCE_FIELDS, {
        "meta": (key, problem.d, tol, ref.f_star, ref.grad_norm),
        "x_star": ref.x_star})
    return ref


def cached_dataset(raw: bytes, parse: Callable[[str], Dataset],
                   cache_dir: str | os.PathLike | None = None) -> Dataset:
    """parse(raw decoded as UTF-8), with a disk cache keyed by the bytes.

    The entry is data-<first 16 hex digits of sha256(raw)>.npz in the
    cached_reference directory. It holds the CSR arrays, the labels and a
    record "meta" of the full digest and dim. A hit must carry the full
    digest and passes through Dataset's checks again; an entry that is
    missing, unreadable, carries another digest or is not canonical is a
    miss. A miss parses and writes the entry atomically; a decode or parse
    error propagates and writes nothing. A failed write is ignored, as in
    cached_reference.
    """
    digest = hashlib.sha256(raw).hexdigest()
    path = _cache_path(f"data-{digest[:16]}", cache_dir)
    entry = _read_entry(path, _DATASET_FIELDS)
    if entry is not None and str(entry["meta"]["sha256"]) == digest:
        try:
            return Dataset(entry["indptr"], entry["indices"], entry["data"],
                           entry["labels"], int(entry["meta"]["dim"]))
        except ValueError:
            pass  # not canonical: parse again and replace it
    ds = parse(raw.decode("utf-8"))
    _write_entry(path, _DATASET_FIELDS, {
        "meta": (digest, ds.dim), "indptr": ds.indptr,
        "indices": ds.indices, "data": ds.data, "labels": ds.labels})
    return ds


def _write_atomic(path: Path, content: bytes) -> None:
    """Write content to a temporary file next to path (making the directory
    if needed), then rename it over path, so readers see the old file or
    the whole new one, never a part."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(content)
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
