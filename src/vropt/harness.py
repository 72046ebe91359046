"""Experiment orchestration: reference optima and parsed datasets (computed
once, cached on disk), equal-budget multi-config runs, and the CSV emission
used by the command-line tools and plots.

Budgets are expressed in sample passes (IFO / n). Evaluation work never
touches the budget; all configs in a comparison stop within one outer loop
of the same IFO total.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import re
import tempfile
import zlib
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .averaging import SCHEMES, AveragingScheme
from .problems import ErmProblem
# serialize_libsvm is not used here; perfbench/tracing.py patches
# vropt.harness.serialize_libsvm
from .dataset import Dataset, serialize_libsvm  # noqa: F401
from .rates import GridRow
from .solvers import (AdaptiveLength, BarzilaiBorweinStep, ConfigError,
                      FixedLength, FixedStep, SolverConfig, check_config,
                      inner_length, positive, run)
from .trace import Trace, TracePoint, config_id_flaw

__all__ = [
    "ReferenceOptimum", "compute_reference", "cached_reference",
    "cached_dataset", "problem_key",
    "check_experiment", "run_experiment", "bench_configs",
    "TRACE_HEADER", "RATE_HEADER",
    "format_trace_csv", "write_trace_csv", "load_trace_csv",
    "format_rate_csv", "write_rate_csv",
]

_CACHE_ENV = "VROPT_CACHE_DIR"


@dataclass(frozen=True, eq=False)
class ReferenceOptimum:
    """The optimum's value f_star, which optimality gaps f(x) - f_star
    subtract, and the gradient norm at the point that reached it."""

    f_star: float
    grad_norm: float


_LBFGS_PAIRS = 3  # (s, y) pairs kept; each pair costs 2d floats of memory
_ARMIJO_C = 1e-4
_MIN_STEP = 2.0 ** -41  # the last trial step of the line search
_FLAT_RTOL = 1e-14  # trial values this close to f differ by rounding only
_MAX_ITERATIONS = 10_000


def compute_reference(problem: ErmProblem, tol: float = 1e-10) -> ReferenceOptimum:
    """Solve the problem to high accuracy with deterministic full gradients.

    Every problem takes one path: L-BFGS (Liu and Nocedal, Math. Prog.
    1989) from the origin until the gradient norm is at most tol. The
    direction is the two-loop recursion over the newest 3 pairs, scaled by
    H0 = s.y / y.y, or by 1/L before the first pair. A pair with s.y <= 0
    is not stored. The Armijo backtracking halves t from 1; a trial value
    that is not finite fails like one that decreases too little. A failed
    trial whose value equals f up to rounding is taken when its gradient
    norm is smaller than at x, since f can no longer rank the two points.
    Each point is evaluated once, through value_and_grad, so its value and
    gradient come from one margins pass; f_star and grad_norm are the
    value and gradient norm the solve already holds at its last point,
    which is not returned. That oracle takes no counter, so the solve
    charges no IFO and draws no random numbers.

    Raises:
        ValueError: mu = 0 (the solve needs strong convexity), or a tol
            that is not positive and finite.
        RuntimeError: 10,000 iterations pass before tol, or no
            decrease is found: the direction is not a descent direction
            (lost to rounding), or every trial down to t = 2^-41 fails.
    """
    positive("tol", tol)
    if not problem.mu > 0:
        raise ValueError("reference solver needs mu > 0")
    pairs = deque(maxlen=_LBFGS_PAIRS)  # (s, y, s.y), oldest first
    x = np.zeros(problem.d)
    f, g = problem.value_and_grad(x)
    gn = float(np.linalg.norm(g))
    steps = 0
    while gn > tol:
        if steps == _MAX_ITERATIONS:
            raise RuntimeError(
                f"reference solver hit the {_MAX_ITERATIONS}-iteration cap "
                f"with gradient norm {gn:.3e} > tol {tol:.3e}")
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
        t = 1.0
        while slope < 0 and t >= _MIN_STEP:
            x_new = x + t * d
            f_new, g_new = problem.value_and_grad(x_new)
            gn_new = float(np.linalg.norm(g_new))
            if math.isfinite(f_new) and f_new <= f + _ARMIJO_C * t * slope:
                break
            # where f cannot rank the two points any more, the gradient can
            if abs(f_new - f) <= _FLAT_RTOL * abs(f) and gn_new < gn:
                break
            t *= 0.5
        else:
            raise RuntimeError(
                f"reference solver found no decrease at gradient norm "
                f"{gn:.3e} > tol {tol:.3e}")
        s, y = x_new - x, g_new - g
        sy = float(s @ y)
        if sy > 0:
            pairs.append((s, y, sy))
        x, f, g, gn = x_new, f_new, g_new, gn_new
        steps += 1
    return ReferenceOptimum(f, gn)


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
        # hashes the buffer in place when it already has the dtype
        h.update(np.ascontiguousarray(array, dtype=dtype))
    h.update(f"\nmu={problem.mu!r}".encode("utf-8"))
    return h.hexdigest()[:16]


def _cache_path(name: str) -> Path:
    cache_dir = os.environ.get(_CACHE_ENV) or Path.home() / ".cache" / "vropt"
    return Path(cache_dir) / f"{name}.npy"


# A cache entry is one .npy file holding a 0-d structured record: these
# fields as (name, base dtype, rank) in this order, each rank-1 field a
# subarray sized to the entry, then "crc32", the zlib.crc32 of every byte
# of the record before it. One record takes one read, where np.load pays
# about 0.1 ms for each array of an .npz archive.
_REFERENCE_FIELDS = (("key", "<U16", 0), ("f_star", "<f8", 0),
                     ("grad_norm", "<f8", 0))
_DATASET_FIELDS = (("sha256", "<U64", 0), ("dim", "<i8", 0),
                   ("indptr", "<i8", 1), ("indices", "<i8", 1),
                   ("data", "<f8", 1), ("labels", "i1", 1))
_CRC_FIELD = ("crc32", "<u4", 0)


def _record_crc(record: np.ndarray) -> int:
    """zlib.crc32 of the bytes of a 0-d record that precede its crc32
    field, read in place."""
    offset = record.dtype.fields["crc32"][1]
    return zlib.crc32(record.reshape(1).view(np.uint8)[:offset])


# a rank-1 field as the header of an entry writes it: ('data', '<f8', (5,))
_SUBARRAY = re.compile(r"\('(\w+)', '[^']*', \((\d+),\)\)")


def _read_entry(path: Path, fields: tuple) -> np.ndarray | None:
    """The 0-d record of an .npy cache entry, read in place: a read-only
    view of the file's bytes, read at once. None when the file is absent
    or unreadable; when its header is not byte for byte the one np.save
    writes for a 0-d record of fields and crc32, each rank-1 field sized as
    the header says (so another .npy version, field, dtype, shape or order,
    pickled objects or an .npz archive are refused); when the file's
    length is not that header's plus the record's; or when the record
    fails its CRC. A cache file is input from outside the program, so
    every failure to read it is a miss. Rebuilding the header costs less
    than parsing it, which np.load does with ast.literal_eval."""
    try:
        raw = path.read_bytes()
    except OSError:
        return None
    end = 10 + int.from_bytes(raw[8:10], "little")  # a version 1.0 header
    sizes = dict(_SUBARRAY.findall(raw[10:end].decode("latin-1")))
    try:
        dtype = np.dtype([(name, base, (int(sizes[name]),) if ndim else ())
                          for name, base, ndim in fields + (_CRC_FIELD,)])
    except (KeyError, ValueError):  # a size missing, or past numpy's range
        return None
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, {
        "descr": np.lib.format.dtype_to_descr(dtype),
        "fortran_order": False, "shape": ()})
    if raw[:end] != header.getvalue() or len(raw) != end + dtype.itemsize:
        return None
    record = np.frombuffer(raw, dtype, count=1, offset=end).reshape(())
    if _record_crc(record) != record["crc32"]:
        return None
    return record


def _write_entry(path: Path, fields: tuple, values: dict) -> None:
    """Write the values, cast to the fields' dtypes, as one .npy record
    with its crc32. A failed write is ignored: an unwritable cache costs
    the next start a parse or a solve, no more, so every command runs
    without one. A record numpy cannot lay out (a rank-1 field of 2^31 or
    more entries) is not written either."""
    try:
        record = np.zeros((), [
            (name, base, (len(values[name]),) if ndim else ())
            for name, base, ndim in fields + (_CRC_FIELD,)])
    except ValueError:  # a subarray size must fit a C int
        return
    for name, _, _ in fields:
        record[name] = values[name]
    record["crc32"] = _record_crc(record)
    try:
        _write_atomic(path, record)
    except OSError:
        pass


def cached_reference(problem: ErmProblem,
                     tol: float = 1e-10) -> ReferenceOptimum:
    """compute_reference with a disk cache.

    The cache directory is $VROPT_CACHE_DIR, else ~/.cache/vropt, for every
    caller. Entries are NumPy .npy files named ref-<key>.npy, key =
    problem_key(problem) (which hashes dim too). Each holds one record of
    276 bytes whatever the dimension: the key it belongs to, f_star and
    grad_norm (float64, so they read back bit for bit) and a CRC-32 of
    these. A cached solution is reused only when its CRC, key and
    achieved gradient norm satisfy the current request; any other entry,
    one in another layout included, or one that cannot be read, is
    recomputed and replaced. The file is written under a temporary name
    and renamed into place, so an interrupted write leaves no partial
    file; a write that fails is ignored. A tol that is not positive and
    finite raises ValueError before the cache is read: any entry, or f(0),
    would meet an infinite one.
    """
    positive("tol", tol)
    key = problem_key(problem)
    path = _cache_path(f"ref-{key}")
    entry = _read_entry(path, _REFERENCE_FIELDS)
    # a NaN grad_norm is not tight enough either
    if entry is not None and str(entry["key"]) == key \
            and entry["grad_norm"] <= tol:
        return ReferenceOptimum(float(entry["f_star"]),
                                float(entry["grad_norm"]))
    ref = compute_reference(problem, tol=tol)
    _write_entry(path, _REFERENCE_FIELDS, {
        "key": key, "f_star": ref.f_star, "grad_norm": ref.grad_norm})
    return ref


def cached_dataset(raw: bytes, parse: Callable[[str], Dataset]) -> Dataset:
    """parse(raw decoded as UTF-8), with a disk cache keyed by the bytes.

    The entry is data-<first 16 hex digits of sha256(raw)>.npy in the
    cache directory ($VROPT_CACHE_DIR, else ~/.cache/vropt). It holds one
    record: the full digest, dim, the CSR arrays, the labels and a CRC-32
    of all of these. A hit must pass its CRC, carry the full digest and
    pass through Dataset's checks again; an entry that is missing,
    unreadable, damaged, carries another digest or is not canonical is a
    miss. A miss parses and writes the entry atomically; a decode or parse
    error propagates and writes nothing. A failed write is ignored, as in
    cached_reference.
    """
    digest = hashlib.sha256(raw).hexdigest()
    path = _cache_path(f"data-{digest[:16]}")
    entry = _read_entry(path, _DATASET_FIELDS)
    if entry is not None and str(entry["sha256"]) == digest:
        try:
            return Dataset._adopt(entry["indptr"], entry["indices"],
                                  entry["data"], entry["labels"],
                                  int(entry["dim"]))
        except ValueError:
            pass  # not canonical: parse again and replace it
    ds = parse(raw.decode("utf-8"))
    _write_entry(path, _DATASET_FIELDS, {
        "sha256": digest, "dim": ds.dim, "indptr": ds.indptr,
        "indices": ds.indices, "data": ds.data, "labels": ds.labels})
    return ds


def _write_atomic(path: Path, record: np.ndarray) -> None:
    """np.save the record to a temporary file next to path (making the
    directory if needed), then rename it over path, so readers see the old
    file or the whole new one, never a part."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.save(fh, record)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _ifo_budget(passes: float, n: int) -> int:
    """ceil(passes * n); ValueError when that is NaN, infinite or < 0."""
    budget = passes * n
    # a chained comparison is False for NaN, so this also rejects it
    if not 0 <= budget < math.inf:
        raise ValueError(f"passes * n must be finite and >= 0, got "
                         f"{passes!r} * {n}")
    return math.ceil(budget)


def _runnables(problem: ErmProblem, configs: Sequence[SolverConfig],
               passes: float) -> list[SolverConfig]:
    budget = _ifo_budget(passes, problem.n)
    return [replace(config, ifo_budget=budget, outer_loops=None)
            for config in configs]


@contextlib.contextmanager
def _config_id_on_errors(config: SolverConfig):
    """Re-raise any ValueError as a ConfigError that names the config."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"config {config.config_id!r}: {exc}") from exc


def check_experiment(problem: ErmProblem, configs: Sequence[SolverConfig],
                     passes: float) -> None:
    """Make every check run_experiment makes before a run's first outer
    loop, with the same errors: the budget, then check_config for each
    config with its seed as given. The CLI calls this before it solves for
    the reference, so an experiment that cannot start solves and caches no
    reference."""
    for config in _runnables(problem, configs, passes):
        with _config_id_on_errors(config):
            check_config(problem, config)


def run_experiment(problem: ErmProblem, configs: Sequence[SolverConfig],
                   passes: float, f_star: float | None = None,
                   evaluate: bool = True) -> list[Trace]:
    """Run every config against the same IFO budget of ceil(passes * n).

    Each run draws from its own generator seeded with seed ^ crc32(config_id),
    so identical configs produce identical traces and renamed copies do not.
    Every config is checked (check_experiment) before the first one runs.
    Every ValueError from a config's check or run, decay_rate's included,
    is re-raised as a ConfigError that names the config id.
    """
    check_experiment(problem, configs, passes)
    traces = []
    for config in _runnables(problem, configs, passes):
        seed = config.seed ^ zlib.crc32(config.config_id.encode("utf-8"))
        with _config_id_on_errors(config):
            traces.append(run(problem, replace(config, seed=seed),
                              f_star=f_star, evaluate=evaluate))
    return traces


def bench_configs(problem: ErmProblem, seed: int = 0) -> list[SolverConfig]:
    """The five-solver comparison lineup run by the bench command: SGD, both
    fixed-step uniform-averaging baselines, and both tune-free secant-step
    tail-weighted solvers. Raises ConfigError when the fixed-step
    baselines' inner length 5 * kappa is not finite or too large."""
    big_l, _, kappa = problem.constants()
    m5 = inner_length(5.0 * kappa, "inner length 5 * kappa =")
    tuned = [(algo, pairs["w"]) for algo, pairs in SCHEMES.items()]
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
        *[SolverConfig(algo, step=BarzilaiBorweinStep(
                           theta_over_kappa * kappa),
                       inner=AdaptiveLength(1.0), averaging=scheme,
                       seed=seed, name=f"bb_{algo}_w")
          for algo, (scheme, theta_over_kappa, _) in tuned],
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
        flaw = config_id_flaw(trace.config_id)
        if flaw:
            raise ValueError(f"config id {trace.config_id!r} contains {flaw}")
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
    # first-seen order of the config ids: a dict keeps insertion order
    grouped: dict[str, list[TracePoint]] = {}
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
        grouped.setdefault(cid, []).append(point)
        passes = float(cells[6])
        if point.ifo_total > 0 and passes > 0 and cid not in ns:
            ns[cid] = round(point.ifo_total / passes)
    traces = []
    for cid, points in grouped.items():
        if cid not in ns:
            raise ValueError(f"trace {cid!r} has no charged point; "
                             "cannot recover n")
        traces.append(Trace(cid, ns[cid], tuple(points)))
    return traces


def format_rate_csv(rows: Iterable[GridRow]) -> str:
    """Render rate-grid rows; undefined points keep an empty lambda cell and
    defined=false so plots can show gaps instead of fake values.

    A sweep repeats each x once per scheme, so each distinct float x is
    formatted once per call. Zeros are formatted every time: 0.0 and -0.0
    are one key but print apart."""
    lines = [RATE_HEADER]
    cells: dict[float, str] = {}
    for scheme, x, value in rows:
        if type(x) is float and x:
            cell = cells.get(x)
            if cell is None:
                cell = cells[x] = repr(x)
        else:
            cell = repr(x)
        if value is None:
            lines.append(f"{scheme},{cell},,false")
        else:
            lines.append(f"{scheme},{cell},{value!r},true")
    return "\n".join(lines) + "\n"


def write_rate_csv(rows: Iterable[GridRow], path: str | os.PathLike) -> None:
    Path(path).write_text(format_rate_csv(rows), encoding="utf-8")
