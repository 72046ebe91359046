import math

import numpy as np
import pytest

from vropt import (AveragingScheme, Dataset, ErmProblem, LibsvmParseError,
                   LogisticProblem, compute_reference, generate_synthetic,
                   normalize_rows, sample_snapshot_index, weights)
from vropt.averaging import decay_rate
from vropt.solvers import _inner_steps


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """The cache directory of every test, $VROPT_CACHE_DIR: kept out of the
    real home directory, and not made until an entry is written."""
    cache = tmp_path / "refcache"
    monkeypatch.setenv("VROPT_CACHE_DIR", str(cache))
    return cache


def line_loop_parse(source):
    """parse_libsvm as one Python loop over lines and tokens, as it was
    before it read blocks in bulk: the oracle for its results and its
    error messages."""
    labels, indptr, indices, values = [], [0], [], []
    for line_no, line in enumerate(source.splitlines(), start=1):
        if not line.strip():
            continue
        tokens = line.split()
        if tokens[0] in ("+1", "1"):
            labels.append(1)
        elif tokens[0] in ("-1", "0"):
            labels.append(-1)
        else:
            raise LibsvmParseError(
                f"line {line_no}: unrecognized label {tokens[0]!r}")
        prev = 0
        for tok in tokens[1:]:
            idx_s, sep, val_s = tok.partition(":")
            if not sep:
                raise LibsvmParseError(
                    f"line {line_no}: malformed token {tok!r}")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise LibsvmParseError(
                    f"line {line_no}: malformed token {tok!r}") from None
            if idx < 1:
                raise LibsvmParseError(
                    f"line {line_no}: index {idx} is not positive")
            # a float64 vector of dim entries must have a byte size
            # np.intp holds
            if idx > np.iinfo(np.intp).max // 8:
                raise LibsvmParseError(
                    f"line {line_no}: index {idx} is too large")
            if idx <= prev:
                raise LibsvmParseError(
                    f"line {line_no}: index {idx} not increasing "
                    f"(after {prev})")
            prev = idx
            if val == 0.0:
                continue
            if not math.isfinite(val):
                raise LibsvmParseError(
                    f"line {line_no}: value {val_s!r} is not finite")
            indices.append(idx - 1)
            values.append(val)
        indptr.append(len(indices))
    if not labels:
        raise LibsvmParseError("no data rows found")
    return Dataset(indptr, indices, values, labels,
                   max(indices, default=0) + 1)


def line_loop_serialize(ds):
    """serialize_libsvm as one f-string per entry and one join per row, as
    it was before it formatted blocks of rows: the oracle for its bytes."""
    indptr = ds.indptr.tolist()
    cols = (ds.indices + 1).tolist()
    vals = ds.data.tolist()
    out = []
    for i, label in enumerate(ds.labels.tolist()):
        lo, hi = indptr[i], indptr[i + 1]
        parts = ["+1" if label == 1 else "-1"]
        parts.extend(f"{c}:{v!r}" for c, v in zip(cols[lo:hi], vals[lo:hi]))
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


def row_loop_rate_csv(rows):
    """format_rate_csv as one f-string per row, each x formatted where it
    stands, as it was before it formatted each distinct x once: the oracle
    for its bytes."""
    lines = ["scheme,x,lambda,defined"]
    for scheme, x, value in rows:
        if value is None:
            lines.append(f"{scheme},{x!r},,false")
        else:
            lines.append(f"{scheme},{x!r},{value!r},true")
    return "\n".join(lines) + "\n"


def whole_array_weights(scheme, m, mu=None, eta=None):
    """weights as it was before it filled its result in place, building
    the powers, the raw terms and their quotient as arrays of their own:
    the oracle for its bytes and its errors."""
    if m < 2:
        raise ValueError(f"inner length m must be >= 2, got {m}")
    p = np.zeros(m + 1)
    if scheme is AveragingScheme.UNIFORM:
        p[:m] = 1.0 / m
    elif scheme is AveragingScheme.LAST_SVRG:
        p[m] = 1.0
    elif scheme is AveragingScheme.LAST_SARAH:
        p[m - 1] = 1.0
    else:
        if mu is None or eta is None:
            raise ValueError(f"{scheme.name} weights need mu and eta")
        delta = decay_rate(mu, eta)
        powers = np.cumprod(np.full(m - 1, 1.0 - delta))
        if scheme is AveragingScheme.WEIGHTED_SVRG:
            raw = np.empty(m - 1)
            raw[-1] = 1.0
            raw[:-1] = powers[:m - 2][::-1]
            q = float(raw.sum())
            p[1:m] = raw / q
        else:
            raw = 1.0 - powers[::-1]
            c = float(raw.sum())
            if not np.isfinite(c) or c <= 0.0:
                raise ValueError(
                    f"degenerate weighted normalizer c = {c} at m = {m}, "
                    f"mu*eta = {delta}; m is too small for these constants")
            p[:m - 1] = raw / c
    p.setflags(write=False)
    return p


def whole_cumsum_sample(w, rng):
    """sample_snapshot_index as it was before it summed w one chunk at a
    time, over one np.cumsum of all of w: the oracle for its index."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or w.size < 1:
        raise ValueError("weights must be a nonempty 1-D array")
    if w.min() < 0.0:
        raise ValueError("weights must be nonnegative")
    cum = np.cumsum(w)
    total = float(cum[-1])
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(f"weights sum to {total}, expected 1")
    u = rng.random()
    idx = int(np.searchsorted(cum, u, side="right"))
    if idx == w.size:
        idx = int(np.flatnonzero(w)[-1])
    return idx


def make_logistic(n, d, seed, kappa, sep=3.0):
    """Synthetic logistic problem with condition number exactly kappa.

    Rows are normalized to unit norm, so L = 1/4 + mu and choosing
    mu = 0.25/(kappa - 1) pins L/mu = kappa.
    """
    ds = normalize_rows(generate_synthetic(n, d, seed, sep))
    return LogisticProblem(ds, 0.25 / (kappa - 1.0))


class RidgeProblem(ErmProblem):
    """Ridge regression: f_i(x) = (1/2)(<a_i,x> - y_i)^2 + (mu/2)||x||^2,
    with L = max_i ||a_i||^2 + mu. Rows are given dense and kept only as CSR.
    The tests' quadratic with a known optimum (ridge_minimizer).

    mu = 0 is accepted (kappa becomes inf); solvers that need strong
    convexity validate mu > 0 themselves.
    """

    kind = "ridge"

    def __init__(self, rows, targets, mu):
        rows = np.asarray(rows, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        row_of, cols = np.nonzero(rows)
        indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(rows, 1))))
        self._y = targets.tolist()
        super().__init__(indptr, cols, rows[row_of, cols], row_of,
                         rows.shape[1], targets, mu,
                         float(np.max(np.einsum("ij,ij->i", rows, rows)) + mu))

    def loss_deriv(self, i, t):
        return t - self._y[i]

    def _losses(self, t):
        return 0.5 * (t - self.targets) ** 2

    def _derivs(self, t):
        return t - self.targets


def make_ridge(n=4, d=3, seed=0, mu=0.3):
    rng = np.random.default_rng(seed)
    return RidgeProblem(rng.standard_normal((n, d)),
                        rng.standard_normal(n), mu)


def dense_rows(problem):
    """The problem's rows as a dense (n, d) array."""
    a = np.zeros((problem.n, problem.d))
    a[np.repeat(np.arange(problem.n), np.diff(problem.indptr)),
      problem.indices] = problem.data
    return a


def ridge_minimizer(problem):
    """Exact minimizer of a RidgeProblem: the solution of the normal
    equations (A^T A / n + mu I) x = A^T y / n, on a dense copy of the rows."""
    a = dense_rows(problem)
    h = a.T @ a / problem.n + problem.mu * np.eye(problem.d)
    return np.linalg.solve(h, a.T @ problem.targets / problem.n)


def solve_and_point(problem, tol=1e-10):
    """compute_reference(problem, tol), and the last point its solve
    evaluated: the point whose value and gradient norm it returns. The
    solve evaluates only through value_and_grad, so the problem's is
    wrapped to record each point."""
    points = []
    value_and_grad = problem.value_and_grad

    def recording(x):
        points.append(x.copy())
        return value_and_grad(x)

    problem.value_and_grad = recording
    ref = compute_reference(problem, tol=tol)
    return ref, points[-1]


def assert_solved_at(problem, ref, x, tol=1e-10):
    """x meets tol, and ref holds its gradient norm and value bit for bit."""
    grad_norm = float(np.linalg.norm(problem.full_grad(x)))
    assert grad_norm <= tol
    assert ref.grad_norm == grad_norm
    assert np.float64(ref.f_star).tobytes() == \
        np.float64(problem.value(x)).tobytes()


def component_value(problem, i, x):
    """f_i(x) from its dense formula, for a logistic or a ridge problem:
    log(1 + exp(-b_i t)) or (1/2)(t - y_i)^2 at t = <a_i, x>, plus
    (mu/2)||x||^2."""
    t = dense_rows(problem)[i] @ x
    y = problem.targets[i]
    phi = np.logaddexp(0.0, -y * t) if problem.kind == "logistic" \
        else 0.5 * (t - y) ** 2
    return float(phi) + 0.5 * problem.mu * float(x @ x)


class ScriptedRng:
    """Stand-in generator that replays a fixed draw sequence, used to pin
    solver paths in enumeration tests. random() feeds the snapshot-index
    draw; integers() feeds the per-step component picks, one per call or
    `size` of them as an array, like numpy's Generator. Its bit_generator's
    state is a copy of both queues, and setting it restores them, as run()
    does to replay a loop."""

    def __init__(self, uniform=(), ints=()):
        self.uniform = list(uniform)
        self.ints = list(ints)

    @property
    def bit_generator(self):
        return self

    @property
    def state(self):
        return list(self.uniform), list(self.ints)

    @state.setter
    def state(self, saved):
        self.uniform, self.ints = (list(queue) for queue in saved)

    def random(self):
        return self.uniform.pop(0)

    def integers(self, n, size=None):
        if size is not None:
            return np.array([self.integers(n) for _ in range(size)])
        i = self.ints.pop(0)
        assert 0 <= i < int(n)
        return i


def inner_loop(problem, algorithm, x0, eta, m, rng, counter):
    """One outer loop in run()'s order: the snapshot gradient g (n IFO),
    the snapshot index M drawn from the uniform pmf over {0..m-1}, then the
    inner-loop kernel up to x_M. Returns (x_M, g, M)."""
    g = problem.full_grad(x0, counter)
    snap = sample_snapshot_index(
        weights(AveragingScheme.UNIFORM, m, problem.mu, eta), rng)
    x = _inner_steps(problem, algorithm, x0, g, eta, snap, rng, counter)
    return x, g, snap
