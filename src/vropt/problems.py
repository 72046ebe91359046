"""Finite-sum objectives f(x) = (1/n) sum_i f_i(x) with smoothness and
strong-convexity constants.

Every problem is a linear model over CSR rows, f_i(x) = phi_i(<a_i, x>) +
(mu/2)||x||^2. ErmProblem holds the rows a_i (indptr, indices, data), the
per-component targets and mu, and implements every oracle once; a subclass
supplies only L and its loss phi_i, per component (loss, loss_deriv) and for
all margins t = A x at once (_losses, _derivs). Two instances: L2-regularized
logistic regression on a sparse Dataset, and ridge regression (admits an
exact minimizer). Component gradients optionally charge a caller-owned
IfoCounter: one unit per component gradient, n units per full gradient.
Evaluation code passes no counter, so measurement never pollutes the work
accounting. The solvers' fused inner loop reads the CSR rows, loss_deriv and
max_abs_entry directly.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from .dataset import Dataset, add_bias_column

__all__ = ["IfoCounter", "ErmProblem", "LogisticProblem", "RidgeProblem"]


class IfoCounter:
    """Mutable incremental-first-order-oracle tally (1 per component gradient);
    callers charge k units with counter.count += k."""

    __slots__ = ("count",)

    def __init__(self, count: int = 0):
        self.count = int(count)

    def __repr__(self):
        return f"IfoCounter({self.count})"


def _sigmoid(t: float) -> float:
    # branch on sign so exp never sees a large positive argument
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def _log1p_exp(t: float) -> float:
    # log(1 + e^t), stable for |t| large
    if t > 0.0:
        return t + math.log1p(math.exp(-t))
    return math.log1p(math.exp(t))


# stored entries per pass of _accumulate: few enough that its temporaries
# stay in cache, enough that its Python loop costs nothing
_CHUNK = 1 << 14


def _accumulate(out: np.ndarray, dest: np.ndarray, src: np.ndarray,
                pick: np.ndarray, data: np.ndarray) -> np.ndarray:
    """out[dest[k]] += data[k] * src[pick[k]] for every stored entry k, in
    storage order, so each output is the sequential sum a CSR product
    forms; returns out. Like a compiled CSR product, it does not warn on
    entries that overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(data), _CHUNK):
            w = src[pick[lo:lo + _CHUNK]]
            w *= data[lo:lo + _CHUNK]
            np.add.at(out, dest[lo:lo + _CHUNK], w)
    return out


class ErmProblem(abc.ABC):
    """Finite-sum linear model: n components over R^d, mu-strongly convex
    with L-Lipschitz component gradients (kappa = L/mu).

    Components are f_i(x) = phi_i(<a_i, x>) + (mu/2)||x||^2. Row a_i is
    data[indptr[i]:indptr[i+1]] at columns indices[indptr[i]:indptr[i+1]];
    indptr is a Python list so that slicing it costs no numpy scalar, and
    indices are np.intp, the index type numpy gathers and scatters fastest.
    The arrays are used in place; `_rows`, the row of each stored entry,
    is the one extra array, and the all-component products sum over it.
    """

    kind: str  # short tag naming the loss in cache keys

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 data: np.ndarray, d: int, targets: np.ndarray, mu: float,
                 smoothness: float):
        if mu < 0:
            raise ValueError(f"mu must be >= 0, got {mu}")
        if not math.isfinite(smoothness):
            raise ValueError(f"smoothness L = {smoothness} is not finite "
                             "(a squared row norm or mu is past the float "
                             "range)")
        self.n = len(indptr) - 1
        self.d = int(d)
        self.mu = float(mu)
        self._L = smoothness
        self.indptr = indptr.tolist()
        self.indices, self.data = indices, data
        self._rows = np.repeat(np.arange(self.n), np.diff(indptr))
        self.targets = targets
        # max |a_ij|, which bounds how far one sparse step moves any entry
        self.max_abs_entry = float(np.abs(data).max(initial=0.0))

    @property
    def smoothness(self) -> float:
        """The uniform component-gradient Lipschitz constant L."""
        return self._L

    @property
    def kappa(self) -> float:
        return self.smoothness / self.mu if self.mu > 0 else math.inf

    def constants(self) -> tuple[float, float, float]:
        """(L, mu, kappa) with kappa recomputed as L/mu."""
        return self.smoothness, self.mu, self.kappa

    def _check_x(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.d,):
            raise ValueError(f"x has shape {x.shape}, expected ({self.d},)")
        return x

    def _check_i(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(f"component index {i} out of range [0, {self.n})")
        return i

    def _row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    @abc.abstractmethod
    def loss(self, i: int, t: float) -> float:
        """phi_i(t) at margin t = <a_i, x>."""

    @abc.abstractmethod
    def loss_deriv(self, i: int, t: float) -> float:
        """phi_i'(t) at margin t = <a_i, x>; no checks, no charge."""

    @abc.abstractmethod
    def _losses(self, t: np.ndarray) -> np.ndarray:
        """phi_i(t_i) for every i, given all margins t = A x."""

    @abc.abstractmethod
    def _derivs(self, t: np.ndarray) -> np.ndarray:
        """phi_i'(t_i) for every i, given all margins t = A x."""

    def value(self, x: np.ndarray) -> float:
        """f(x) = (1/n) sum_i f_i(x)."""
        x = self._check_x(x)
        loss = float(np.mean(self._losses(self.margins(x))))
        return loss + 0.5 * self.mu * float(x @ x)

    def component_value(self, i: int, x: np.ndarray) -> float:
        """f_i(x)."""
        i = self._check_i(i)
        x = self._check_x(x)
        cols, vals = self._row(i)
        return self.loss(i, float(vals @ x[cols])) + 0.5 * self.mu * float(x @ x)

    def grad_component(self, i: int, x: np.ndarray,
                       counter: IfoCounter | None = None) -> np.ndarray:
        """grad f_i(x); charges 1 IFO to counter when one is supplied."""
        i = self._check_i(i)
        x = self._check_x(x)
        if counter is not None:
            counter.count += 1
        cols, vals = self._row(i)
        g = self.mu * x
        g[cols] += self.loss_deriv(i, float(vals @ x[cols])) * vals
        return g

    def margins(self, x: np.ndarray) -> np.ndarray:
        """<a_i, x> for every i; no charge."""
        x = self._check_x(x)
        return _accumulate(np.zeros(self.n), self._rows, x, self.indices,
                           self.data)

    def loss_derivs(self, x: np.ndarray) -> np.ndarray:
        """phi_i'(<a_i, x>) for every i, the vector full_grad is built on;
        no charge."""
        return self._derivs(self.margins(x))

    def full_grad(self, x: np.ndarray,
                  counter: IfoCounter | None = None) -> np.ndarray:
        """grad f(x); charges n IFO to counter when one is supplied."""
        x = self._check_x(x)
        if counter is not None:
            counter.count += self.n
        coeff = self.loss_derivs(x) / self.n
        return _accumulate(np.zeros(self.d), self.indices, coeff, self._rows,
                           self.data) + self.mu * x


class LogisticProblem(ErmProblem):
    """Regularized logistic regression on a sparse dataset.

    f_i(x) = log(1 + exp(-b_i <a_i, x>)) + (mu/2) ||x||^2, b_i in {-1, +1}.
    L = max_i ||a_i||^2 / 4 + mu (the logistic curvature bound), and every
    component is mu-strongly convex by construction. The rows and labels are
    the dataset's own read-only arrays, not copies.

    Args:
        dataset: rows and labels.
        mu: regularization weight, >= 0 (solvers additionally require > 0).
        add_bias: append a constant-1 column before fitting.
    """

    kind = "logistic"

    def __init__(self, dataset: Dataset, mu: float, add_bias: bool = False):
        if add_bias:
            dataset = add_bias_column(dataset)
        self.dataset = dataset
        self._labels = dataset.labels.astype(np.float64)
        self._b = self._labels.tolist()
        super().__init__(dataset.indptr, dataset.indices, dataset.data,
                         dataset.dim, dataset.labels, mu,
                         float(np.max(dataset.row_sq_norms) / 4.0 + mu))

    def loss(self, i: int, t: float) -> float:
        return _log1p_exp(-self._b[i] * t)

    def loss_deriv(self, i: int, t: float) -> float:
        b = self._b[i]
        return -b * _sigmoid(-b * t)

    def _losses(self, t: np.ndarray) -> np.ndarray:
        return np.logaddexp(0.0, -self._labels * t)

    def _derivs(self, t: np.ndarray) -> np.ndarray:
        b = self._labels
        # exp(b t) overflows to inf only where the limit is -b*0, a signed
        # zero (-0.0 for b = +1, +0.0 for b = -1), which -b/inf gives
        with np.errstate(over="ignore"):
            return -b / (1.0 + np.exp(b * t))


class RidgeProblem(ErmProblem):
    """Ridge regression: f_i(x) = (1/2)(<a_i,x> - y_i)^2 + (mu/2)||x||^2,
    with L = max_i ||a_i||^2 + mu. Rows are given dense and kept only as CSR.

    mu = 0 is accepted (kappa becomes inf); solvers that need strong
    convexity validate mu > 0 themselves.
    """

    kind = "ridge"

    def __init__(self, rows: np.ndarray, targets: np.ndarray, mu: float):
        rows = np.asarray(rows, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if rows.ndim != 2:
            raise ValueError("rows must be a 2-D array (n, d)")
        if targets.shape != (rows.shape[0],):
            raise ValueError(f"{rows.shape[0]} rows but {targets.size} targets")
        row_of, cols = np.nonzero(rows)
        indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(rows, 1))))
        self._y = targets.tolist()
        super().__init__(indptr, cols, rows[row_of, cols],
                         rows.shape[1], targets, mu,
                         float(np.max(np.einsum("ij,ij->i", rows, rows)) + mu))

    def loss(self, i: int, t: float) -> float:
        return 0.5 * (t - self._y[i]) ** 2

    def loss_deriv(self, i: int, t: float) -> float:
        return t - self._y[i]

    def _losses(self, t: np.ndarray) -> np.ndarray:
        return 0.5 * (t - self.targets) ** 2

    def _derivs(self, t: np.ndarray) -> np.ndarray:
        return t - self.targets

    def solve_normal_equations(self) -> np.ndarray:
        """Exact minimizer from (A^T A / n + mu I) x = A^T y / n."""
        # a transient dense copy: BLAS forms A^T A some 70x faster than a
        # sparse-sparse product of the (dense) ridge rows
        a = np.zeros((self.n, self.d))
        a[self._rows, self.indices] = self.data
        h = a.T @ a / self.n + self.mu * np.eye(self.d)
        return np.linalg.solve(h, a.T @ self.targets / self.n)
