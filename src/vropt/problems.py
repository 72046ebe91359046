"""Finite-sum objectives f(x) = (1/n) sum_i f_i(x) with smoothness and
strong-convexity constants.

Two instances: L2-regularized logistic regression on a sparse Dataset, and
ridge regression on dense rows (admits an exact minimizer). Component
gradients optionally charge a caller-owned IfoCounter: one unit per component
gradient, n units per full gradient. Evaluation code passes no counter, so
measurement never pollutes the work accounting.

Both instances are linear models, f_i(x) = phi_i(<a_i, x>) + (mu/2)||x||^2,
and expose the pieces the solvers' fused inner loop works on: the rows a_i as
CSR arrays (indptr, indices, data) and the loss derivative phi_i'(t), per
component (loss_deriv) and for all components at once (loss_derivs).
"""

from __future__ import annotations

import abc
import math

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .dataset import Dataset, add_bias_column

__all__ = ["IfoCounter", "ErmProblem", "LogisticProblem", "RidgeProblem"]


class IfoCounter:
    """Mutable incremental-first-order-oracle tally (1 per component gradient)."""

    __slots__ = ("count",)

    def __init__(self, count: int = 0):
        self.count = int(count)

    def add(self, k: int) -> None:
        self.count += k

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


class ErmProblem(abc.ABC):
    """Abstract finite-sum problem: n components over R^d, mu-strongly convex
    with L-Lipschitz component gradients (kappa = L/mu).

    Components are f_i(x) = phi_i(<a_i, x>) + (mu/2)||x||^2. Row a_i is
    data[indptr[i]:indptr[i+1]] at columns indices[indptr[i]:indptr[i+1]];
    indptr is a Python list so that slicing it costs no numpy scalar, and
    indices are np.intp, the index type numpy gathers and scatters fastest.
    """

    n: int
    d: int
    mu: float
    indptr: list[int]
    indices: np.ndarray
    data: np.ndarray

    @property
    @abc.abstractmethod
    def smoothness(self) -> float:
        """The uniform component-gradient Lipschitz constant L."""

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

    @abc.abstractmethod
    def value(self, x: np.ndarray) -> float:
        """f(x) = (1/n) sum_i f_i(x)."""

    @abc.abstractmethod
    def component_value(self, i: int, x: np.ndarray) -> float:
        """f_i(x)."""

    @abc.abstractmethod
    def grad_component(self, i: int, x: np.ndarray,
                       counter: IfoCounter | None = None) -> np.ndarray:
        """grad f_i(x); charges 1 IFO to counter when one is supplied."""

    @abc.abstractmethod
    def full_grad(self, x: np.ndarray,
                  counter: IfoCounter | None = None) -> np.ndarray:
        """grad f(x); charges n IFO to counter when one is supplied."""

    @abc.abstractmethod
    def loss_deriv(self, i: int, t: float) -> float:
        """phi_i'(t) at margin t = <a_i, x>; no checks, no charge."""

    @abc.abstractmethod
    def loss_derivs(self, x: np.ndarray) -> np.ndarray:
        """phi_i'(<a_i, x>) for every i, the vector full_grad is built on;
        no charge."""


class LogisticProblem(ErmProblem):
    """Regularized logistic regression on a sparse dataset.

    f_i(x) = log(1 + exp(-b_i <a_i, x>)) + (mu/2) ||x||^2, b_i in {-1, +1}.
    L = max_i ||a_i||^2 / 4 + mu (the logistic curvature bound), and every
    component is mu-strongly convex by construction.

    Args:
        dataset: rows and labels.
        mu: regularization weight, >= 0 (solvers additionally require > 0).
        add_bias: append a constant-1 column before fitting.
    """

    def __init__(self, dataset: Dataset, mu: float, add_bias: bool = False):
        if mu < 0:
            raise ValueError(f"mu must be >= 0, got {mu}")
        if add_bias:
            dataset = add_bias_column(dataset)
        self.dataset = dataset
        self.n = dataset.n
        self.d = dataset.dim
        self.mu = float(mu)
        self._labels = dataset.labels.astype(np.float64)
        self._b = self._labels.tolist()
        self._L = float(np.max(dataset.row_sq_norms) / 4.0 + self.mu)
        # the dataset's own read-only arrays serve every gradient and value
        # path; scipy may narrow its index copy to int32, which numpy
        # indexes slowly, so the kernel reads the dataset's np.intp indices
        self._csr = sp.csr_matrix(
            (dataset.data, dataset.indices, dataset.indptr),
            shape=(self.n, self.d))
        self.indptr = dataset.indptr.tolist()
        self.indices, self.data = dataset.indices, dataset.data

    @property
    def smoothness(self) -> float:
        return self._L

    def _margins(self, x: np.ndarray) -> np.ndarray:
        return self._labels * (self._csr @ x)

    def value(self, x: np.ndarray) -> float:
        x = self._check_x(x)
        z = self._margins(x)
        loss = float(np.mean(np.logaddexp(0.0, -z)))
        return loss + 0.5 * self.mu * float(x @ x)

    def _row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def component_value(self, i: int, x: np.ndarray) -> float:
        i = self._check_i(i)
        x = self._check_x(x)
        cols, vals = self._row(i)
        t = self._b[i] * float(vals @ x[cols])
        return _log1p_exp(-t) + 0.5 * self.mu * float(x @ x)

    def grad_component(self, i: int, x: np.ndarray,
                       counter: IfoCounter | None = None) -> np.ndarray:
        i = self._check_i(i)
        x = self._check_x(x)
        if counter is not None:
            counter.add(1)
        cols, vals = self._row(i)
        g = self.mu * x
        g[cols] += self.loss_deriv(i, float(vals @ x[cols])) * vals
        return g

    def loss_deriv(self, i: int, t: float) -> float:
        b = self._b[i]
        return -b * _sigmoid(-b * t)

    def loss_derivs(self, x: np.ndarray) -> np.ndarray:
        return -self._labels * expit(-self._margins(x))

    def full_grad(self, x: np.ndarray,
                  counter: IfoCounter | None = None) -> np.ndarray:
        x = self._check_x(x)
        if counter is not None:
            counter.add(self.n)
        coeff = self.loss_derivs(x) / self.n
        return np.asarray(self._csr.T @ coeff) + self.mu * x


class RidgeProblem(ErmProblem):
    """Ridge regression on dense rows: f_i(x) = (1/2)(<a_i,x> - y_i)^2
    + (mu/2)||x||^2, with L = max_i ||a_i||^2 + mu.

    mu = 0 is accepted (kappa becomes inf); solvers that need strong
    convexity validate mu > 0 themselves.
    """

    def __init__(self, rows: np.ndarray, targets: np.ndarray, mu: float):
        rows = np.asarray(rows, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if rows.ndim != 2:
            raise ValueError("rows must be a 2-D array (n, d)")
        if targets.shape != (rows.shape[0],):
            raise ValueError(f"{rows.shape[0]} rows but {targets.size} targets")
        if mu < 0:
            raise ValueError(f"mu must be >= 0, got {mu}")
        self._A = rows
        self._y = targets
        self._y_list = targets.tolist()
        self.n, self.d = rows.shape
        self.mu = float(mu)
        self._L = float(np.max(np.einsum("ij,ij->i", rows, rows)) + self.mu)
        csr = sp.csr_matrix(rows)
        self.indptr = csr.indptr.tolist()
        self.indices = csr.indices.astype(np.intp)
        self.data = csr.data

    @property
    def smoothness(self) -> float:
        return self._L

    def value(self, x: np.ndarray) -> float:
        x = self._check_x(x)
        r = self._A @ x - self._y
        return 0.5 * float(r @ r) / self.n + 0.5 * self.mu * float(x @ x)

    def component_value(self, i: int, x: np.ndarray) -> float:
        i = self._check_i(i)
        x = self._check_x(x)
        r = float(self._A[i] @ x - self._y[i])
        return 0.5 * r * r + 0.5 * self.mu * float(x @ x)

    def grad_component(self, i: int, x: np.ndarray,
                       counter: IfoCounter | None = None) -> np.ndarray:
        i = self._check_i(i)
        x = self._check_x(x)
        if counter is not None:
            counter.add(1)
        r = float(self._A[i] @ x - self._y[i])
        return r * self._A[i] + self.mu * x

    def loss_deriv(self, i: int, t: float) -> float:
        return t - self._y_list[i]

    def loss_derivs(self, x: np.ndarray) -> np.ndarray:
        return self._A @ x - self._y

    def full_grad(self, x: np.ndarray,
                  counter: IfoCounter | None = None) -> np.ndarray:
        x = self._check_x(x)
        if counter is not None:
            counter.add(self.n)
        return (self._A.T @ self.loss_derivs(x)) / self.n + self.mu * x

    def solve_normal_equations(self) -> np.ndarray:
        """Exact minimizer from (A^T A / n + mu I) x = A^T y / n."""
        h = self._A.T @ self._A / self.n + self.mu * np.eye(self.d)
        rhs = self._A.T @ self._y / self.n
        return np.linalg.solve(h, rhs)
