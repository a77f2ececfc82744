"""Tridiagonal linear algebra for the implicit time step.

The implicit step couples each interior node to its neighbours through the
constant-in-time operator

    A = (1/dt^2) I - (alpha/dt + 1) L,      (L u)_j = (u_{j+1} - 2 u_j + u_{j-1}) / dx^2,

which is symmetric, tridiagonal and strictly diagonally dominant.  A is
assembled once per run; its Thomas factorization (forward-elimination pivots
and multipliers) is precomputed and reused for every step, so each solve is a
single O(n) forward/backward sweep.  ``dense_solve`` densifies the matrix and
defers to LAPACK Gaussian elimination — the independent check used by the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Grid1D, Physics, TimeGrid


class ZeroPivotError(ArithmeticError):
    """Elimination hit a (near-)zero pivot; carries the pivot index."""

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(
            f"zero pivot at elimination index {index} (value {value!r}); "
            "matrix is not diagonally dominant"
        )


@dataclass(frozen=True)
class Tridiagonal:
    """Bands of an n x n tridiagonal matrix (lower/upper have length n-1)."""

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    @property
    def n(self) -> int:
        return len(self.diag)

    def validate(self) -> None:
        n = self.n
        if n < 1:
            raise ValueError("empty matrix")
        if len(self.lower) != n - 1 or len(self.upper) != n - 1:
            raise ValueError(
                f"band lengths {len(self.lower)}/{len(self.upper)} do not "
                f"match diagonal length {n}"
            )

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.diag * x
        if self.n > 1:
            y[:-1] += self.upper * x[1:]
            y[1:] += self.lower * x[:-1]
        return y

    def dense(self) -> np.ndarray:
        full = np.diag(self.diag)
        if self.n > 1:
            full += np.diag(self.lower, -1) + np.diag(self.upper, 1)
        return full


def assemble_step_matrix(
    grid: Grid1D, time: TimeGrid, physics: Physics
) -> Tridiagonal:
    """Implicit-step operator over the interior nodes j = 1..N-1.

    diag = 1/dt^2 + 2(alpha/dt + 1)/dx^2, off-diagonals = -(alpha/dt + 1)/dx^2.
    Dirichlet rows are not part of the system; the solver folds the known
    boundary values into the right-hand side.
    """
    n = grid.cells_n - 1
    coupling = (physics.alpha / time.dt + 1.0) / grid.dx**2
    diag = np.full(n, 1.0 / time.dt**2 + 2.0 * coupling)
    off = np.full(max(n - 1, 0), -coupling)
    return Tridiagonal(lower=off, diag=diag, upper=off.copy())


class ThomasFactorization:
    """Reusable forward-elimination data for one tridiagonal matrix.

    Precomputes the pivots beta_k and multipliers m_k = lower_{k-1}/beta_{k-1}
    so that repeated solves cost one multiply-add per node and sweep.  The
    sweeps run over plain Python floats, which is substantially faster than
    per-element numpy indexing for the narrow systems this package uses.
    """

    def __init__(self, m: Tridiagonal):
        m.validate()
        n = m.n
        diag = m.diag.tolist()
        lower = m.lower.tolist()
        upper = m.upper.tolist()

        beta = [0.0] * n
        mult = [0.0] * n
        for k in range(n):
            if k == 0:
                b = diag[0]
            else:
                g = lower[k - 1] / b
                mult[k] = g
                b = diag[k] - g * upper[k - 1]
            if b == 0.0:
                raise ZeroPivotError(k, b)
            beta[k] = b

        self.n = n
        self._mult = mult
        self._upper = upper
        self._inv_beta = [1.0 / bk for bk in beta]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        n = self.n
        if len(rhs) != n:
            raise ValueError(f"rhs length {len(rhs)} != system size {n}")
        mult = self._mult
        upper = self._upper
        inv_beta = self._inv_beta

        y = np.asarray(rhs, float).tolist()
        acc = y[0]
        for k in range(1, n):
            acc = y[k] - mult[k] * acc
            y[k] = acc
        acc = y[n - 1] * inv_beta[n - 1]
        y[n - 1] = acc
        for k in range(n - 2, -1, -1):
            acc = (y[k] - upper[k] * acc) * inv_beta[k]
            y[k] = acc
        return np.array(y)


def thomas_solve(m: Tridiagonal, rhs: np.ndarray) -> np.ndarray:
    """Solve m x = rhs by the Thomas algorithm; the input is untouched.

    Residual contract: ||M x - rhs||_inf <= 1e-12 * (||M||_inf ||x||_inf
    + ||rhs||_inf) for diagonally dominant systems.
    """
    return ThomasFactorization(m).solve(rhs)


def dense_solve(m: Tridiagonal, rhs: np.ndarray) -> np.ndarray:
    """Dense Gaussian-elimination reference solution (LAPACK, pivoted)."""
    m.validate()
    return np.linalg.solve(m.dense(), np.asarray(rhs, float))
