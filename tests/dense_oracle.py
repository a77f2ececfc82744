"""The independent references for the solver's tests.

``dense`` and ``matvec`` build the full matrix and apply the bands, for
residual checks.  ``dense_solve`` densifies the matrix and defers to
LAPACK's pivoted Gaussian elimination, a route that shares no code with the
cyclic reduction it checks.  ``thomas_sweep`` is the textbook scalar Thomas
algorithm in any numpy precision: in float64 it checks systems too large to
densify, and in np.longdouble it drives the extended-precision run of the
scheme.  All live with the tests because no package path needs them.
"""

from typing import NamedTuple

import numpy as np


class Tridiagonal(NamedTuple):
    """Bands of an n x n tridiagonal matrix; lower/upper have length n-1.
    ``ThomasFactorization(*m)`` factors it."""

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    @property
    def n(self) -> int:
        return len(self.diag)


def matvec(m: Tridiagonal, x: np.ndarray) -> np.ndarray:
    """m @ x from the bands."""
    y = m.diag * x
    if m.n > 1:
        y[:-1] += m.upper * x[1:]
        y[1:] += m.lower * x[:-1]
    return y


def dense(m: Tridiagonal) -> np.ndarray:
    """The full n x n matrix."""
    n = m.n
    full = np.zeros((n, n))
    full.flat[:: n + 1] = m.diag
    full.flat[n :: n + 1] = m.lower
    full.flat[1 :: n + 1] = m.upper
    return full


def dense_solve(m: Tridiagonal, rhs: np.ndarray) -> np.ndarray:
    """Dense Gaussian-elimination reference solution (LAPACK, pivoted)."""
    return np.linalg.solve(dense(m), np.asarray(rhs, float))


def thomas_sweep(m: Tridiagonal, rhs: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Solve m x = rhs by the scalar Thomas algorithm in ``dtype`` arithmetic.

    One Python step per row and no pivoting, so m must be diagonally
    dominant.  The bands and rhs are converted to ``dtype`` as given; build
    m from ``dtype`` bands to keep its entries unrounded.
    """
    lower, diag, upper, x = (
        list(np.asarray(u, dtype)) for u in (m.lower, m.diag, m.upper, rhs)
    )
    for i in range(1, m.n):
        w = lower[i - 1] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        x[i] -= w * x[i - 1]
    x[-1] /= diag[-1]
    for i in range(m.n - 2, -1, -1):
        x[i] = (x[i] - upper[i] * x[i + 1]) / diag[i]
    return np.array(x, dtype)
