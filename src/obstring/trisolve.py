"""Tridiagonal linear algebra for the implicit time step.

The implicit step couples each interior node to its neighbours through the
constant-in-time operator

    A = (1/dt^2) I - (alpha/dt + 1) L,      (L u)_j = (u_{j+1} - 2 u_j + u_{j-1}) / dx^2,

which is symmetric, tridiagonal and strictly diagonally dominant.  A is
assembled once per run and factored once by cyclic reduction (multipliers
and pivot reciprocals of about log2 n halving levels); every step reuses the
factorization, so each solve is one vectorised O(n) forward and backward
pass over the levels.  ``dense_solve`` densifies the matrix and defers to
LAPACK Gaussian elimination — the independent check used by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Grid1D, Physics, TimeGrid


class ZeroPivotError(ArithmeticError):
    """Elimination hit a zero pivot; ``index`` is its row of the input matrix."""

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(
            f"zero pivot in row {index} (value {value!r}); "
            "matrix is not diagonally dominant"
        )


@dataclass(frozen=True)
class Tridiagonal:
    """Bands of an n x n tridiagonal matrix (lower/upper have length n-1);
    the band lengths are checked at construction."""

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    @property
    def n(self) -> int:
        return len(self.diag)

    def __post_init__(self) -> None:
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
        n = self.n
        full = np.zeros((n, n))
        full.flat[:: n + 1] = self.diag
        full.flat[n :: n + 1] = self.lower
        full.flat[1 :: n + 1] = self.upper
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
    """Reusable cyclic-reduction factorization of one tridiagonal matrix.

    Cyclic reduction (Hockney 1965; Heller 1976) eliminates the even rows
    (0, 2, 4, ...) of an odd-sized system, which leaves a tridiagonal system
    on the odd rows of about half the size, and repeats down to a single
    row.  An even-sized level is first padded with one decoupled identity
    row.  ``__init__`` runs the elimination once and stores, per level, the
    multipliers alpha and beta that fold the eliminated neighbours into each
    kept row, plus the eliminated rows' pivot reciprocals and bands scaled
    by them for the back-substitution.  Each ``solve`` is then one forward
    and one backward pass of vectorised numpy operations per level, about
    log2 n levels in all, into work buffers allocated here; so one
    factorization must not be solved from two threads at once.

    Like the Thomas algorithm, this needs no pivoting on diagonally
    dominant systems and handles non-symmetric bands.  A zero pivot raises
    ``ZeroPivotError`` naming the row of the input matrix it belongs to.
    """

    def __init__(self, m: Tridiagonal):
        n = m.n
        lower = np.concatenate(([0.0], m.lower))
        diag = np.array(m.diag, dtype=float)
        upper = np.concatenate((m.upper, [0.0]))
        rows = np.arange(n)  # input row of each row of the current level

        buf = np.zeros(n + 1 - n % 2)  # a padded row's entry stays 0
        self.n = n
        self._rhs = buf[:n]
        self._forward = []
        self._backward = []
        while len(diag) > 1:
            size = len(diag)
            if size % 2 == 0:
                lower, diag, upper = (
                    np.append(lower, 0.0), np.append(diag, 1.0), np.append(upper, 0.0)
                )
                rows = np.append(rows, -1)
            inv = _pivot_reciprocals(diag[0::2], rows[0::2])
            kept = size // 2
            solved = (size + 1) // 2  # eliminated rows that are not padding
            a_e, c_e = lower[0::2], upper[0::2]
            alpha = -lower[1::2] * inv[:-1]
            beta = -upper[1::2] * inv[1:]

            nxt = np.zeros(kept + 1 - kept % 2)
            head = nxt[:kept]
            # forward: head = alpha * (left rhs) + (kept rhs) + beta * (right rhs)
            self._forward.append(
                (head, buf[0:-1:2], buf[1::2], buf[2::2], alpha, beta)
            )
            # backward: x_e = d_e / b_e - (c_e / b_e) x_right - (a_e / b_e) x_left
            self._backward.insert(0, (
                head, buf[1::2], buf[0 : 2 * solved : 2], inv[:solved],
                (c_e * inv)[:kept], (a_e * inv)[1:solved],
            ))
            lower = alpha * a_e[:-1]
            diag = diag[1::2] + alpha * c_e[:-1] + beta * a_e[1:]
            upper = beta * c_e[1:]
            rows = rows[1::2]
            buf = nxt
        self._last = (buf, _pivot_reciprocals(diag, rows))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        n = self.n
        if len(rhs) != n:
            raise ValueError(f"rhs length {len(rhs)} != system size {n}")
        self._rhs[:] = rhs
        for head, left, mid, right, alpha, beta in self._forward:
            np.multiply(alpha, left, out=head)
            head += mid
            head += beta * right
        last, inv = self._last
        last *= inv
        for head, mid, elim, inv, right, left in self._backward:
            mid[:] = head
            elim *= inv
            elim[: head.size] -= right * head
            elim[1:] -= left * head[: left.size]
        return self._rhs.copy()


def _pivot_reciprocals(pivots: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """1 / pivots, or ZeroPivotError naming the input row of the first zero."""
    zero = np.flatnonzero(pivots == 0.0)
    if zero.size:
        raise ZeroPivotError(int(rows[zero[0]]), float(pivots[zero[0]]))
    return 1.0 / pivots


def thomas_solve(m: Tridiagonal, rhs: np.ndarray) -> np.ndarray:
    """Solve m x = rhs by factoring m and solving once; the input is untouched.

    Residual contract: ||M x - rhs||_inf <= 1e-12 * (||M||_inf ||x||_inf
    + ||rhs||_inf) for diagonally dominant systems.
    """
    return ThomasFactorization(m).solve(rhs)


def dense_solve(m: Tridiagonal, rhs: np.ndarray) -> np.ndarray:
    """Dense Gaussian-elimination reference solution (LAPACK, pivoted)."""
    return np.linalg.solve(m.dense(), np.asarray(rhs, float))
