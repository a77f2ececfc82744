"""Tridiagonal linear algebra for the implicit time step.

The implicit step couples each interior node to its neighbours through the
constant-in-time operator

    A = (1/dt^2) I - (alpha/dt + 1) L,      (L u)_j = (u_{j+1} - 2 u_j + u_{j-1}) / dx^2,

which is symmetric, tridiagonal and strictly diagonally dominant.  A is
assembled once per run and factored once by cyclic reduction (multipliers
and pivot reciprocals of about log2 n halving levels).  The reduction stops
at the first level of at most ``DENSE_TAIL_ROWS`` rows, whose exact inverse
the factorization builds from its own elimination, without LAPACK.  Every
step reuses the factorization, so each solve is one vectorised O(n) forward
pass over the levels above that cut, one dense product on the cut level,
and one backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Grid1D, Physics, TimeGrid

# the solve finishes the first reduced level of at most this many rows with
# one dense product (see ThomasFactorization)
DENSE_TAIL_ROWS = 256


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


def assemble_step_matrix(
    grid: Grid1D, time: TimeGrid, physics: Physics
) -> Tridiagonal:
    """Implicit-step operator over the interior nodes j = 1..N-1.

    diag = 1/dt^2 + 2(alpha/dt + 1)/dx^2, off-diagonals = -(alpha/dt + 1)/dx^2.
    Dirichlet rows are not part of the system.  The solver's unknown is the
    increment eta^{i+1} - eta^i, which vanishes at the pinned ends, so no
    boundary value is folded into the right-hand side.
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
    row.  ``__init__`` runs the whole elimination once, so a zero pivot on
    any level raises ``ZeroPivotError`` naming the row of the input matrix
    it belongs to.  It stores, per level, the multipliers alpha and beta
    that fold the eliminated neighbours into each kept row, plus the
    eliminated rows' pivot reciprocals and bands scaled by them for the
    back-substitution.

    The small levels cost per numpy call, not per row, so the solve stops at
    the first level of at most ``DENSE_TAIL_ROWS`` rows and finishes it with
    one product by that level's exact inverse (the hybrid of Zhang, Cohen
    and Owens, PPoPP 2010).  The inverse is built here without LAPACK: the
    identity goes through the remaining levels as a block of right-hand
    sides.  Each ``solve`` is then one vectorised forward pass per level
    above the cut, one matrix-vector product and one backward pass per
    level, into work buffers allocated here; so one factorization must not
    be solved from two threads at once.  At n <= ``DENSE_TAIL_ROWS`` a
    solve is the product alone.

    Like the Thomas algorithm, this needs no pivoting on diagonally
    dominant systems and handles non-symmetric bands.
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
        forward, backward, block = [], [], None
        while True:
            size = len(diag)
            if block is None and size <= DENSE_TAIL_ROWS:
                # the cut: the solve stops here, and the identity goes on
                # below it, column j of the block the right-hand side e_j
                self._tail = buf[:size]
                self._forward, self._backward = forward, backward
                forward, backward = [], []
                buf = np.zeros((size + 1 - size % 2, size))
                buf.flat[:: size + 1] = 1.0
                block = buf
            if size == 1:
                break
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

            # a coefficient per row, the same in every column of the block
            per_row = (-1,) + (1,) * (buf.ndim - 1)
            nxt = np.zeros((kept + 1 - kept % 2,) + buf.shape[1:])
            head = nxt[:kept]
            elim = buf[0 : 2 * solved : 2]
            # forward: head = alpha * (left rhs) + (kept rhs) + beta * (right rhs)
            forward.append((
                head, buf[0:-1:2], buf[1::2], buf[2::2],
                alpha.reshape(per_row), beta.reshape(per_row),
            ))
            # backward: x_e = d_e / b_e - (c_e / b_e) x_right - (a_e / b_e) x_left
            backward.insert(0, (
                head, buf[1::2], elim, inv[:solved].reshape(per_row),
                elim[:kept], (c_e * inv)[:kept].reshape(per_row),
                elim[1:solved], (a_e * inv)[1:solved].reshape(per_row),
                head[: solved - 1],
            ))
            lower = alpha * a_e[:-1]
            diag = diag[1::2] + alpha * c_e[:-1] + beta * a_e[1:]
            upper = beta * c_e[1:]
            rows = rows[1::2]
            buf = nxt
        _sweep(forward, backward, buf, _pivot_reciprocals(diag, rows)[:, None])
        # column j of the block solves for e_j: the block's rows are the inverse
        self._inverse = block[: block.shape[1]]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with m x = rhs, in a new array; rhs is untouched.

        Residual contract: ||m x - rhs||_inf <= 1e-12 * (||m||_inf ||x||_inf
        + ||rhs||_inf) for diagonally dominant systems.
        """
        n = self.n
        if len(rhs) != n:
            raise ValueError(f"rhs length {len(rhs)} != system size {n}")
        self._rhs[:] = rhs
        _sweep(self._forward, self._backward, self._tail, self._inverse)
        return self._rhs.copy()


def _sweep(forward, backward, tail: np.ndarray, inverse: np.ndarray) -> None:
    """Solve in place: the forward passes, then the reduced level (``tail``
    becomes ``inverse @ tail``), then the backward passes."""
    for head, left, mid, right, alpha, beta in forward:
        np.multiply(alpha, left, out=head)
        head += mid
        head += beta * right
    tail[...] = inverse @ tail
    for head, mid, elim, inv, elim_r, right, elim_l, left, head_l in backward:
        mid[...] = head
        elim *= inv
        elim_r -= right * head
        elim_l -= left * head_l


def _pivot_reciprocals(pivots: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """1 / pivots, or ZeroPivotError naming the input row of the first zero."""
    zero = np.flatnonzero(pivots == 0.0)
    if zero.size:
        raise ZeroPivotError(int(rows[zero[0]]), float(pivots[zero[0]]))
    return 1.0 / pivots
