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

import numpy as np

from .core import Grid1D, Physics, TimeGrid

# the solve finishes the first reduced level of at most this many rows with
# one dense product (see ThomasFactorization)
DENSE_TAIL_ROWS = 256


def assemble_step_matrix(
    grid: Grid1D, time: TimeGrid, physics: Physics
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bands (lower, diag, upper) of the implicit-step operator over the
    interior nodes j = 1..N-1; lower and upper are one array.

    diag = 1/dt^2 + 2(alpha/dt + 1)/dx^2, off-diagonals = -(alpha/dt + 1)/dx^2.
    Dirichlet rows are not part of the system.  The solver's unknown is the
    increment eta^{i+1} - eta^i, which vanishes at the pinned ends, so no
    boundary value is folded into the right-hand side.
    """
    n = grid.cells_n - 1
    coupling = (physics.alpha / time.dt + 1.0) / grid.dx**2
    diag = np.full(n, 1.0 / time.dt**2 + 2.0 * coupling)
    off = np.full(max(n - 1, 0), -coupling)
    return off, diag, off


class ThomasFactorization:
    """Reusable cyclic-reduction factorization of one tridiagonal matrix.

    Cyclic reduction (Hockney 1965; Heller 1976) eliminates the even rows
    (0, 2, 4, ...) of an odd-sized system, which leaves a tridiagonal system
    on the odd rows of about half the size, and repeats down to a single
    row.  An even-sized level is first padded with one decoupled identity
    row.  ``__init__`` runs the whole elimination once.  It stores, per
    level, the multipliers alpha and beta that fold the eliminated
    neighbours into each kept row, plus the eliminated rows' pivot
    reciprocals and bands scaled by them for the back-substitution.

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

    Like the Thomas algorithm, this divides by its pivots unchecked, so the
    matrix must be strictly (or irreducibly) diagonally dominant by rows.
    Every step matrix is strictly so (diag - |lower| - |upper| = 1/dt^2 > 0),
    and cyclic reduction keeps that dominance on every level (Heller 1976),
    so no pivot is zero.  Once dt^2 (alpha/dt + 1)/dx^2 nears 2^53 the
    rounding of diag takes that margin, but the end rows stay strict, which
    keeps the matrix irreducibly dominant.
    """

    def __init__(self, lower: np.ndarray, diag: np.ndarray, upper: np.ndarray):
        n = len(diag)
        lower = np.concatenate(([0.0], lower))
        upper = np.concatenate((upper, [0.0]))

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
            inv = 1.0 / diag[0::2]
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
            buf = nxt
        _sweep(forward, backward, buf, (1.0 / diag)[:, None])
        # column j of the block solves for e_j: the block's rows are the inverse
        self._inverse = block[: block.shape[1]]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with A x = rhs, in a new array; rhs is untouched.

        Residual contract: ||A x - rhs||_inf <= 1e-12 * (||A||_inf ||x||_inf
        + ||rhs||_inf) for strictly diagonally dominant systems.
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
