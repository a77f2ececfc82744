"""The time loop as it was before it stepped on preallocated buffers.

``run`` below allocates every level's force, right-hand side, velocity and
displacement anew, the plain reading of the scheme in ``obstring.fd_solver``.
The package's loop keeps the same operations in the same order on rolling
buffers, so the tests pin it against this one bit for bit.  It lives with
the tests because no package path needs it.
"""

import math

import numpy as np

from obstring.core import (
    FieldSeries,
    NumericBlowupError,
    evaluate_initial,
    penalty_force,
)
from obstring.diagnostics import EnergyLedger
from obstring.trisolve import ThomasFactorization, assemble_step_matrix


def run(cfg):
    """fd_solver.run with a new array for every intermediate of every step."""
    grid, tgrid, physics = cfg.grid, cfg.time, cfg.physics
    dt, dx = tgrid.dt, grid.dx
    steps_m, stride = tgrid.steps_m, cfg.stride
    eta0, v0 = evaluate_initial(cfg.init, grid)

    factorization = ThomasFactorization(*assemble_step_matrix(grid, tgrid, physics))
    ledger = EnergyLedger(eta0, v0, cfg)

    frames = 1 + math.ceil(steps_m / stride)
    times = np.empty(frames)
    eta = np.empty((frames, eta0.size))
    velocity = np.empty_like(eta)

    curr, v = eta0, v0
    row = 0
    for i in range(steps_m + 1):
        force = penalty_force(curr, v, physics.epsilon)
        if i % stride == 0 or i == steps_m:
            times[row] = i * dt
            eta[row] = curr
            velocity[row] = v
            row += 1
        if i == steps_m:
            break

        v_next = np.zeros_like(curr)
        if i == 0:
            v_next[1:-1] = v0[1:-1]
        else:
            rhs = (
                force[1:-1]
                + v[1:-1] / dt
                + (curr[2:] - 2.0 * curr[1:-1] + curr[:-2]) / dx**2
            )
            np.divide(factorization.solve(rhs), dt, out=v_next[1:-1])
        nxt = curr + dt * v_next
        if not np.all(np.isfinite(nxt)):
            raise NumericBlowupError(i + 1)
        _append_step(ledger, i + 1, nxt, v_next, v, force)
        curr, v = nxt, v_next

    state = {"eta": eta, "velocity": velocity}
    return FieldSeries(times, grid.nodes(), state, physics.epsilon), ledger


def _append_step(ledger, level, eta_new, v_new, v, force):
    """EnergyLedger.append_step into row level, with a new array for each
    difference and the row written whole."""
    dt, dx, rows = ledger.dt, ledger.dx, ledger.rows
    jump = v_new - v
    slope, slope_v = np.diff(eta_new), np.diff(v_new)
    dv_sq = float(slope_v @ slope_v) / dx  # ||Dv||^2
    prev = rows[level - 1]
    rows[level] = (
        level * dt,
        0.5 * float(v_new @ v_new) * dx,
        0.5 * float(slope @ slope) / dx,
        prev[3] + ledger.alpha * dt * dv_sq,
        prev[4] + 0.5 * float(jump @ jump) * dx + 0.5 * dt * dt * dv_sq,
        prev[5] + dt * float(force @ v_new) * dx,
    )
